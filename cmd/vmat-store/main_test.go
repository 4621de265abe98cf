package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// seedStore builds a segmented store with a few rolls and a clean
// close.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	s, err := store.Open(dir, store.Config{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 30; i++ {
		key := strings.Repeat("k", 8) + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := s.Put(key, "test", strings.Repeat("v", 40), store.Meta{}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestInspectAndVerify(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)

	out, err := runCmd(t, "inspect", dir)
	if err != nil {
		t.Fatalf("inspect: %v\n%s", err, out)
	}
	for _, want := range []string{"segments: ", "-0001.vmat  ", "bytes  (active)\n", "snapshot: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "manifest") {
		t.Fatalf("inspect output mentions a manifest:\n%s", out)
	}

	out, err = runCmd(t, "verify", dir)
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok") || strings.Contains(out, "PROBLEM") {
		t.Fatalf("verify of a clean store:\n%s", out)
	}
}

func TestVerifyFlagsDamage(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)

	// Damage a sealed segment mid-file: committed data is affected, so
	// verify must fail loudly.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.vmat"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad}, 20); err != nil {
		t.Fatalf("damage segment: %v", err)
	}
	f.Close()

	out, err := runCmd(t, "verify", dir)
	if err == nil {
		t.Fatalf("verify accepted a damaged sealed segment:\n%s", out)
	}
	if !strings.Contains(out, "PROBLEM") {
		t.Fatalf("verify output has no PROBLEM line:\n%s", out)
	}
}

// TestCompactCommand: the store is append-only, so an operator's
// `vmat-store compact` fails as an unknown command and changes nothing.
func TestCompactCommand(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	if out, err := runCmd(t, "compact", dir); err == nil || !strings.Contains(err.Error(), `unknown command "compact"`) {
		t.Fatalf("compact: err=%v\n%s", err, out)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("compact changed the directory: %d files before, %d after", len(before), len(after))
	}
}

func TestUnknownCommand(t *testing.T) {
	if _, err := runCmd(t, "explode", "/tmp/nope"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := runCmd(t, "verify"); err == nil {
		t.Fatal("missing directory accepted")
	}
}
