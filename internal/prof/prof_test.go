package prof

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// cpuProfileStopped reports whether no CPU profile is running, by
// starting (and at once stopping) one of its own.
func cpuProfileStopped() bool {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		return false
	}
	pprof.StopCPUProfile()
	return true
}

func TestStartWithNoPathsIsNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !cpuProfileStopped() {
		t.Fatal(`Start("", "") started CPU profiling`)
	}
	stop()
}

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	stop()
	if !cpuProfileStopped() {
		t.Fatal("stop left CPU profiling running")
	}
	gzipMagic := []byte{0x1f, 0x8b}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, gzipMagic) {
			t.Fatalf("%s: %d bytes without gzip framing", filepath.Base(p), len(b))
		}
	}
}

func TestStartUncreatableCPUPath(t *testing.T) {
	dir := t.TempDir()
	stop, err := Start(filepath.Join(dir, "missing", "cpu.pprof"), "")
	if err == nil {
		stop()
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
	if !cpuProfileStopped() {
		t.Fatal("a failed Start left CPU profiling running")
	}
	stop, err = Start(filepath.Join(dir, "cpu.pprof"), "")
	if err != nil {
		t.Fatalf("second Start after a failed one: %v", err)
	}
	stop()
}
