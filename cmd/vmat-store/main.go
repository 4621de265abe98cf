// Command vmat-store is the offline admin tool for a vmat-server data
// directory: inspect the segment layout, verify every record without
// writing a byte, or force a compaction.
//
//	vmat-store inspect <data-dir>   show segments, manifest, snapshot
//	vmat-store verify  <data-dir>   read-only integrity pass (exit 1 on damage)
//	vmat-store compact <data-dir>   merge sealed segments, drop dead bytes
//
// inspect and verify never modify the directory. compact takes
// exclusive ownership of it for its duration — do not run it against a
// directory a live vmat-server is serving.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/store"
)

var version = "dev"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmat-store:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: vmat-store <command> <data-dir>

commands:
  inspect   show the segment layout, manifest, and snapshot state
  verify    read-only integrity pass over every record (exit 1 on damage)
  compact   merge sealed segments and reclaim dead bytes
  version   print version`)
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		usage(w)
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "version", "-version", "--version":
		fmt.Fprintln(w, "vmat-store", version)
		return nil
	case "help", "-h", "--help":
		usage(w)
		return nil
	case "inspect", "verify", "compact":
	default:
		usage(w)
		return fmt.Errorf("unknown command %q", cmd)
	}

	fs := flag.NewFlagSet("vmat-store "+cmd, flag.ContinueOnError)
	fs.SetOutput(w)
	segmentBytes := fs.Int64("store-segment-bytes", 64<<20, "segment roll threshold for compact")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		usage(w)
		return fmt.Errorf("%s takes exactly one data directory", cmd)
	}
	dir := fs.Arg(0)

	switch cmd {
	case "inspect":
		return inspect(dir, w)
	case "verify":
		return verify(dir, w)
	case "compact":
		return compact(dir, *segmentBytes, w)
	}
	return nil
}

func inspect(dir string, w io.Writer) error {
	rep, err := store.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "store: %s\n", rep.Dir)
	switch {
	case rep.ManifestError != "":
		fmt.Fprintf(w, "manifest: UNREADABLE (%s)\n", rep.ManifestError)
	case rep.HasManifest:
		fmt.Fprintf(w, "manifest: generation %d, next id %d\n", rep.ManifestGeneration, rep.NextID)
	default:
		fmt.Fprintln(w, "manifest: none (layout below is what open would bootstrap)")
	}
	fmt.Fprintf(w, "segments: %d\n", len(rep.Segments))
	for _, sg := range rep.Segments {
		size := "MISSING"
		if sg.Bytes >= 0 {
			size = fmt.Sprintf("%d bytes", sg.Bytes)
		}
		fmt.Fprintf(w, "  %s  %s\n", sg.Name, size)
	}
	for _, sg := range rep.Unlisted {
		fmt.Fprintf(w, "  %s  %d bytes  (UNLISTED — open would delete)\n", sg.Name, sg.Bytes)
	}
	switch {
	case rep.SnapshotError != "":
		fmt.Fprintf(w, "snapshot: UNUSABLE (%s)\n", rep.SnapshotError)
	case rep.HasSnapshot:
		fmt.Fprintf(w, "snapshot: %d keys, %s old\n", rep.SnapshotKeys, time.Duration(rep.SnapshotAgeSeconds)*time.Second)
	default:
		fmt.Fprintln(w, "snapshot: none (next open replays in full)")
	}
	return nil
}

func verify(dir string, w io.Writer) error {
	rep, err := store.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "verified %d segments: %d records, %d live keys, %d dead records\n",
		rep.Segments, rep.Records, rep.LiveKeys, rep.DeadRecords)
	for _, warn := range rep.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	if !rep.OK() {
		return fmt.Errorf("%d problems found", len(rep.Problems))
	}
	fmt.Fprintln(w, "ok")
	return nil
}

func compact(dir string, segmentBytes int64, w io.Writer) error {
	logf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	s, err := store.Open(dir, store.Config{SegmentBytes: segmentBytes, Log: logf})
	if err != nil {
		return err
	}
	defer s.Close()
	before := s.Status()
	if err := s.Compact(); err != nil {
		return err
	}
	after := s.Status()
	fmt.Fprintf(w, "compacted: %d -> %d segments, dead bytes %d -> %d, %d entries\n",
		before.Segments, after.Segments, before.DeadBytes, after.DeadBytes, after.Entries)
	return nil
}
