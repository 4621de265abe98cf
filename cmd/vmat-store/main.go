// Command vmat-store is the offline admin tool for a vmat-server data
// directory: inspect the segment layout, or verify every record.
//
//	vmat-store inspect <data-dir>   show segments, manifest, snapshot
//	vmat-store verify  <data-dir>   read-only integrity pass (exit 1 on damage)
//
// Neither command modifies the directory, so both are safe against a
// directory a live vmat-server is serving.
package main

import (
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
	case "inspect", "verify":
	default:
		usage(w)
		return fmt.Errorf("unknown command %q", cmd)
	}
	if len(rest) != 1 {
		usage(w)
		return fmt.Errorf("%s takes exactly one data directory", cmd)
	}
	if cmd == "inspect" {
		return inspect(rest[0], w)
	}
	return verify(rest[0], w)
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
	fmt.Fprintf(w, "verified %d segments: %d records, %d keys\n", rep.Segments, rep.Records, rep.Keys)
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
