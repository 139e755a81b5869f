package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/cmdtest"
)

// TestSgdumpRuns checkpoints the demo group and renders the image end to
// end under a deadline, and checks each section of the dump: header,
// group attributes, the region list with its resident pages, and the four
// members sharing one descriptor.
func TestSgdumpRuns(t *testing.T) {
	// main defines and parses its flags; give it a flag set of its own, and
	// no arguments, so it takes the demo path however often the test runs.
	args, cmdline := os.Args, flag.CommandLine
	os.Args, flag.CommandLine = args[:1], flag.NewFlagSet(args[0], flag.ExitOnError)
	defer func() { os.Args, flag.CommandLine = args, cmdline }()

	got := cmdtest.Run(t, main)
	for _, want := range []string{
		"checkpoint image: version=1 page-size=4096 encoded=",
		"umask=0022 ulimit=1073741824 uid=0 gid=0 cpu-shares=4 frame-quota=512 member-cap=8 gang=false",
		"regions (7, 2 resident pages):",
		"shm   base=0x30000000 pages=4    resident=1",
		"members (4, creation order; [0] is the creator):",
		`[0] pid=1   "creator"  mask=0x3f`,
		`[3] pid=4   "member"   mask=0x3f prio=0 arg=2`,
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
	if n := bytes.Count(got, []byte(`fd 0  "/srv/state"   flags=0x3 fdflags=0x0 offset=14`)); n != 4 {
		t.Errorf("%d members show the shared descriptor, want 4:\n%s", n, got)
	}
}
