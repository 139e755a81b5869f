package main

import (
	"bytes"
	"testing"

	"repro/internal/cmdtest"
)

// TestParallelRuns runs the self-scheduling pool under a deadline and
// checks its answer: the workers claim rectangles with an interlocked add
// on shared memory, so a lost or doubled claim shows in the digits of pi.
func TestParallelRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	if want := "pi ≈ 3.14158"; !bytes.Contains(got, []byte(want)) {
		t.Errorf("no %q in the output:\n%s", want, got)
	}
	if n := bytes.Count(got, []byte(" context switches\n")); n != 4 {
		t.Errorf("%d CPUs reported, want 4:\n%s", n, got)
	}
}
