package main

import (
	"bytes"
	"testing"

	"repro/internal/cmdtest"
)

// TestQuickstartRuns runs the smallest end-to-end program under a deadline:
// four sproc'd workers counting through shared memory under a spinlock,
// then the prefork pool — and checks that no update was lost.
func TestQuickstartRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	for _, want := range []string{
		"counter = 4000 (want 4000)",
		"PR_MAXPPROCS: the system can run 4 processes in parallel",
		"prefork pool served 8 connections through 4 worker generations",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
	if n := bytes.Count(got, []byte("sproc'd worker pid ")); n != 4 {
		t.Errorf("%d workers announced, want 4:\n%s", n, got)
	}
}
