package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cmdtest"
)

// TestAsyncioRuns runs the asynchronous-write example under a deadline: a
// PR_SFDS worker writes through a descriptor the submitter opened, and the
// journal read back at the end must hold every record exactly once (the
// worker serves ring slots, not submissions, in order).
func TestAsyncioRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	if want := "submitted 8 async writes; /journal is 120 bytes\njournal contents:\n"; !bytes.Contains(got, []byte(want)) {
		t.Errorf("no %q in the output:\n%s", want, got)
	}
	for i := 0; i < 8; i++ {
		if n := bytes.Count(got, []byte(fmt.Sprintf("async record %d\n", i))); n != 1 {
			t.Errorf("record %d is in the journal %d times, want once:\n%s", i, n, got)
		}
	}
}
