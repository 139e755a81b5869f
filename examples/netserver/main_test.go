package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cmdtest"
)

// TestNetserverRuns runs the example end to end under a deadline: a
// poll-driven dispatcher and two PR_SFDS workers serving twelve forked
// clients, every wait of it inside poll(2). Each client prints the echo it
// got back, so the output says whether every connection was served.
func TestNetserverRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	if n := bytes.Count(got, []byte(" echoes ")); n != clients {
		t.Errorf("%d echoes printed, want one per client (%d):\n%s", n, clients, got)
	}
	if want := fmt.Sprintf("served %d clients with %d poll-driven", clients, workers); !bytes.Contains(got, []byte(want)) {
		t.Errorf("no %q line in the output:\n%s", want, got)
	}
}
