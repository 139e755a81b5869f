package main

import (
	"bytes"
	"flag"
	"testing"

	"repro/internal/cmdtest"
)

// TestBenchtabPreforkRuns runs `benchtab -quick -work prefork` end to end
// under a deadline and checks the table it prints: the heading, one row
// per pool, the lazy-creation ledger columns, and the lazy-clone law the
// shape line states.
func TestBenchtabPreforkRuns(t *testing.T) {
	flag.Set("quick", "true")
	flag.Set("work", "prefork")

	got := cmdtest.Run(t, main)
	for _, want := range []string{
		"E1c-prefork — prefork serving pool, 256 connections",
		"  pool                     simcyc/op         wall  shootdn   faults",
		"prefork, 2 workers", "prefork, 4 workers", "prefork, 8 workers", "prefork, lifespan 64",
		"drops+breaks == lazydups every run",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
	if n := bytes.Count(got, []byte(" creations=")); n != 4 {
		t.Errorf("%d rows carry the creation ledger, want 4:\n%s", n, got)
	}
	if bytes.Contains(got, []byte("reserved")) {
		t.Errorf("the reserved= column is gone, yet the output prints it:\n%s", got)
	}
	for _, r := range results {
		if r.SimCyclesPerOp <= 0 || r.Ops <= 0 {
			t.Errorf("row %q recorded no work: %+v", r.Name, r)
		}
	}
}
