package main

import (
	"bytes"
	"testing"

	"repro/internal/cmdtest"
)

// TestMakeparRuns runs the parallel build under a deadline: workers sharing
// descriptors and the working directory take targets off a shared queue,
// and every target must come out as an artifact and a line of the one log.
func TestMakeparRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	for _, target := range []string{"parse", "lex", "ast", "opt", "gen", "link", "test"} {
		if !bytes.Contains(got, []byte("  "+target+".o")) {
			t.Errorf("no artifact for %s:\n%s", target, got)
		}
		if !bytes.Contains(got, []byte(" built "+target+"\n")) {
			t.Errorf("no log line for %s:\n%s", target, got)
		}
	}
	if !bytes.Contains(got, []byte("build log (137 bytes):")) {
		t.Errorf("the build log is not 7 lines, 137 bytes:\n%s", got)
	}
}
