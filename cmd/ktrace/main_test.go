package main

import (
	"bytes"
	"testing"

	"repro/internal/cmdtest"
)

// TestKtraceRuns runs the traced workload and the fault-injection demo end
// to end under a deadline and checks the sections of the report, and in
// the event stream the kill that breaks the victim's pause(2) and the
// wait(2) that reaps it.
func TestKtraceRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	for _, want := range []string{
		"kernel trace: ",
		"(0 dropped)",
		"  pause = EINTR\n",
		"  wait = 0\n",
		"ckptpass  pid=1",
		"lazybreak",
		"summary:",
		"per-CPU ring shards (drops to wrap-around):",
		"overflow   0 dropped",
		"scheduler: dispatches=",
		"fault-injection demo (seed=2026, rate=200‰, framealloc disarmed):",
		"faults:    checks=",
		"readiness: poll-sleeps=",
		"site sysenter",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
}
