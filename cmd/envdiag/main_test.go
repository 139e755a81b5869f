package main

import (
	"bytes"
	"testing"

	"repro/internal/cmdtest"
)

// TestEnvdiagRuns runs all five process models end to end under a deadline
// and checks each figure's heading and the result it demonstrates: what
// crossed a pipe, a segment, a socket, a task, and a share mask. Four runs
// must print the same bytes.
func TestEnvdiagRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	for run := 2; run <= 4; run++ {
		if again := cmdtest.Run(t, main); !bytes.Equal(again, got) {
			t.Fatalf("run %d printed\n%s\nrun 1 printed\n%s", run, again, got)
		}
	}
	for _, want := range []string{
		"Figure 1 — Version 7 process environment",
		`got "hello through the kernel queue" via pipe`,
		"child's store invisible (read 0)",
		"Figure 2a — System V process environment",
		"child's store visible across fork (read 123)",
		"received 8-byte message of type 1",
		"Figure 2b — BSD process environment",
		`response "response to request" over stream socket`,
		"Figure 3 — Mach process environment (task + threads)",
		"3 threads in one task: shared sum = 6",
		"Figure 4 — IRIX programming model (share groups)",
		"member A (mask PR_SALL): store visible to creator (read 11)",
		"member B (mask PR_SFDS): sees creator's fd: true",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
}
