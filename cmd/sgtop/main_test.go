package main

import (
	"bytes"
	"testing"

	"repro/internal/cmdtest"
)

// TestSgtopRuns runs the dump end to end under a deadline and checks the
// headings of the share block, the machine section and each counter
// group, so a section cannot disappear (or the demo group wedge) unseen.
func TestSgtopRuns(t *testing.T) {
	got := cmdtest.Run(t, main)
	for _, want := range []string{
		"shared address block (shaddr_t)",
		"s_refcnt   4 members",
		"machine ─",
		"dispatcher (per-CPU run queues):",
		"frame allocator (per-CPU caches over the global pool):",
		"fault fast path (",
		"lazy creation (O(1) COW clones):",
		"lazy-dups=",
		"sleep-wake (blockproc/unblockproc, hybrid uspin):",
		"readiness (poll(2) over the stream event queues):",
		"checkpoint/restore (",
		"fault injection and degradation:",
		"system-wide syscall accounting",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
	if bytes.Contains(bytes.ToLower(got), []byte("reserv")) {
		t.Errorf("the spawn-reservation ledger is gone, yet the output mentions it:\n%s", got)
	}
	if lower := bytes.ToLower(got); bytes.Contains(lower, []byte("numa")) || bytes.Contains(lower, []byte("node0")) {
		t.Errorf("the machine is flat, yet the output has a numa or node section:\n%s", got)
	}
}
