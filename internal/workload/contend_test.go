package workload

import "testing"

// TestContentionHybridBeatsSpin is the S5 acceptance regression: under
// 2× CPU overcommit (8 members, 4 processors) the hybrid spin-then-block
// lock must cost fewer simulated cycles per op than the pure spin lock —
// the host-independent statement of S5's ordering; both walls are logged —
// must actually convert spins to blocks, and must not lose a wakeup (a
// lost wakeup hangs the run; a lost update panics inside Contention).
func TestContentionHybridBeatsSpin(t *testing.T) {
	members, iters, grain := 8, 200, 600
	if testing.Short() {
		iters = 80
	}
	spin := Contention(DefaultConfig(), LockSpin, members, iters, grain)
	hybrid := Contention(DefaultConfig(), LockHybrid, members, iters, grain)
	t.Logf("spin-only: wall=%v cycles/op=%.0f preempts=%d", spin.Wall, spin.CyclesPerOp(), spin.Preempts)
	t.Logf("hybrid:    wall=%v cycles/op=%.0f blocks=%d wakes=%d banked=%d s2b=%d",
		hybrid.Wall, hybrid.CyclesPerOp(), hybrid.Blocks, hybrid.Wakes, hybrid.BankedWakes, hybrid.SpinToBlocks)
	if hybrid.SpinToBlocks == 0 {
		t.Error("hybrid mode under overcommit never converted a spin to a block")
	}
	if hybrid.CyclesPerOp() >= spin.CyclesPerOp() {
		t.Errorf("hybrid (%.0f simcyc/op) did not beat spin-only (%.0f) under overcommit", hybrid.CyclesPerOp(), spin.CyclesPerOp())
	}
	// Every block must eventually be paid for by a wake (or the run
	// would have hung): released + banked covers all issued unblocks.
	if hybrid.Wakes == 0 {
		t.Error("hybrid run recorded blocks but no wakes")
	}
}
