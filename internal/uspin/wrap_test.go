package uspin

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/vm"
)

// TestBarrierGenerationWraparound pins the wraparound contract documented
// on Barrier: the generation word is a free-running uint32 compared only
// for inequality against the value sampled at entry, so the 2^32 rollover
// must be invisible — no member released early (observing a "changed"
// generation before all N arrived) and none stranded (sleeping through a
// release because the wrapped value compared equal). The test pre-seeds
// the generation word just below the rollover and drives episodes across
// 0xFFFFFFFE → 0xFFFFFFFF → 0 → 1 → 2, checking the per-round work ledger
// at every exit exactly like TestBarrierRounds does in the mid-range.
func TestBarrierGenerationWraparound(t *testing.T) {
	const workers = 4
	const rounds = 5 // crosses the wrap on round 2
	runSystem(t, func(c *kernel.Context) {
		b := Barrier{VA: vm.DataBase, N: workers}
		if err := b.Init(c); err != nil {
			t.Fatalf("init: %v", err)
		}
		// Park the free-running generation two episodes shy of rollover.
		// Init is done, no one has entered yet, so a plain store is safe.
		if err := c.Store32(b.VA+4, 0xFFFFFFFE); err != nil {
			t.Fatalf("seed generation: %v", err)
		}
		for w := 0; w < workers; w++ {
			c.Sproc("wrap-worker", func(cc *kernel.Context, _ int64) {
				for r := 0; r < rounds; r++ {
					va := vm.DataBase + 64 + hw.VAddr(4*r)
					cc.Add32(va, 1)
					if err := b.Enter(cc); err != nil {
						t.Errorf("round %d: barrier: %v", r, err)
						return
					}
					// An early release would exit with the round's ledger
					// short of N; a stranded member would hang the whole
					// test (runSystem's deadlock watchdog catches it).
					if v, _ := cc.Load32(va); v != workers {
						t.Errorf("round %d incomplete at barrier exit: %d of %d arrivals", r, v, workers)
						return
					}
				}
			}, proc.PRSALL, int64(w))
		}
		for w := 0; w < workers; w++ {
			c.Wait()
		}
		// The generation word wrapped through zero and kept counting:
		// 0xFFFFFFFE + 5 episodes ≡ 3 (mod 2^32).
		if g, _ := c.Load32(b.VA + 4); g != 3 {
			t.Errorf("generation after %d episodes = %d, want 3 (wrapped)", rounds, g)
		}
	})
}

// TestBarrierWraparoundHybridSleepers repeats the crossing with the spin
// budget forced to zero, so every non-last arrival takes the blockproc
// sleep path and the wrap is exercised against the sleeper-table re-check
// in Barrier.sleep (the g != gen comparison under the table guard).
func TestBarrierWraparoundHybridSleepers(t *testing.T) {
	old := spinRounds
	spinRounds = 0
	defer func() { spinRounds = old }()

	const workers = 3
	const rounds = 4
	runSystem(t, func(c *kernel.Context) {
		b := Barrier{VA: vm.DataBase, N: workers + 1} // driver participates
		if err := b.Init(c); err != nil {
			t.Fatalf("init: %v", err)
		}
		if err := c.Store32(b.VA+4, 0xFFFFFFFF); err != nil { // next episode wraps to 0
			t.Fatalf("seed generation: %v", err)
		}
		for w := 0; w < workers; w++ {
			c.Sproc("sleeper", func(cc *kernel.Context, _ int64) {
				for r := 0; r < rounds; r++ {
					if err := b.Enter(cc); err != nil {
						t.Errorf("round %d: %v", r, err)
						return
					}
				}
			}, proc.PRSALL, int64(w))
		}
		for r := 0; r < rounds; r++ {
			// The driver arrives last-ish; sleepers blocked via the table
			// must all be released every episode or Wait below hangs.
			if err := b.Enter(c); err != nil {
				t.Fatalf("driver round %d: %v", r, err)
			}
		}
		for w := 0; w < workers; w++ {
			c.Wait()
		}
		if g, _ := c.Load32(b.VA + 4); g != 3 {
			t.Errorf("generation = %d, want 3 (0xFFFFFFFF + 4 episodes)", g)
		}
	})
}
