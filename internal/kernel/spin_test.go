package kernel

// A spin that nothing can end is charged, not run: while every CPU spins and
// a process waits (sched.SpinQuiescent), one host yield of spinBatch stands
// for spinPollsPerCycle cached polls. The charges must be exactly those of
// one poll per yield. Mutations, each of which fails the test named:
//
//   - spinAdvance does not clip the step to the batch (a batch that went
//     quiescent at an odd poll ends past SpinPollBatch):
//     TestSpinChargesByVirtualPoll/advance;
//   - the flag counted per CPU instead of per holder (SpinQuiescent counts
//     flagged processes against NCPU, so a preempted spinner still counts
//     for the CPU it left): sched.TestSpinQuiescentSelfCheck, "preempted
//     spinner, a non-spinner on its CPU";
//   - the flag not cleared on exit (spinBatch clears it on its normal
//     returns but not by defer, so a kill's unwind leaves it set):
//     TestQuiescentSpinStormRace, every run; clearing it nowhere also fails
//     TestSpinChargesByVirtualPoll/slice and /bounded.

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// tlbProbes counts the TLB probes CPU 0 has answered: one per full-cost
// access (a fill's confirming reprobe takes back its hit).
func tlbProbes(s *System) int64 {
	tlb := &s.Machine.CPUs[0].TLB
	return tlb.Hits.Load() + tlb.Misses.Load()
}

// TestSpinChargesByVirtualPoll pins a spin's charges on one CPU, where the
// only other process is queued behind the spinner, so every cached poll is
// quiescent: a batch is two full-cost accesses and one drip cycle per
// spinPollsPerCycle virtual polls, and the slice ends exactly where that
// arithmetic says.
func TestSpinChargesByVirtualPoll(t *testing.T) {
	mem, drip := hw.MemAccess.Price(), hw.SpinDrip.Price()
	drips := int64(SpinPollBatch / spinPollsPerCycle)

	t.Run("advance", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for name, quiet := range map[string]func(i int) bool{
			"never":       func(int) bool { return false },
			"always":      func(int) bool { return true },
			"from poll 3": func(i int) bool { return i >= 3 },
			"until 4093":  func(i int) bool { return i < 4093 },
			"random":      func(int) bool { return rng.Intn(2) == 0 },
		} {
			i, steps, sum := 0, 0, int64(0)
			for i < SpinPollBatch {
				next, d := spinAdvance(i, quiet(i))
				if next <= i || d != int64(next/spinPollsPerCycle-i/spinPollsPerCycle) {
					t.Fatalf("%s: spinAdvance(%d) = (%d, %d)", name, i, next, d)
				}
				i, steps, sum = next, steps+1, sum+d
			}
			if i != SpinPollBatch || sum != drips {
				t.Errorf("%s: batch ends at virtual poll %d with %d drip cycles, want %d and %d", name, i, sum, SpinPollBatch, drips)
			}
			if name == "always" && steps != int(drips) {
				t.Errorf("always: %d host yields for one batch, want one per drip cycle (%d)", steps, drips)
			}
		}
	})

	t.Run("slice", func(t *testing.T) {
		s := NewSystem(Config{NCPU: 1, MemFrames: 1024, TimeSlice: 20000})
		word := vm.DataBase
		var start, left, probes0, atYield, probes int64
		var flagged bool
		s.Start("spinner", func(c *Context) {
			c.Store32(word, 0)
			spinner := c.P
			c.Sproc("writer", func(cc *Context, _ int64) {
				// First thing on the CPU the spinner's slice gave up.
				atYield, probes, flagged = spinner.Cycles.Load(), tlbProbes(s), spinner.Spinning.Load()
				cc.Store32(word, 1)
			}, proc.PRSALL, 0)
			start, left, probes0 = c.P.Cycles.Load(), c.P.SliceLeft.Load(), tlbProbes(s)
			if v, err := c.SpinWait32(word, func(v uint32) bool { return v == 1 }); v != 1 || err != nil {
				t.Errorf("SpinWait32 = (%d, %v), want (1, nil)", v, err)
			}
			if c.P.Spinning.Load() {
				t.Error("Spinning still set after the spin returned")
			}
			c.Wait()
		})
		waitIdle(t, s)
		// The arithmetic: batches of two accesses then drip cycles, until
		// the slice is spent. An access charged as the slice ends yields
		// before it probes the TLB.
		var cyc, accesses, touched int64
		onDrip := false
		for cyc < left {
			for k := 0; k < 2 && cyc < left; k++ {
				cyc, accesses = cyc+mem, accesses+1
				if cyc < left {
					touched++
				}
			}
			for d := int64(0); d < drips && cyc < left; d++ {
				cyc += drip
				onDrip = cyc == left
			}
		}
		if left <= 2*mem+drips*drip {
			t.Fatalf("slice left at the spin = %d: not even one whole batch", left)
		}
		if got := atYield - start; got != cyc || got != left {
			t.Errorf("spinner charged %d cycles by its yield, want %d (%d accesses × %d + drips), the %d its slice had left", got, cyc, accesses, mem, left)
		}
		if got := probes - probes0; got != touched {
			t.Errorf("%d full-cost accesses by the yield, want %d", got, touched)
		}
		if flagged != onDrip {
			t.Errorf("spinner flagged %v at its yield, want %v (preempted inside the cached polls)", flagged, onDrip)
		}
	})

	t.Run("bounded", func(t *testing.T) {
		const rounds = 3
		s := NewSystem(Config{NCPU: 1, MemFrames: 1024, TimeSlice: 1 << 40})
		s.Start("spinner", func(c *Context) {
			c.Store32(vm.DataBase, 0)
			c.Sproc("queued", func(*Context, int64) {}, proc.PRSALL, 0) // waits for the CPU
			cyc, probes := c.P.Cycles.Load(), tlbProbes(s)
			_, done, err := c.SpinWaitBounded(vm.DataBase, func(v uint32) bool { return v != 0 }, rounds)
			if done || err != nil {
				t.Errorf("SpinWaitBounded = (done %v, %v), want budget expired", done, err)
			}
			if got, want := c.P.Cycles.Load()-cyc, rounds*(2*mem+drips*drip); got != want {
				t.Errorf("%d rounds charged %d cycles, want %d", rounds, got, want)
			}
			if got := tlbProbes(s) - probes; got != 2*rounds {
				t.Errorf("%d rounds made %d full-cost accesses, want %d", rounds, got, 2*rounds)
			}
			if c.P.Spinning.Load() {
				t.Error("Spinning still set after the budget expired")
			}
			c.Wait()
		})
		waitIdle(t, s)
	})
}
