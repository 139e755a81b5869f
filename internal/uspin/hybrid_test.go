package uspin

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/vm"
)

// Tests for the hybrid spin-then-block layer: signal interruption of both
// spinning and blocked waiters, dead-waiter tolerance on unlock, and the
// race storm that guards the no-lost-wakeups invariant.

// TestKillSpinningMember is the regression for the headline bug: a pure
// spinner on a lock that will never be released must die promptly on
// SIGTERM instead of spinning forever. The signal poll sits at every
// spin-batch refresh — well under one scheduling quantum — so the kill
// must land long before the deadlock guard.
func TestKillSpinningMember(t *testing.T) {
	start := time.Now()
	runSystem(t, func(c *kernel.Context) {
		m := Mutex{VA: vm.DataBase}
		m.Init(c)
		gateVA := vm.DataBase + MutexBytes
		m.Lock(c) // held forever: the spinner can never win
		pid, _ := c.Sproc("spinner", func(cc *kernel.Context, _ int64) {
			cc.Store32(gateVA, 1)
			m.LockSpin(cc) // fatal signal ends this, nothing else will
			t.Error("spinner acquired a lock that was never released")
		}, proc.PRSALL, 0)
		c.SpinWait32(gateVA, func(v uint32) bool { return v == 1 })
		c.Kill(pid, proc.SIGTERM)
		wpid, status, err := c.Wait()
		if err != nil || wpid != pid || status != 128+proc.SIGTERM {
			t.Errorf("Wait = (%d,%d,%v), want (%d,%d,nil)", wpid, status, err, pid, 128+proc.SIGTERM)
		}
		m.Unlock(c)
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("killing a spinner took %v — signal poll in the spin path is broken", elapsed)
	}
}

// TestKillBlockedWaiter kills a member asleep in blockproc under
// Mutex.Lock, then verifies Unlock tolerates the dead pid left in the
// waiter table (unblockproc returns ESRCH and the release moves on).
func TestKillBlockedWaiter(t *testing.T) {
	runSystem(t, func(c *kernel.Context) {
		m := Mutex{VA: vm.DataBase}
		m.Init(c)
		m.Lock(c)
		pid, _ := c.Sproc("waiter", func(cc *kernel.Context, _ int64) {
			m.Lock(cc) // spins its budget, then blocks; SIGTERM is fatal
			t.Error("waiter acquired the lock after a fatal signal")
		}, proc.PRSALL, 0)
		target, ok := c.S.Lookup(pid)
		if !ok {
			t.Fatal("waiter vanished")
		}
		for target.BlockCnt() >= 0 {
			runtime.Gosched() // wait until it is demonstrably asleep
		}
		c.Kill(pid, proc.SIGTERM)
		wpid, status, err := c.Wait()
		if err != nil || wpid != pid || status != 128+proc.SIGTERM {
			t.Errorf("Wait = (%d,%d,%v), want (%d,%d,nil)", wpid, status, err, pid, 128+proc.SIGTERM)
		}
		// The dead waiter may still be registered; Unlock must skip it.
		if err := m.Unlock(c); err != nil {
			t.Errorf("Unlock over a dead waiter: %v", err)
		}
		if ok, _ := m.TryLock(c); !ok {
			t.Error("lock not reacquirable after a waiter died in it")
		}
	})
}

// TestMutexLockEINTR interrupts a blocked Lock with a caught signal: the
// EINTR must propagate out of Lock, and the lock must stay fully usable.
func TestMutexLockEINTR(t *testing.T) {
	var gotEINTR atomic.Bool
	runSystem(t, func(c *kernel.Context) {
		m := Mutex{VA: vm.DataBase}
		m.Init(c)
		m.Lock(c)
		pid, _ := c.Sproc("waiter", func(cc *kernel.Context, _ int64) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			err := m.Lock(cc)
			if errors.Is(err, kernel.ErrInterrupt) {
				gotEINTR.Store(true)
				return
			}
			if err != nil {
				t.Errorf("Lock = %v, want ErrInterrupt", err)
				return
			}
			m.Unlock(cc) // lost the race: signal landed before the block
		}, proc.PRSALL, 0)
		target, _ := c.S.Lookup(pid)
		for target.BlockCnt() >= 0 {
			runtime.Gosched()
		}
		c.Kill(pid, proc.SIGUSR1)
		c.Wait()
		if err := m.Unlock(c); err != nil {
			t.Errorf("Unlock after interrupted waiter: %v", err)
		}
		if ok, _ := m.TryLock(c); !ok {
			t.Error("lock unusable after EINTR'd waiter")
		}
	})
	if !gotEINTR.Load() {
		t.Fatal("signal did not interrupt the blocked Lock with EINTR")
	}
}

// TestBarrierEnterEINTR interrupts a barrier sleeper with a caught
// signal; the barrier must still release cleanly for the remaining
// arrival (the aborted member's count contribution stands).
func TestBarrierEnterEINTR(t *testing.T) {
	var gotEINTR atomic.Bool
	runSystem(t, func(c *kernel.Context) {
		b := Barrier{VA: vm.DataBase, N: 2}
		b.Init(c)
		pid, _ := c.Sproc("member", func(cc *kernel.Context, _ int64) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			err := b.Enter(cc)
			if errors.Is(err, kernel.ErrInterrupt) {
				gotEINTR.Store(true)
			} else if err != nil {
				t.Errorf("Enter = %v, want ErrInterrupt or nil", err)
			}
		}, proc.PRSALL, 0)
		target, _ := c.S.Lookup(pid)
		for target.BlockCnt() >= 0 {
			runtime.Gosched()
		}
		c.Kill(pid, proc.SIGUSR1)
		c.Wait()
		// Our own arrival completes the generation; must not hang.
		if err := b.Enter(c); err != nil {
			t.Errorf("final Enter: %v", err)
		}
	})
	if !gotEINTR.Load() {
		t.Fatal("signal did not interrupt the blocked Enter with EINTR")
	}
}

func TestBarrierZeroN(t *testing.T) {
	runSystem(t, func(c *kernel.Context) {
		b := Barrier{VA: vm.DataBase, N: 0}
		b.Init(c)
		if err := b.Enter(c); !errors.Is(err, ErrZeroBarrier) {
			t.Errorf("Enter(N=0) = %v, want ErrZeroBarrier", err)
		}
	})
}

// TestHybridMutexStormRace is the -race contention storm: 8 members on 4
// CPUs hammer one hybrid lock. Any lost wakeup deadlocks the run (the
// harness fails it), any lost update breaks the counter, and overcommit
// must force at least one spin-to-block conversion.
func TestHybridMutexStormRace(t *testing.T) {
	const workers = 8
	const iters = 150
	s := runSystem(t, func(c *kernel.Context) {
		m := Mutex{VA: vm.DataBase}
		counterVA := vm.DataBase + MutexBytes
		scratchVA := counterVA + 4
		m.Init(c)
		for w := 0; w < workers; w++ {
			c.Sproc("stormer", func(cc *kernel.Context, _ int64) {
				for i := 0; i < iters; i++ {
					if err := m.Lock(cc); err != nil {
						t.Errorf("lock: %v", err)
						return
					}
					v, _ := cc.Load32(counterVA)
					// Enough held work that holders get preempted
					// mid-section and waiters outlive their spin budget.
					for g := 0; g < 60; g++ {
						cc.Store32(scratchVA, uint32(g))
					}
					cc.Store32(counterVA, v+1)
					if err := m.Unlock(cc); err != nil {
						t.Errorf("unlock: %v", err)
						return
					}
				}
			}, proc.PRSALL, int64(w))
		}
		for w := 0; w < workers; w++ {
			c.Wait()
		}
		if v, _ := c.Load32(counterVA); v != workers*iters {
			t.Errorf("counter = %d, want %d (lost update)", v, workers*iters)
		}
	})
	if st := s.Stats(); st.SpinToBlocks == 0 {
		t.Errorf("8 members on 4 CPUs never converted a spin to a block (s2b=%d)", st.SpinToBlocks)
	}
}
