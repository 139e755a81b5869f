package kernel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/proc"
	"repro/internal/vm"
)

// Tests for the §3 sleep-wake subsystem: blockproc(2), unblockproc(2),
// setblockproccnt(2), and the banked-count semantics that make an
// unblock-before-block impossible to lose.

func TestBlockprocBankedUnblockNeverLost(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		readyVA := vm.DataBase
		pid, _ := c.Sproc("sleeper", func(cc *Context, _ int64) {
			cc.Store32(readyVA, 1)
			// Three banked unblocks pay for three blockprocs: none of
			// these may sleep, let alone hang.
			for i := 0; i < 3; i++ {
				if err := cc.Blockproc(0); err != nil {
					t.Errorf("banked blockproc %d: %v", i, err)
				}
			}
		}, proc.PRSALL, 0)
		// Bank the wakes before the child blocks. The child may not have
		// started yet — that is the point: the count retains them.
		for i := 0; i < 3; i++ {
			if err := c.Unblockproc(pid); err != nil {
				t.Errorf("unblockproc: %v", err)
			}
		}
		c.Wait()
	})
	waitIdle(t, s)
	st := s.Stats()
	if st.BankedWakes == 0 && st.ProcWakes == 0 {
		t.Errorf("no wake recorded at all: banked=%d wakes=%d", st.BankedWakes, st.ProcWakes)
	}
}

func TestBlockprocWakeRoundTrip(t *testing.T) {
	s := NewSystem(testConfig())
	var woke atomic.Bool
	s.Start("parent", func(c *Context) {
		gateVA := vm.DataBase
		pid, _ := c.Sproc("sleeper", func(cc *Context, _ int64) {
			cc.Store32(gateVA, 1)
			if err := cc.Blockproc(0); err != nil {
				t.Errorf("blockproc: %v", err)
				return
			}
			woke.Store(true)
		}, proc.PRSALL, 0)
		c.SpinWait32(gateVA, func(v uint32) bool { return v == 1 })
		if err := c.Unblockproc(pid); err != nil {
			t.Errorf("unblockproc: %v", err)
		}
		c.Wait()
	})
	waitIdle(t, s)
	if !woke.Load() {
		t.Fatal("sleeper never resumed after unblockproc")
	}
	st := s.Stats()
	if st.ProcBlocks == 0 {
		t.Errorf("ProcBlocks = 0, want at least the sleeper's block")
	}
	if st.ProcWakes+st.BankedWakes == 0 {
		t.Errorf("no wake counted: wakes=%d banked=%d", st.ProcWakes, st.BankedWakes)
	}
}

func TestBlockprocErrnos(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		pid, _ := c.Sproc("bystander", func(cc *Context, _ int64) {
			cc.Blockproc(0)
		}, proc.PRSALL, 0)

		// blockproc may only block the caller: any other pid is EINVAL.
		if err := c.Blockproc(pid); !errors.Is(err, ErrBadBlockPid) || ErrnoOf(err) != EINVAL {
			t.Errorf("Blockproc(other) = %v, want ErrBadBlockPid/EINVAL", err)
		}
		// Unknown targets are ESRCH, like kill(2).
		if err := c.Unblockproc(9999); ErrnoOf(err) != ESRCH {
			t.Errorf("Unblockproc(9999) = %v, want ESRCH", err)
		}
		if err := c.Setblockproccnt(9999, 1); ErrnoOf(err) != ESRCH {
			t.Errorf("Setblockproccnt(9999) = %v, want ESRCH", err)
		}
		// Out-of-range counts are EINVAL before the pid is even looked at.
		if err := c.Setblockproccnt(pid, -1); ErrnoOf(err) != EINVAL {
			t.Errorf("Setblockproccnt(-1) = %v, want EINVAL", err)
		}
		if err := c.Setblockproccnt(pid, proc.BlockCntMax+1); ErrnoOf(err) != EINVAL {
			t.Errorf("Setblockproccnt(max+1) = %v, want EINVAL", err)
		}
		// The administrative reset releases a sleeper. Wait until the
		// bystander is demonstrably down (count gone negative) so the
		// reset-to-zero is a release, not a no-op it can sleep past.
		target, ok := c.S.Lookup(pid)
		if !ok {
			t.Fatal("bystander vanished")
		}
		for target.BlockCnt() >= 0 {
			runtime.Gosched()
		}
		if err := c.Setblockproccnt(pid, 0); err != nil {
			t.Errorf("Setblockproccnt(0) = %v", err)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

func TestBlockprocSignalInterruptsSleep(t *testing.T) {
	s := NewSystem(testConfig())
	var gotEINTR atomic.Bool
	s.Start("parent", func(c *Context) {
		gateVA := vm.DataBase
		pid, _ := c.Sproc("sleeper", func(cc *Context, _ int64) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			cc.Store32(gateVA, 1)
			err := cc.Blockproc(0)
			if ErrnoOf(err) == EINTR {
				gotEINTR.Store(true)
			} else {
				t.Errorf("blockproc after signal = %v, want EINTR", err)
			}
		}, proc.PRSALL, 0)
		c.SpinWait32(gateVA, func(v uint32) bool { return v == 1 })
		if err := c.Kill(pid, proc.SIGUSR1); err != nil {
			t.Errorf("kill: %v", err)
		}
		c.Wait()
	})
	waitIdle(t, s)
	if !gotEINTR.Load() {
		t.Fatal("caught signal did not interrupt blockproc with EINTR")
	}
}

func TestBlockprocFatalSignalKillsSleeper(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		gateVA := vm.DataBase
		pid, _ := c.Sproc("victim", func(cc *Context, _ int64) {
			cc.Store32(gateVA, 1)
			cc.Blockproc(0) // no handler: SIGTERM is fatal mid-sleep
			t.Error("victim survived a fatal signal in blockproc")
		}, proc.PRSALL, 0)
		c.SpinWait32(gateVA, func(v uint32) bool { return v == 1 })
		c.Kill(pid, proc.SIGTERM)
		wpid, status, err := c.Wait()
		if err != nil || wpid != pid || status != 128+proc.SIGTERM {
			t.Errorf("Wait = (%d,%d,%v), want (%d,%d,nil)", wpid, status, err, pid, 128+proc.SIGTERM)
		}
	})
	waitIdle(t, s)
}

// TestBlockprocSpuriousWake arms the SiteBlockSleep fault site at 100%:
// every blockproc sleep receives a stale wake token before going down.
// The sleep loop must absorb it — re-check the count, go back to sleep —
// and still wake correctly on the real unblock. The parent unblocks only
// once the sleeper is asleep in blockproc: an unblock banked before the
// block pays for it without a sleep, and the site is never reached.
func TestBlockprocSpuriousWake(t *testing.T) {
	s := NewSystem(testConfig())
	plan := faultinject.New(7, 0)
	plan.SetRate(faultinject.SiteBlockSleep, 1000)
	s.ArmFaults(plan)
	var woke atomic.Bool
	s.Start("parent", func(c *Context) {
		gateVA := vm.DataBase
		pid, _ := c.Sproc("sleeper", func(cc *Context, _ int64) {
			cc.Store32(gateVA, 1)
			if err := cc.Blockproc(0); err != nil {
				t.Errorf("blockproc under spurious wake: %v", err)
				return
			}
			woke.Store(true)
		}, proc.PRSALL, 0)
		c.SpinWait32(gateVA, func(v uint32) bool { return v == 1 })
		waitAsleep(c, []int{pid})
		c.Unblockproc(pid)
		c.Wait()
	})
	waitIdle(t, s)
	if !woke.Load() {
		t.Fatal("sleeper never resumed")
	}
	if plan.Injected(faultinject.SiteBlockSleep) == 0 {
		t.Error("fault plan armed at 1000‰ but injected nothing — site not wired")
	}
}

// TestSpinWaitSignalInterrupt is the headline bugfix: a pure spin wait on
// a word that will never change must be interruptible by a caught signal
// (EINTR) rather than spinning forever.
func TestSpinWaitSignalInterrupt(t *testing.T) {
	s := NewSystem(testConfig())
	var gotEINTR atomic.Bool
	s.Start("parent", func(c *Context) {
		gateVA := vm.DataBase
		pid, _ := c.Sproc("spinner", func(cc *Context, _ int64) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			cc.Store32(gateVA, 1)
			// vm.DataBase+64 stays 0 forever: only the signal ends this.
			_, err := cc.SpinWait32(vm.DataBase+64, func(v uint32) bool { return v != 0 })
			if errors.Is(err, ErrInterrupt) {
				gotEINTR.Store(true)
			} else {
				t.Errorf("SpinWait32 after signal = %v, want ErrInterrupt", err)
			}
		}, proc.PRSALL, 0)
		c.SpinWait32(gateVA, func(v uint32) bool { return v == 1 })
		c.Kill(pid, proc.SIGUSR1)
		c.Wait()
	})
	waitIdle(t, s)
	if !gotEINTR.Load() {
		t.Fatal("signal did not interrupt the spin")
	}
}
