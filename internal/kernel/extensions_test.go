package kernel

import (
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// Tests for the §8 future-work extensions (unshare, per-group gang
// scheduling, group priority) and the ablation switches.

func TestUnshareAttrs(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var unshared, checked atomic.Bool
		c.Sproc("rebel", func(cc *Context, _ int64) {
			if err := cc.Unshare(proc.PRSUMASK | proc.PRSULIMIT); err != nil {
				t.Errorf("unshare: %v", err)
			}
			if cc.P.ShMask()&proc.PRSUMASK != 0 {
				t.Error("umask bit survived unshare")
			}
			if !cc.P.InGroup() {
				t.Error("unshare of attrs removed group membership")
			}
			unshared.Store(true)
			for !checked.Load() {
				cc.Getpid()
			}
			// The rebel no longer follows the group's umask.
			cc.P.Mu.Lock()
			um := cc.P.Umask
			cc.P.Mu.Unlock()
			if um == 0o077 {
				t.Error("unshared member still received umask update")
			}
		}, proc.PRSALL, 0)
		for !unshared.Load() {
			c.Getpid()
		}
		c.Umask(0o077) // must not reach the rebel
		checked.Store(true)
		c.Wait()
	})
	waitIdle(t, s)
}

func TestUnshareVM(t *testing.T) {
	s := NewSystem(testConfig())
	const va = vm.DataBase
	s.Start("creator", func(c *Context) {
		c.Store32(va, 1)
		var unshared, wrote atomic.Bool
		c.Sproc("rebel", func(cc *Context, _ int64) {
			if v, _ := cc.Load32(va); v != 1 {
				t.Errorf("rebel pre-unshare read %d", v)
			}
			stackWord := cc.StackBase() + 64
			cc.Store32(stackWord, 0xcafe)
			if err := cc.Unshare(proc.PRSADDR); err != nil {
				t.Errorf("unshare VM: %v", err)
			}
			// The COW image preserves everything it could see,
			// including its own stack contents.
			if v, _ := cc.Load32(va); v != 1 {
				t.Errorf("rebel post-unshare read %d", v)
			}
			if v, _ := cc.Load32(stackWord); v != 0xcafe {
				t.Errorf("rebel stack lost on unshare: %#x", v)
			}
			unshared.Store(true)
			// Writes no longer reach the group.
			cc.Store32(va, 99)
			wrote.Store(true)
		}, proc.PRSALL, 0)
		for !unshared.Load() || !wrote.Load() {
			c.Getpid()
		}
		c.Wait()
		if v, _ := c.Load32(va); v != 1 {
			t.Errorf("unshared member's write leaked into group: %d", v)
		}
		// And the group's writes don't reach... (member gone; check that
		// the group still works at all.)
		c.Store32(va, 2)
		if v, _ := c.Load32(va); v != 2 {
			t.Error("group space broken after unshare")
		}
	})
	waitIdle(t, s)
	if used := s.Machine.Mem.InUse(); used != 0 {
		t.Fatalf("%d frames leaked", used)
	}
}

func TestPrctlGangAndGroupPrio(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		if err := c.SetGang(true); err == nil {
			t.Error("PR_SETGANG outside group accepted")
		}
		c.Sproc("m", func(cc *Context, _ int64) {
			for cc.P.Prio.Load() != 7 {
				cc.Getpid()
			}
		}, proc.PRSALL, 0)
		if err := c.SetGang(true); err != nil {
			t.Errorf("PR_SETGANG: %v", err)
		}
		sa := GroupOf(c.P)
		if !sa.Gang() {
			t.Error("gang flag not set")
		}
		if err := c.SetGroupPrio(7); err != nil {
			t.Errorf("PR_GROUPPRIO: %v", err)
		}
		if c.P.Prio.Load() != 7 {
			t.Errorf("creator prio = %d", c.P.Prio.Load())
		}
		c.Wait() // member loops until it observes prio 7
	})
	waitIdle(t, s)
}

func TestEagerAttrSyncAblation(t *testing.T) {
	cfg := testConfig()
	cfg.EagerAttrSync = true
	s := NewSystem(cfg)
	s.Start("creator", func(c *Context) {
		var hold atomic.Bool
		c.Sproc("m", func(cc *Context, _ int64) {
			for !hold.Load() {
				cc.Getpid()
			}
			// No kernel entry needed: the update was pushed.
			cc.P.Mu.Lock()
			um := cc.P.Umask
			cc.P.Mu.Unlock()
			if um != 0o031 {
				t.Errorf("eager push missed: umask %o", um)
			}
			if cc.P.Flag.Load()&proc.FSyncAny != 0 {
				t.Error("eager mode left sync bits")
			}
		}, proc.PRSALL, 0)
		c.Umask(0o031)
		hold.Store(true)
		c.Wait()
	})
	waitIdle(t, s)
}

func TestExclusiveVMLockAblation(t *testing.T) {
	cfg := testConfig()
	cfg.ExclusiveVMLock = true
	s := NewSystem(cfg)
	s.Start("creator", func(c *Context) {
		va, _ := c.Mmap(16)
		done := make(chan struct{}, 2)
		for i := 0; i < 2; i++ {
			c.Sproc("faulter", func(cc *Context, arg int64) {
				for p := 0; p < 8; p++ {
					cc.Store32(va+hw.VAddr(int(arg)*8*4096+p*4096), 1)
				}
				done <- struct{}{}
			}, proc.PRSALL, int64(i))
		}
		<-done
		<-done
		c.Wait()
		c.Wait()
		sa := GroupOf(c.P)
		// In exclusive mode every fault took the update lock.
		if sa.Acc.RLocks.Load() > 0 && sa.Acc.WLocks.Load() == 0 {
			t.Error("exclusive ablation did not use the exclusive lock")
		}
	})
	waitIdle(t, s)
}
