package kernel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// System-wide stress: several share groups, plain forkers and exec chains
// churn concurrently; afterwards the machine must be fully reclaimed.
func TestSystemStress(t *testing.T) {
	cfg := testConfig()
	cfg.MaxProcs = 128
	s := NewSystem(cfg)

	var groupSums atomic.Int64
	const groups = 3
	for g := 0; g < groups; g++ {
		s.Start(fmt.Sprintf("group-%d", g), func(c *Context) {
			shm, err := c.Mmap(2)
			if err != nil {
				t.Errorf("mmap: %v", err)
				return
			}
			const members, per = 3, 100
			for m := 0; m < members; m++ {
				c.Sproc("w", func(cc *Context, _ int64) {
					for i := 0; i < per; i++ {
						cc.Add32(shm, 1)
						if i%25 == 0 {
							cc.Getpid() // sync checkpoints
						}
					}
				}, proc.PRSALL, int64(m))
			}
			for m := 0; m < members; m++ {
				c.Wait()
			}
			v, _ := c.Load32(shm)
			groupSums.Add(int64(v))
			c.Munmap(shm)
		})
	}

	var forked atomic.Int64
	s.Start("forker", func(c *Context) {
		for i := 0; i < 20; i++ {
			_, err := c.Fork("kid", func(cc *Context) {
				cc.Store32(vm.DataBase, 1)
				cc.Exit(int(cc.Load32AndIgnore(vm.DataBase)))
			})
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			if _, status, err := c.Wait(); err != nil || status != 1 {
				t.Errorf("wait %d = (%d,%v)", i, status, err)
			}
			forked.Add(1)
		}
	})

	var execs atomic.Int64
	s.Start("execer", func(c *Context) {
		var chain func(depth int) Main
		chain = func(depth int) Main {
			return func(cc *Context) {
				execs.Add(1)
				if depth == 0 {
					return
				}
				cc.Creat(fmt.Sprintf("/gen%d", depth), 0o644)
				cc.Exec("next", chain(depth-1))
			}
		}
		chain(6)(c)
	})

	waitIdle(t, s)
	if got := groupSums.Load(); got != groups*3*100 {
		t.Errorf("group sums = %d, want %d", got, groups*3*100)
	}
	if forked.Load() != 20 {
		t.Errorf("forked = %d", forked.Load())
	}
	if execs.Load() != 7 {
		t.Errorf("exec chain ran %d images", execs.Load())
	}
}

func TestDup2(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("p", func(c *Context) {
		fd, _ := c.Open("/log", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
		other, _ := c.Creat("/other", 0o644)
		// Redirect "other" onto the log file.
		got, err := c.Dup2(fd, other)
		if err != nil || got != other {
			t.Errorf("Dup2 = (%d,%v)", got, err)
		}
		c.WriteString(other, vm.DataBase, "redirected")
		st, _ := c.Stat("/log")
		if st.Size != 10 {
			t.Errorf("log size = %d", st.Size)
		}
		if st2, _ := c.Stat("/other"); st2.Size != 0 {
			t.Errorf("other size = %d (write went to wrong file)", st2.Size)
		}
		// Self-dup is a no-op; bad targets are rejected.
		if got, err := c.Dup2(fd, fd); err != nil || got != fd {
			t.Errorf("self Dup2 = (%d,%v)", got, err)
		}
		if _, err := c.Dup2(fd, proc.NOFILE); !errors.Is(err, fs.ErrBadFd) {
			t.Errorf("oob Dup2: %v", err)
		}
		if _, err := c.Dup2(55, 3); !errors.Is(err, fs.ErrBadFd) {
			t.Errorf("bad src Dup2: %v", err)
		}
	})
	waitIdle(t, s)
}

func TestMmapPrivateInGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		done := make(chan struct{})
		probe := make(chan uint32, 1)
		var privVA atomic.Uint32
		c.Sproc("m", func(cc *Context, _ int64) {
			defer close(done)
			va, err := cc.MmapPrivate(2)
			if err != nil {
				t.Errorf("MmapPrivate: %v", err)
				return
			}
			cc.Store32(va, 0xbeef)
			privVA.Store(uint32(va))
			// Stay alive until the creator has probed.
			<-probe
			if v, _ := cc.Load32(va); v != 0xbeef {
				t.Errorf("member lost private mapping: %#x", v)
			}
		}, proc.PRSALL, 0)
		for privVA.Load() == 0 {
			c.Getpid()
		}
		// The creator shares the address space yet must NOT see the
		// member's private mapping (SEGV → error with handler).
		c.Signal(proc.SIGSEGV, func(int) {})
		if _, err := c.Load32(hw.VAddr(privVA.Load())); err == nil {
			t.Error("private mapping visible to another member")
		}
		probe <- 1
		<-done
		c.Wait()
	})
	waitIdle(t, s)
}

func TestTextIsWriteProtected(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("solo", func(c *Context) {
		c.Signal(proc.SIGSEGV, func(int) {})
		if _, err := c.Load32(vm.TextBase); err != nil {
			t.Errorf("text load: %v", err)
		}
		if err := c.Store32(vm.TextBase, 1); err == nil {
			t.Error("store to private text succeeded")
		}
		// Same protection through the shared list.
		done := make(chan struct{})
		c.Sproc("m", func(cc *Context, _ int64) {
			defer close(done)
			cc.Signal(proc.SIGSEGV, func(int) {})
			if err := cc.Store32(vm.TextBase, 1); err == nil {
				t.Error("store to shared text succeeded")
			}
		}, proc.PRSALL, 0)
		<-done
		c.Wait()
	})
	waitIdle(t, s)
}

func TestSEGVWithoutHandlerOnTextStore(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		pid, _ := c.Fork("scribbler", func(cc *Context) {
			cc.Store32(vm.TextBase, 7)
			t.Error("survived text store")
		})
		wpid, status, _ := c.Wait()
		if wpid != pid || status != 128+proc.SIGSEGV {
			t.Errorf("Wait = (%d,%d)", wpid, status)
		}
	})
	waitIdle(t, s)
}

// TestArenaRecycling: sustained map/unmap churn must not march the mapping
// arena toward the end of the 32-bit address space — released ranges are
// reused (the failure mode is address wrap-around after ~4000 rounds).
func TestArenaRecycling(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("churner", func(c *Context) {
		// Group path.
		c.Sproc("m", func(cc *Context, _ int64) {}, proc.PRSALL, 0)
		c.Wait()
		first, err := c.Mmap(8)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		c.Munmap(first)
		for i := 0; i < 500; i++ {
			va, err := c.Mmap(8)
			if err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
			if va != first {
				t.Errorf("round %d: range not recycled (%#x vs %#x)", i, uint32(va), uint32(first))
				return
			}
			c.Store32(va, uint32(i))
			if err := c.Munmap(va); err != nil {
				t.Errorf("munmap %d: %v", i, err)
				return
			}
		}
	})
	s.Start("solo-churner", func(c *Context) {
		first, _ := c.Mmap(4)
		c.Munmap(first)
		for i := 0; i < 500; i++ {
			va, _ := c.Mmap(4)
			if va != first {
				t.Errorf("solo round %d: not recycled", i)
				return
			}
			c.Munmap(va)
		}
	})
	waitIdle(t, s)
}
