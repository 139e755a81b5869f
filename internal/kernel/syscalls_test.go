package kernel

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// Integration tests for the wider syscall surface: pipes, System V IPC,
// sockets, descriptor-table details, and error paths.

func TestPipeSyscallAcrossFork(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		rfd, wfd, err := c.Pipe()
		if err != nil {
			t.Errorf("Pipe: %v", err)
			return
		}
		c.Fork("writer", func(cc *Context) {
			cc.Close(rfd)
			cc.WriteString(wfd, vm.DataBase, "through the queue")
			cc.Close(wfd)
		})
		c.Close(wfd)
		got, err := c.ReadString(rfd, vm.DataBase, 64)
		if err != nil || got != "through the queue" {
			t.Errorf("read = (%q,%v)", got, err)
		}
		// All writers closed: EOF.
		if n, err := c.Read(rfd, vm.DataBase, 8); n != 0 || err != nil {
			t.Errorf("EOF = (%d,%v)", n, err)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

func TestPipeSharedThroughGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		rfd, wfd, err := c.Pipe()
		if err != nil {
			t.Errorf("Pipe: %v", err)
			return
		}
		c.Sproc("writer", func(cc *Context, _ int64) {
			// The descriptors are shared, not copied: same table slots.
			cc.WriteString(wfd, cc.StackBase(), "group pipe")
		}, proc.PRSALL, 0)
		got, err := c.ReadString(rfd, vm.DataBase, 32)
		if err != nil || got != "group pipe" {
			t.Errorf("read = (%q,%v)", got, err)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

func TestMsgQueueSyscalls(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		id := c.Msgget(77)
		if c.Msgget(77) != id {
			t.Error("key not stable")
		}
		c.Fork("consumer", func(cc *Context) {
			n, typ, err := cc.Msgrcv(id, 2, vm.DataBase, 64)
			if err != nil || typ != 2 {
				t.Errorf("Msgrcv = (%d,%d,%v)", n, typ, err)
				return
			}
			buf := make([]byte, n)
			cc.LoadBytes(vm.DataBase, buf)
			if string(buf) != "typed" {
				t.Errorf("got %q", buf)
			}
		})
		c.StoreBytes(vm.DataBase, []byte("typed"))
		if err := c.Msgsnd(id, 2, vm.DataBase, 5); err != nil {
			t.Errorf("Msgsnd: %v", err)
		}
		c.Wait()
		if _, _, err := c.Msgrcv(999, 0, vm.DataBase, 8); err == nil {
			t.Error("recv on bad id succeeded")
		}
	})
	waitIdle(t, s)
}

func TestSemSyscalls(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		id := c.Semget(5, 1)
		c.Semop(id, 0, 1)
		var order atomic.Int32
		c.Fork("waiter", func(cc *Context) {
			cc.Semop(id, 0, -2) // blocks until parent adds one more
			if order.Load() != 1 {
				t.Error("semop returned before V")
			}
			order.Store(2)
		})
		for i := 0; i < 50; i++ {
			c.Getpid() // let the child reach the sleep
		}
		order.Store(1)
		c.Semop(id, 0, 1)
		c.Wait()
		if order.Load() != 2 {
			t.Error("waiter never completed")
		}
		if err := c.Semop(999, 0, 1); err == nil {
			t.Error("semop on bad id succeeded")
		}
	})
	waitIdle(t, s)
}

func TestShmSyscallsAcrossProcesses(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		id := c.Shmget(9, 2)
		va, err := c.Shmat(id)
		if err != nil {
			t.Errorf("Shmat: %v", err)
			return
		}
		c.Store32(va, 1234)
		var childSaw atomic.Uint32
		c.Fork("peer", func(cc *Context) {
			cva, err := cc.Shmat(id) // second attachment, own address
			if err != nil {
				t.Errorf("child Shmat: %v", err)
				return
			}
			v, _ := cc.Load32(cva)
			childSaw.Store(v)
			cc.Store32(cva+4, 4321)
			cc.Munmap(cva)
		})
		c.Wait()
		if childSaw.Load() != 1234 {
			t.Errorf("child saw %d", childSaw.Load())
		}
		if v, _ := c.Load32(va + 4); v != 4321 {
			t.Errorf("parent missed child write: %d", v)
		}
		if err := c.Munmap(va); err != nil {
			t.Errorf("Munmap: %v", err)
		}
		if err := c.ShmRemove(id); err != nil {
			t.Errorf("ShmRemove: %v", err)
		}
	})
	waitIdle(t, s)
}

func TestDupSharesOffsetAndPropagates(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		fd, _ := c.Open("/f", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
		dup, err := c.Dup(fd)
		if err != nil {
			t.Errorf("Dup: %v", err)
			return
		}
		c.WriteString(fd, vm.DataBase, "abc")
		c.WriteString(dup, vm.DataBase, "def") // shared offset appends
		st, _ := c.Stat("/f")
		if st.Size != 6 {
			t.Errorf("size = %d, want 6 (shared offset)", st.Size)
		}
		// The dup propagates to a sharing member.
		var ok atomic.Bool
		done := make(chan struct{})
		c.Sproc("m", func(cc *Context, _ int64) {
			defer close(done)
			cc.P.Mu.Lock()
			_, err := cc.P.GetFd(dup)
			cc.P.Mu.Unlock()
			ok.Store(err == nil)
		}, proc.PRSALL, 0)
		<-done
		c.Wait()
		if !ok.Load() {
			t.Error("dup'd descriptor not visible to member")
		}
	})
	waitIdle(t, s)
}

func TestReadWriteErrorPaths(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("p", func(c *Context) {
		if _, err := c.Read(42, vm.DataBase, 8); !errors.Is(err, fs.ErrBadFd) {
			t.Errorf("read bad fd: %v", err)
		}
		if _, err := c.Write(42, vm.DataBase, 8); !errors.Is(err, fs.ErrBadFd) {
			t.Errorf("write bad fd: %v", err)
		}
		if _, err := c.Lseek(42, 0, fs.SeekSet); !errors.Is(err, fs.ErrBadFd) {
			t.Errorf("lseek bad fd: %v", err)
		}
		// Write from an unmapped buffer faults (handler installed so the
		// process survives to report).
		c.Signal(proc.SIGSEGV, func(int) {})
		fd, _ := c.Creat("/x", 0o644)
		if _, err := c.Write(fd, 0x6f00_0000, 8); err == nil {
			t.Error("write from unmapped buffer succeeded")
		}
		if err := c.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := c.Close(fd); !errors.Is(err, fs.ErrBadFd) {
			t.Errorf("double close: %v", err)
		}
	})
	waitIdle(t, s)
}

func TestSbrkErrors(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("p", func(c *Context) {
		brk := c.Brk()
		if brk != vm.DataBase+hw.VAddr(s.Config().DataPages*hw.PageSize) {
			t.Errorf("initial brk = %#x", uint32(brk))
		}
		if _, err := c.Sbrk(-int64(s.Config().DataPages+1) * hw.PageSize); err == nil {
			t.Error("shrinking below zero succeeded")
		}
		if old, err := c.Sbrk(0); err != nil || old != brk {
			t.Errorf("sbrk(0) = (%#x,%v)", uint32(old), err)
		}
	})
	waitIdle(t, s)
}

func TestSigmask(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("p", func(c *Context) {
		var got atomic.Int32
		c.Signal(proc.SIGUSR1, func(int) { got.Add(1) })
		old := c.sigmask(1 << proc.SIGUSR1)
		if old != 0 {
			t.Errorf("old mask = %#x", old)
		}
		c.P.Post(proc.SIGUSR1)
		for i := 0; i < 20; i++ {
			c.Getpid()
		}
		if got.Load() != 0 {
			t.Error("masked signal delivered")
		}
		c.sigmask(0)
		c.Getpid()
		if got.Load() != 1 {
			t.Errorf("unmasked deliveries = %d", got.Load())
		}
		// SIGKILL cannot be masked.
		if m := c.sigmask(^uint32(0)); m != 0 {
			t.Errorf("mask = %#x", m)
		}
		c.P.Mu.Lock()
		km := c.P.SigMask
		c.P.Mu.Unlock()
		if km&(1<<proc.SIGKILL) != 0 {
			t.Error("SIGKILL maskable")
		}
	})
	waitIdle(t, s)
}

func TestChrootInGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		c.Mkdir("/jail", 0o755)
		c.Mkdir("/jail/home", 0o755)
		var moved atomic.Bool
		done := make(chan struct{})
		c.Sproc("m", func(cc *Context, _ int64) {
			defer close(done)
			for !moved.Load() {
				cc.Getpid()
			}
			cc.Getpid() // sync point
			// The member's absolute paths now resolve inside the jail.
			if _, err := cc.Stat("/home"); err != nil {
				t.Errorf("member not jailed: %v", err)
			}
		}, proc.PRSALL, 0)
		if err := c.Chroot("/jail"); err != nil {
			t.Errorf("chroot: %v", err)
		}
		moved.Store(true)
		<-done
		c.Wait()
	})
	waitIdle(t, s)
}

func TestQuickStrictInheritance(t *testing.T) {
	// E9 property: along any sproc chain, a child's share mask is always
	// a subset of its parent's, whatever masks are requested.
	f := func(reqs []uint32) bool {
		if len(reqs) > 5 {
			reqs = reqs[:5]
		}
		cfg := testConfig()
		s := NewSystem(cfg)
		okc := make(chan bool, 1)
		s.Start("root", func(c *Context) {
			var spawn func(cc *Context, depth int) bool
			spawn = func(cc *Context, depth int) bool {
				if depth >= len(reqs) {
					return true
				}
				parentMask := cc.P.ShMask()
				if !cc.P.InGroup() {
					parentMask = proc.PRSALL // first sproc creates the group
				}
				res := make(chan bool, 1)
				req := proc.Mask(reqs[depth]) & proc.PRSALL
				_, err := cc.Sproc("kid", func(k *Context, _ int64) {
					if k.P.ShMask()&^parentMask != 0 {
						res <- false
						return
					}
					if k.P.ShMask() != req&parentMask {
						res <- false
						return
					}
					res <- spawn(k, depth+1)
				}, req, 0)
				if err != nil {
					return false
				}
				// Wait through the simulated kernel first: it releases
				// this process's CPU, so a deep sproc chain cannot
				// exhaust the machine's processors while parents block.
				cc.Wait()
				return <-res
			}
			okc <- spawn(c, 0)
		})
		s.WaitIdle()
		return <-okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestThreadCreateInsideGroupKeepsMask(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		done := make(chan struct{})
		c.Sproc("limited", func(cc *Context, _ int64) {
			defer close(done)
			// A "thread" from a limited member can only share what the
			// member shares: strict inheritance applies to threads too.
			res := make(chan proc.Mask, 1)
			cc.ThreadCreate("t", func(tc *Context, _ int64) {
				res <- tc.P.ShMask()
			}, 0)
			if m := <-res; m != proc.PRSFDS {
				t.Errorf("thread mask = %v, want PR_SFDS", m)
			}
			cc.Wait()
		}, proc.PRSFDS, 0)
		<-done
		c.Wait()
	})
	waitIdle(t, s)
}

func TestWriteToReadOnlyTextFaults(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("p", func(c *Context) {
		// Text is readable...
		if _, err := c.Load32(vm.TextBase); err != nil {
			t.Errorf("text read: %v", err)
		}
		// ...and in this simulation also writable by its sole owner, but
		// after a fork the text region is SHARED, so a write must not be
		// possible to see from the child if COW semantics were violated.
		// (Text sharing on fork is exercised here.)
		c.Fork("kid", func(cc *Context) {
			if _, err := cc.Load32(vm.TextBase); err != nil {
				t.Errorf("child text read: %v", err)
			}
		})
		c.Wait()
	})
	waitIdle(t, s)
}
