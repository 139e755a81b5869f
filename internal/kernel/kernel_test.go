package kernel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// testConfig keeps slices short so preemption and contention happen even
// in small tests.
func testConfig() Config {
	return Config{NCPU: 4, MemFrames: 8192, TimeSlice: 500}
}

// waitIdle waits for every process to exit, failing the test on deadlock
// or on an idle law WaitIdle finds broken.
func waitIdle(t *testing.T, s *System) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.WaitIdle()
	}()
	select {
	case r := <-done:
		if r != nil {
			t.Fatal(r)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("system did not go idle (deadlock?)")
	}
}

func TestRunExitWait(t *testing.T) {
	s := NewSystem(testConfig())
	var ran atomic.Bool
	s.Start("init", func(c *Context) {
		ran.Store(true)
		if c.Getpid() != 1 {
			t.Errorf("pid = %d, want 1", c.Getpid())
		}
		c.Exit(7)
		t.Error("unreachable after Exit")
	})
	waitIdle(t, s)
	if !ran.Load() {
		t.Fatal("program never ran")
	}
}

func TestForkWaitStatus(t *testing.T) {
	s := NewSystem(testConfig())
	var childPid atomic.Int64
	s.Start("parent", func(c *Context) {
		pid, err := c.Fork("child", func(cc *Context) {
			childPid.Store(int64(cc.Getpid()))
			cc.P.Mu.Lock()
			ppid := cc.P.PPID
			cc.P.Mu.Unlock()
			if ppid != 1 {
				t.Errorf("child ppid = %d", ppid)
			}
			cc.Exit(42)
		})
		if err != nil {
			t.Errorf("Fork: %v", err)
			return
		}
		wpid, status, err := c.Wait()
		if err != nil || wpid != pid || status != 42 {
			t.Errorf("Wait = (%d,%d,%v), want (%d,42,nil)", wpid, status, err, pid)
		}
		if _, _, err := c.Wait(); !errors.Is(err, ErrNoChildren) {
			t.Errorf("second Wait: %v", err)
		}
	})
	waitIdle(t, s)
	if childPid.Load() != 2 {
		t.Fatalf("child pid = %d", childPid.Load())
	}
}

func TestForkCopyOnWriteIsolation(t *testing.T) {
	s := NewSystem(testConfig())
	const va = vm.DataBase
	s.Start("parent", func(c *Context) {
		if err := c.Store32(va, 100); err != nil {
			t.Errorf("parent store: %v", err)
		}
		c.Fork("child", func(cc *Context) {
			if v, _ := cc.Load32(va); v != 100 {
				t.Errorf("child sees %d, want parent's 100", v)
			}
			cc.Store32(va, 200)
			if v, _ := cc.Load32(va); v != 200 {
				t.Errorf("child lost own write: %d", v)
			}
			cc.Exit(0)
		})
		c.Wait()
		if v, _ := c.Load32(va); v != 100 {
			t.Errorf("child write leaked into parent: %d", v)
		}
		// Parent writes after child exits: still works (sole owner again).
		c.Store32(va, 300)
		if v, _ := c.Load32(va); v != 300 {
			t.Errorf("parent post-fork write: %d", v)
		}
	})
	waitIdle(t, s)
}

func TestSprocSharedMemory(t *testing.T) {
	s := NewSystem(testConfig())
	const flag = vm.DataBase
	const data = vm.DataBase + 4
	s.Start("creator", func(c *Context) {
		c.Store32(data, 0)
		_, err := c.Sproc("member", func(cc *Context, arg int64) {
			if arg != 77 {
				t.Errorf("sproc arg = %d", arg)
			}
			cc.Store32(data, 555)
			cc.Store32(flag, 1)
		}, proc.PRSALL, 77)
		if err != nil {
			t.Errorf("Sproc: %v", err)
			return
		}
		// Busy-wait on shared memory — the paper's synchronization style.
		for {
			v, err := c.Load32(flag)
			if err != nil {
				t.Errorf("load flag: %v", err)
				return
			}
			if v == 1 {
				break
			}
		}
		if v, _ := c.Load32(data); v != 555 {
			t.Errorf("shared write not visible: %d", v)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

func TestSprocStackVisibleToGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var stackVA atomic.Uint32
		var ready atomic.Bool
		c.Sproc("member", func(cc *Context, _ int64) {
			// Write a "local variable" on the child's stack and pass
			// its address to the parent (the paper's §5.1 scenario).
			va := cc.StackBase() + 64
			cc.Store32(va, 0xfeed)
			stackVA.Store(uint32(va))
			ready.Store(true)
			// Hold the stack alive until the parent reads it.
			for cc.Load32AndIgnore(va) != 0xdead {
			}
		}, proc.PRSALL, 0)
		for !ready.Load() {
			c.Load32(vm.DataBase) // burn cycles, stay preemptible
		}
		va := hw.VAddr(stackVA.Load())
		if v, _ := c.Load32(va); v != 0xfeed {
			t.Errorf("parent cannot read child stack: %#x", v)
		}
		c.Store32(va, 0xdead) // release the child
		c.Wait()
	})
	waitIdle(t, s)
}

func TestStrictInheritance(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		// Child shares only fds; its own child requests everything but
		// may only get fds.
		c.Sproc("limited", func(cc *Context, _ int64) {
			if cc.P.ShMask() != proc.PRSFDS {
				t.Errorf("limited mask = %v", cc.P.ShMask())
			}
			cc.Sproc("grandchild", func(g *Context, _ int64) {
				if g.P.ShMask() != proc.PRSFDS {
					t.Errorf("grandchild mask = %v, want PR_SFDS only (strict inheritance)", g.P.ShMask())
				}
			}, proc.PRSALL, 0)
			cc.Wait()
		}, proc.PRSFDS, 0)
		c.Wait()
	})
	waitIdle(t, s)
}

func TestSprocSharedFds(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var childFd atomic.Int64
		childFd.Store(-1)
		c.Sproc("opener", func(cc *Context, _ int64) {
			fd, err := cc.Open("/shared.txt", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
			if err != nil {
				t.Errorf("child open: %v", err)
				return
			}
			cc.WriteString(fd, cc.StackBase(), "from child")
			childFd.Store(int64(fd))
		}, proc.PRSALL, 0)
		for childFd.Load() < 0 {
			c.Getpid() // kernel entries let the sync bits land
		}
		c.Wait()
		// After a kernel entry the descriptor must be visible here.
		fd := int(childFd.Load())
		c.Getpid()
		c.P.Mu.Lock()
		f, err := c.P.GetFd(fd)
		c.P.Mu.Unlock()
		if err != nil {
			t.Errorf("parent does not see child's fd %d: %v", fd, err)
			return
		}
		if f.Offset() != int64(len("from child")) {
			t.Errorf("shared offset = %d", f.Offset())
		}
		// The descriptor works: seek and read through it.
		if _, err := c.Lseek(fd, 0, fs.SeekSet); err != nil {
			t.Errorf("lseek: %v", err)
		}
		got, err := c.ReadString(fd, vm.DataBase, 32)
		if err != nil || got != "from child" {
			t.Errorf("read through shared fd = (%q,%v)", got, err)
		}
	})
	waitIdle(t, s)
}

func TestSprocNoVMShareIsCOW(t *testing.T) {
	s := NewSystem(testConfig())
	const va = vm.DataBase
	s.Start("creator", func(c *Context) {
		c.Store32(va, 1)
		var done atomic.Bool
		c.Sproc("cow-child", func(cc *Context, _ int64) {
			if v, _ := cc.Load32(va); v != 1 {
				t.Errorf("cow child sees %d", v)
			}
			cc.Store32(va, 2)
			done.Store(true)
		}, proc.PRSFDS, 0) // no PR_SADDR
		for !done.Load() {
			c.Getpid()
		}
		c.Wait()
		if v, _ := c.Load32(va); v != 1 {
			t.Errorf("non-VM-sharing child's write leaked: %d", v)
		}
	})
	waitIdle(t, s)
}

func TestChdirPropagation(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		c.Mkdir("/work", 0o755)
		var moved, checked atomic.Bool
		c.Sproc("mover", func(cc *Context, _ int64) {
			if err := cc.Chdir("/work"); err != nil {
				t.Errorf("chdir: %v", err)
			}
			moved.Store(true)
			for !checked.Load() {
				cc.Getpid()
			}
		}, proc.PRSALL, 0)
		for !moved.Load() {
			c.Getpid()
		}
		// One kernel entry later, a relative create lands in /work.
		if _, err := c.Creat("hello", 0o644); err != nil {
			t.Errorf("relative creat: %v", err)
		}
		if _, err := c.Stat("/work/hello"); err != nil {
			t.Errorf("file not in propagated cwd: %v", err)
		}
		checked.Store(true)
		c.Wait()
	})
	waitIdle(t, s)
}

func TestUmaskAndUlimitPropagation(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var set, verified atomic.Bool
		c.Sproc("setter", func(cc *Context, _ int64) {
			cc.Umask(0o077)
			cc.Ulimit(2, 100)
			set.Store(true)
			for !verified.Load() {
				cc.Getpid()
			}
		}, proc.PRSALL, 0)
		for !set.Load() {
			c.Getpid()
		}
		c.Getpid() // sync point
		c.P.Mu.Lock()
		umask, ulimit := c.P.Umask, c.P.Ulimit
		c.P.Mu.Unlock()
		if umask != 0o077 {
			t.Errorf("umask not propagated: %o", umask)
		}
		if ulimit != 100 {
			t.Errorf("ulimit not propagated: %d", ulimit)
		}
		// The propagated ulimit is enforced.
		fd, _ := c.Creat("/big", 0o644)
		if err := c.StoreBytes(vm.DataBase, make([]byte, 200)); err != nil {
			t.Errorf("store: %v", err)
		}
		if _, err := c.Write(fd, vm.DataBase, 200); !errors.Is(err, fs.ErrFileLimit) {
			t.Errorf("ulimit write: %v", err)
		}
		verified.Store(true)
		c.Wait()
	})
	waitIdle(t, s)
}

func TestSetuidPropagation(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var set atomic.Bool
		c.Sproc("setter", func(cc *Context, _ int64) {
			if err := cc.Setuid(42); err != nil {
				t.Errorf("setuid: %v", err)
			}
			set.Store(true)
		}, proc.PRSALL, 0)
		for !set.Load() {
			c.Getpid()
		}
		c.Wait()
		if uid := c.Getuid(); uid != 42 {
			t.Errorf("uid not propagated: %d", uid)
		}
	})
	waitIdle(t, s)
}

func TestExecLeavesGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		done := make(chan struct{})
		c.Sproc("execer", func(cc *Context, _ int64) {
			fd, _ := cc.Creat("/keep", 0o644)
			cfd, _ := cc.Creat("/lose", 0o644)
			cc.SetCloseOnExec(cfd, true)
			cc.Exec("newimage", func(n *Context) {
				defer close(done)
				if n.P.InGroup() {
					t.Error("exec'd process still in share group")
				}
				if n.P.ShMask() != 0 {
					t.Error("share mask survived exec")
				}
				n.P.Mu.Lock()
				_, errKeep := n.P.GetFd(fd)
				_, errLose := n.P.GetFd(cfd)
				n.P.Mu.Unlock()
				if errKeep != nil {
					t.Error("plain fd did not survive exec")
				}
				if errLose == nil {
					t.Error("close-on-exec fd survived exec")
				}
				// Fresh image: data region is zeroed.
				if v, _ := n.Load32(vm.DataBase); v != 0 {
					t.Errorf("exec image not fresh: %d", v)
				}
			})
		}, proc.PRSALL, 0)
		c.Store32(vm.DataBase, 7) // group data, must not leak into image
		<-done
		c.Wait()
		if c.P.ShareGrp() == nil {
			t.Error("creator lost its group")
		}
	})
	waitIdle(t, s)
}

func TestGroupSurvivesCreatorExit(t *testing.T) {
	s := NewSystem(testConfig())
	var finished atomic.Int32
	s.Start("creator", func(c *Context) {
		for i := 0; i < 3; i++ {
			c.Sproc("worker", func(cc *Context, arg int64) {
				// Workers outlive the creator.
				for j := 0; j < 50; j++ {
					cc.Add32(vm.DataBase, 1)
				}
				finished.Add(1)
			}, proc.PRSALL, int64(i))
		}
		// Exit without waiting: children are orphaned but the share
		// group (and its address space) must survive.
	})
	waitIdle(t, s)
	if finished.Load() != 3 {
		t.Fatalf("finished = %d", finished.Load())
	}
}

func TestSignalsDefaultAndHandler(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		pid, _ := c.Fork("victim", func(cc *Context) {
			for {
				cc.Getpid()
			}
		})
		c.Kill(pid, proc.SIGTERM)
		wpid, status, err := c.Wait()
		if err != nil || wpid != pid || status != 128+proc.SIGTERM {
			t.Errorf("Wait = (%d,%d,%v)", wpid, status, err)
		}

		// Handler: child catches SIGUSR1 and exits gracefully.
		var caught atomic.Bool
		pid2, _ := c.Fork("catcher", func(cc *Context) {
			cc.Signal(proc.SIGUSR1, func(sig int) {
				caught.Store(true)
				cc.P.Post(proc.SIGTERM) // then die on the next delivery
			})
			for {
				cc.Getpid()
			}
		})
		c.Kill(pid2, proc.SIGUSR1)
		c.Wait()
		if !caught.Load() {
			t.Error("handler did not run")
		}
	})
	waitIdle(t, s)
}

func TestPauseInterruptedBySignal(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		var woke atomic.Bool
		pid, _ := c.Fork("pauser", func(cc *Context) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			if err := cc.Pause(); !errors.Is(err, ErrInterrupt) {
				t.Errorf("Pause = %v", err)
			}
			woke.Store(true)
		})
		// A single signal could land at the Signal() syscall's own exit,
		// before Pause begins — the classic pause(2) race that real UNIX
		// has too. Keep signalling until the pauser reports waking.
		for !woke.Load() {
			if err := c.Kill(pid, proc.SIGUSR1); err != nil {
				t.Errorf("kill: %v", err)
				break
			}
		}
		c.Wait()
		if !woke.Load() {
			t.Error("pauser never woke")
		}
	})
	waitIdle(t, s)
}

func TestKillSleepingProcess(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		pid, _ := c.Fork("sleeper", func(cc *Context) {
			cc.Pause() // interruptible sleep
			// SIGKILL latched: death happens on the next kernel crossing.
			cc.Getpid()
			t.Error("sleeper survived SIGKILL")
		})
		for i := 0; i < 50; i++ {
			c.Getpid()
		}
		c.Kill(pid, proc.SIGKILL)
		_, status, _ := c.Wait()
		if status != 128+proc.SIGKILL {
			t.Errorf("status = %d", status)
		}
	})
	waitIdle(t, s)
}

func TestSbrkGrowVisibleToGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		oldBrk := c.Brk()
		var grown, read atomic.Bool
		c.Sproc("grower", func(cc *Context, _ int64) {
			if _, err := cc.Sbrk(8 * hw.PageSize); err != nil {
				t.Errorf("sbrk: %v", err)
			}
			cc.Store32(oldBrk+4, 0xabcd) // write in the new pages
			grown.Store(true)
			for !read.Load() {
				cc.Getpid()
			}
		}, proc.PRSALL, 0)
		for !grown.Load() {
			c.Getpid()
		}
		// The grower has returned from sbrk, so this member must see the
		// new size immediately (paper §5.1 VM rule).
		if v, err := c.Load32(oldBrk + 4); err != nil || v != 0xabcd {
			t.Errorf("growth not visible: (%v,%v)", v, err)
		}
		read.Store(true)
		c.Wait()
	})
	waitIdle(t, s)
}

func TestSbrkShrinkShootsDown(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		end := c.Brk()
		// Touch the last data page so a translation is cached.
		c.Store32(end-hw.PageSize, 9)
		before := s.Machine.ShootdownOps.Load()
		if _, err := c.Sbrk(-hw.PageSize); err != nil {
			t.Errorf("sbrk shrink: %v", err)
		}
		if s.Machine.ShootdownOps.Load() == before {
			t.Error("shrink did not shoot down TLBs")
		}
		// Install a handler so the fault comes back as an error.
		c.Signal(proc.SIGSEGV, func(int) {})
		if _, err := c.Load32(end - hw.PageSize); err == nil {
			t.Error("shrunk page still accessible")
		}
	})
	waitIdle(t, s)
}

func TestMmapMunmapShared(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		va, err := c.Mmap(4)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		var wrote atomic.Bool
		c.Sproc("writer", func(cc *Context, _ int64) {
			cc.Store32(va, 4242) // mapping made before sproc: visible
			wrote.Store(true)
		}, proc.PRSALL, 0)
		for !wrote.Load() {
			c.Getpid()
		}
		c.Wait()
		if v, _ := c.Load32(va); v != 4242 {
			t.Errorf("mmap not shared: %d", v)
		}
		if err := c.Munmap(va); err != nil {
			t.Errorf("munmap: %v", err)
		}
		c.Signal(proc.SIGSEGV, func(int) {})
		if _, err := c.Load32(va); err == nil {
			t.Error("unmapped page accessible")
		}
		if err := c.Munmap(va); !errors.Is(err, ErrNoRegion) {
			t.Errorf("double munmap: %v", err)
		}
	})
	waitIdle(t, s)
}

func TestPRDAIsPrivatePerMember(t *testing.T) {
	s := NewSystem(testConfig())
	const members = 4
	s.Start("creator", func(c *Context) {
		var done atomic.Int32
		for i := 0; i < members; i++ {
			c.Sproc("m", func(cc *Context, arg int64) {
				// Same fixed virtual address in every process.
				cc.Store32(vm.PRDABase, uint32(1000+arg))
				for j := 0; j < 100; j++ {
					if v, _ := cc.Load32(vm.PRDABase); v != uint32(1000+arg) {
						t.Errorf("member %d PRDA clobbered: %d", arg, v)
						break
					}
					cc.Getpid()
				}
				done.Add(1)
			}, proc.PRSALL, int64(i))
		}
		c.Store32(vm.PRDABase, 1)
		for done.Load() != members {
			if v, _ := c.Load32(vm.PRDABase); v != 1 {
				t.Errorf("creator PRDA clobbered: %d", v)
				break
			}
		}
		for i := 0; i < members; i++ {
			c.Wait()
		}
	})
	waitIdle(t, s)
}

func TestSelfSchedulingPoolCAS(t *testing.T) {
	// The paper's §3 model: a preallocated pool of processes
	// self-scheduling work from shared memory with busy-wait sync.
	s := NewSystem(testConfig())
	const workers = 6
	const items = 300
	const counterVA = vm.DataBase
	const nextVA = vm.DataBase + 4
	s.Start("creator", func(c *Context) {
		for w := 0; w < workers; w++ {
			c.Sproc("worker", func(cc *Context, _ int64) {
				for {
					// Claim the next work item.
					n, _ := cc.Add32(nextVA, 1)
					if n > items {
						return
					}
					cc.Add32(counterVA, 1)
				}
			}, proc.PRSALL, int64(w))
		}
		for w := 0; w < workers; w++ {
			c.Wait()
		}
		if v, _ := c.Load32(counterVA); v != items {
			t.Errorf("counter = %d, want %d", v, items)
		}
	})
	waitIdle(t, s)
}

func TestSEGVKillsWithoutHandler(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		pid, _ := c.Fork("wild", func(cc *Context) {
			cc.Load32(0xdeadbeef &^ 3)
			t.Error("survived wild access")
		})
		wpid, status, _ := c.Wait()
		if wpid != pid || status != 128+proc.SIGSEGV {
			t.Errorf("Wait = (%d,%d)", wpid, status)
		}
	})
	waitIdle(t, s)
}

func TestProcLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxProcs = 3
	s := NewSystem(cfg)
	s.Start("parent", func(c *Context) {
		release := make(chan struct{})
		for i := 0; i < 2; i++ {
			if _, err := c.Fork("filler", func(cc *Context) { <-release }); err != nil {
				t.Errorf("fork %d: %v", i, err)
			}
		}
		if _, err := c.Fork("overflow", func(cc *Context) {}); !errors.Is(err, ErrTooMany) {
			t.Errorf("fork past limit: %v", err)
		}
		close(release)
		c.Wait()
		c.Wait()
	})
	waitIdle(t, s)
}

func TestPrctl(t *testing.T) {
	cfg := testConfig()
	s := NewSystem(cfg)
	s.Start("p", func(c *Context) {
		if v, _ := c.Prctl(PRMaxPProcs, 0); v != int64(cfg.NCPU) {
			t.Errorf("PR_MAXPPROCS = %d", v)
		}
		if v, _ := c.Prctl(PRMaxProcs, 0); v != int64(256) {
			t.Errorf("PR_MAXPROCS = %d", v)
		}
		if _, err := c.Prctl(PRSetStackSize, 128*1024); err != nil {
			t.Errorf("set stack: %v", err)
		}
		if v, _ := c.Prctl(PRGetStackSize, 0); v != 128*1024 {
			t.Errorf("get stack = %d", v)
		}
		// The new size takes effect for sproc children and is inherited.
		c.Sproc("kid", func(cc *Context, _ int64) {
			if got := cc.StackTop() - cc.StackBase(); got != 128*1024 {
				t.Errorf("child stack size = %d", got)
			}
			if v, _ := cc.Prctl(PRGetStackSize, 0); v != 128*1024 {
				t.Errorf("inherited stack size = %d", v)
			}
		}, proc.PRSALL, 0)
		c.Wait()
		if _, err := c.Prctl(99, 0); err == nil {
			t.Error("unknown prctl option accepted")
		}
		if _, err := c.Prctl(PRSetStackSize, -5); err == nil {
			t.Error("negative stack size accepted")
		}
		// The typed wrappers agree with the raw call.
		if got := c.MaxPProcs(); got != cfg.NCPU {
			t.Errorf("MaxPProcs() = %d", got)
		}
		if got := c.MaxProcs(); got != 256 {
			t.Errorf("MaxProcs() = %d", got)
		}
		if rounded, err := c.SetStackSize(64 * 1024); err != nil || rounded != 64*1024 {
			t.Errorf("SetStackSize = (%d, %v)", rounded, err)
		}
		if got := c.GetStackSize(); got != 64*1024 {
			t.Errorf("GetStackSize() = %d", got)
		}
		// The earlier Sproc made this a share-group leader, so the gang
		// wrappers work here too (the no-group error is covered by
		// TestPrctlGangAndGroupPrio).
		if err := c.SetGang(true); err != nil {
			t.Errorf("SetGang: %v", err)
		}
		if err := c.SetGroupPrio(3); err != nil {
			t.Errorf("SetGroupPrio: %v", err)
		}
		if PRGetStackSize.String() != "PR_GETSTACKSIZE" || PrctlOpt(99).String() != "PR_UNKNOWN(99)" {
			t.Error("PrctlOpt.String broken")
		}
	})
	waitIdle(t, s)
}

func TestNonGroupProcessesUnaffected(t *testing.T) {
	// Design goal 4: normal processes pay nothing for share groups. A
	// plain process's syscalls must never touch share machinery (no
	// propagations, no syncs) even while a group runs beside it.
	s := NewSystem(testConfig())
	s.Start("group", func(c *Context) {
		c.Sproc("m", func(cc *Context, _ int64) {
			for i := 0; i < 100; i++ {
				cc.Umask(0o022)
			}
		}, proc.PRSALL, 0)
		c.Wait()
	})
	s.Start("plain", func(c *Context) {
		for i := 0; i < 200; i++ {
			c.Getpid()
			c.Umask(0o022)
		}
		if c.P.Flag.Load() != 0 {
			t.Error("plain process accumulated sync bits")
		}
		if c.P.ShareGrp() != nil {
			t.Error("plain process joined a group")
		}
	})
	waitIdle(t, s)
}

func TestMemoryReclaimedAfterExit(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		// Dirty some pages, spawn group members that dirty more, and
		// make sure everything is returned when the processes die.
		c.Store32(vm.DataBase, 1)
		for i := 0; i < 4; i++ {
			c.Sproc("m", func(cc *Context, arg int64) {
				cc.Store32(cc.StackBase()+8, uint32(arg))
				cc.Store32(vm.DataBase+hw.VAddr(4096*(1+arg)), 7)
			}, proc.PRSALL, int64(i))
		}
		for i := 0; i < 4; i++ {
			c.Wait()
		}
	})
	waitIdle(t, s)
}

// Load32AndIgnore is a test helper on Context: a load that swallows fault
// errors (used in spin loops where the address is known valid).
func (c *Context) Load32AndIgnore(va hw.VAddr) uint32 {
	v, _ := c.Load32(va)
	return v
}
