package kernel

// Tests for the one creation path (spawn) and the share-mask table it and
// the attribute syscalls are driven from.

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// sysSimCyc returns the simulated cycles Stats() attributes to one syscall.
func sysSimCyc(s *System, n Sysno) int64 {
	for _, st := range s.Stats().Syscalls {
		if st.Num == n {
			return st.SimCyc
		}
	}
	return 0
}

// TestCreationChargesPinned fixes what every creating call costs on the sim
// meter, in one scenario — the standard image, three open descriptors, a
// 3-member checkpoint — so "the single builder charges what the five
// hand-written paths charged" is checked by go test, not only by the bench.
// Each row is the call's in-kernel latency as Stats() reports it and what
// the caller's own cycle counter moved by. The numbers are the ones the
// five separate paths produced before they were merged.
func TestCreationChargesPinned(t *testing.T) {
	type row struct {
		name           string
		sys            Sysno
		simcyc, cycles int64
	}
	var got []row
	measure := func(c *Context, name string, sys Sysno, call func() error) {
		sim, cyc := sysSimCyc(c.S, sys), c.P.Cycles.Load()
		if err := call(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		got = append(got, row{name, sys, sysSimCyc(c.S, sys) - sim, c.P.Cycles.Load() - cyc})
	}
	noop := func(*Context, int64) {}

	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		for _, path := range []string{"/a", "/b", "/c"} {
			if _, err := c.Open(path, fs.ORead|fs.OWrite|fs.OCreat, 0o644); err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
		}
		// Each child is reaped before the next call, so every sproc finds
		// the same recycled stack range and the same one-member group.
		create := func(name string, sys Sysno, call func() (int, error)) {
			measure(c, name, sys, func() error { _, err := call(); return err })
			c.Wait()
		}
		create("fork", SysFork, func() (int, error) { return c.Fork("f", func(*Context) {}) })
		create("sproc(PR_SALL)", SysSproc, func() (int, error) { return c.Sproc("s", noop, proc.PRSALL, 0) })
		create("sproc(PR_SFDS)", SysSproc, func() (int, error) { return c.Sproc("s", noop, proc.PRSFDS, 0) })
		create("sproc(0)", SysSproc, func() (int, error) { return c.Sproc("s", noop, 0, 0) })
		create("thread_create", SysThreadCreate, func() (int, error) { return c.ThreadCreate("t", noop, 0) })
		create("fork by a member", SysFork, func() (int, error) { return c.Fork("f", func(*Context) {}) })
	})
	waitIdle(t, s)

	enc, _, _ := runCkptWorkload(t, 2, 1, false)
	img, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s2 := NewSystem(testConfig())
	s2.Start("blank", func(c *Context) {
		measure(c, "restore of 3 members", SysRestore, func() error {
			_, err := c.Restore(img, noop)
			return err
		})
		for {
			if _, _, err := c.Wait(); err != nil {
				break
			}
		}
	})
	waitIdle(t, s2)

	want := []row{
		{"fork", SysFork, 4440, 4380},
		{"sproc(PR_SALL)", SysSproc, 4184, 4124},
		{"sproc(PR_SFDS)", SysSproc, 4504, 4444},
		{"sproc(0)", SysSproc, 4480, 4420},
		{"thread_create", SysThreadCreate, 960, 900},
		{"fork by a member", SysFork, 4440, 4380},
		{"restore of 3 members", SysRestore, 8192, 8132},
	}
	if len(got) != len(want) {
		t.Fatalf("measured %d calls, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s: simcyc %d, caller cycles %d; pinned %d and %d", w.name, got[i].simcyc, got[i].cycles, w.simcyc, w.cycles)
		}
	}
}

// TestShareMaskTable checks the paper's §5.1 table as a table: for every one
// of the 64 share masks m, a child sproc'd with m starts with its parent's
// view of every resource; an update of every resource by the parent marks
// on the child exactly the rows in m, and the child's next kernel entry
// brings exactly those up to date; and after the child withdraws m' with
// unshare, a further round of updates marks exactly m minus m'.
func TestShareMaskTable(t *testing.T) {
	cfg := testConfig()
	s := NewSystem(cfg)
	s.Start("creator", func(c *Context) {
		dirs := [3]*fs.Inode{}
		for i, d := range []string{"/d0", "/d1", "/d2"} {
			if err := c.Mkdir(d, 0o755); err != nil {
				t.Errorf("mkdir %s: %v", d, err)
				return
			}
			dirs[i], _ = c.S.FS.Lookup(c.cred(), d)
		}
		// view is one setting of every attribute row; fd is the descriptor
		// whose presence stands for the descriptor row.
		type view struct {
			umask  uint16
			ulimit int64
			gid    uint16
			dir    *fs.Inode
		}
		views := [3]view{
			{0o011, 1 << 20, 10, dirs[0]}, {0o022, 1 << 21, 20, dirs[1]}, {0o033, 1 << 22, 30, dirs[2]},
		}
		// set moves the creator — and, it holding PR_SALL, the block — to
		// views[i], and opens one more descriptor.
		set := func(i int) int {
			v := views[i]
			c.Umask(v.umask)
			c.Ulimit(2, v.ulimit)
			c.Setgid(v.gid)
			c.Chdir([]string{"/d0", "/d1", "/d2"}[i])
			fd, err := c.Open("/f", fs.ORead|fs.OCreat, 0o644)
			if err != nil {
				t.Errorf("open: %v", err)
			}
			return fd
		}
		// sees reports which view each row of q shows, as a mask of the rows
		// showing `next` (the rest must show `prev`), and whether fd is open.
		sees := func(q *proc.Proc, m proc.Mask, prev, next view, fd int) (rows proc.Mask) {
			q.Mu.Lock()
			defer q.Mu.Unlock()
			row := func(bit proc.Mask, isNext, isPrev bool) {
				switch {
				case isNext:
					rows |= bit
				case !isPrev:
					t.Errorf("mask %v: row %v shows neither view", m, bit)
				}
			}
			row(proc.PRSUMASK, q.Umask == next.umask, q.Umask == prev.umask)
			row(proc.PRSULIMIT, q.Ulimit == next.ulimit, q.Ulimit == prev.ulimit)
			row(proc.PRSID, q.Gid == next.gid, q.Gid == prev.gid)
			row(proc.PRSDIR, q.Cdir == next.dir, q.Cdir == prev.dir)
			_, err := q.GetFd(fd)
			row(proc.PRSFDS, err == nil, err != nil)
			return rows
		}
		const attrRows = proc.PRSALL &^ proc.PRSADDR

		for m := proc.Mask(0); m <= proc.PRSALL; m++ {
			drop := (m>>3 | m<<3) & proc.PRSALL // the m' this round withdraws
			fd0 := set(0)
			var fd1 int
			// phase is the child's progress: the parent acts only once the
			// child is past a check and asleep in the blockproc after it.
			var phase atomic.Int32
			asleepAt := func(pid int, ph int32) {
				for phase.Load() != ph {
					c.Getpid()
				}
				waitAsleep(c, []int{pid})
			}
			pid, err := c.Sproc("q", func(q *Context, _ int64) {
				// Born with the parent's view of every row (for the rows in
				// m that is also the block's: the parent shares them).
				if got := sees(q.P, m, views[1], views[0], fd0); got != attrRows {
					t.Errorf("mask %v: child starts with rows %v from its parent, want all", m, got)
				}
				phase.Store(1)
				q.Blockproc(0) // parent updates every row
				q.Getpid()     // the kernel entry that reconciles
				if got := sees(q.P, m, views[0], views[1], fd1); got != m&attrRows {
					t.Errorf("mask %v: after one kernel entry rows %v are up to date, want %v", m, got, m&attrRows)
				}
				if err := q.Unshare(drop); err != nil {
					t.Errorf("mask %v: unshare(%v): %v", m, drop, err)
				}
				phase.Store(2)
				q.Blockproc(0) // parent updates every row again
			}, m, 0)
			if err != nil {
				t.Errorf("mask %v: sproc: %v", m, err)
				return
			}
			q, _ := c.S.Lookup(pid)
			asleepAt(pid, 1)
			fd1 = set(1)
			if got, want := q.Flag.Load(), uint32(m&attrRows); got != want {
				t.Errorf("mask %v: an update of every row marked %#x on the child, want %#x", m, got, want)
			}
			c.Unblockproc(pid)
			asleepAt(pid, 2)
			fd2 := set(2)
			if got, want := q.Flag.Load(), uint32(m&^drop&attrRows); got != want {
				t.Errorf("mask %v: after unshare(%v) an update marked %#x, want %#x", m, drop, got, want)
			}
			c.Unblockproc(pid)
			c.Wait()
			for _, fd := range []int{fd0, fd1, fd2} {
				c.Close(fd)
			}
		}
	})
	waitIdle(t, s)
}

// TestRestoreFailureLeavesCallerWaitable: a restore that fails inside the
// respawn of a later member must not leave a never-started child on the
// caller's child list — wait(2) would sleep on it forever. The member built
// before the failure exits at once and is reaped; then ECHILD.
func TestRestoreFailureLeavesCallerWaitable(t *testing.T) {
	enc, _, _ := runCkptWorkload(t, 2, 1, false)
	for _, tc := range []struct {
		name   string
		damage func(img *ckpt.Image) // makes the last member's respawn fail
		errno  Errno
	}{
		{"vanished file", func(img *ckpt.Image) {
			last := &img.Members[2]
			last.Mask &^= uint32(proc.PRSFDS) // a private table, reopened by path
			last.Fds = []ckpt.FdImage{{Fd: 3, Path: "/no/such/file"}}
		}, ENOENT},
		{"stack collision", func(img *ckpt.Image) {
			img.Members[2].StackBase = img.Members[1].StackBase
		}, EINVAL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, err := ckpt.Decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			tc.damage(img)
			s := NewSystem(testConfig())
			s.Start("blank", func(c *Context) {
				if _, err := c.Restore(img, func(*Context, int64) {}); !errors.Is(err, tc.errno) {
					t.Errorf("restore = %v, want %v", err, tc.errno)
				}
				reaped := 0
				for {
					if _, _, err := c.Wait(); err != nil {
						if !errors.Is(err, ECHILD) {
							t.Errorf("wait = %v, want ECHILD", err)
						}
						break
					}
					reaped++
				}
				if reaped != 1 {
					t.Errorf("reaped %d children, want the 1 built before the failure", reaped)
				}
				if n := GroupOf(c.P).Size(); n != 1 {
					t.Errorf("group has %d members after the failed restore, want the caller alone", n)
				}
			})
			done := make(chan struct{})
			go func() { s.WaitIdle(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("caller's wait(2) loop never saw ECHILD: the failed restore stranded an unstarted child")
			}
		})
	}
}

// goid names the calling goroutine, as a goroutine dump does.
func goid() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// TestSpawnCarrierReuse: processes are handed to parked carriers, not born
// on new goroutines — sequential creations start a handful, an exec chain
// never leaves its carrier, and a carrier whose process was killed
// mid-image parks again and runs the next process correctly.
func TestSpawnCarrierReuse(t *testing.T) {
	noop := func(*Context, int64) {}
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		started := carriersStarted.Load()
		creators := []func() (int, error){
			func() (int, error) { return c.Fork("f", func(*Context) {}) },
			func() (int, error) { return c.Sproc("s", noop, proc.PRSALL, 0) },
			func() (int, error) { return c.ThreadCreate("t", noop, 0) },
		}
		for i := 0; i < 1000; i++ {
			for _, create := range creators {
				_, err := create()
				if err == nil {
					_, _, err = c.Wait()
				}
				if err != nil {
					t.Errorf("create+wait %d: %v", i, err)
					return
				}
			}
		}
		// A creation finds no carrier parked only when it beats its
		// predecessor's to the channel, which adds one to the pool each time.
		if n := carriersStarted.Load() - started; n > 8 {
			t.Errorf("3000 sequential create+wait started %d goroutines, want a handful", n)
		}

		var chain [3]string
		c.Fork("exec chain", func(a *Context) {
			chain[0] = goid()
			a.Exec("b", func(b *Context) {
				chain[1] = goid()
				b.Exec("c", func(*Context) { chain[2] = goid() })
			})
		})
		c.Wait()
		if chain[0] != chain[1] || chain[1] != chain[2] {
			t.Errorf("exec chain ran on goroutines %v, want one carrier", chain)
		}

		var killed string
		pid, _ := c.Fork("sleeper", func(cc *Context) {
			killed = goid()
			cc.Pause()
			cc.Getpid() // SIGKILL is latched: this crossing does not return
			t.Error("sleeper survived SIGKILL")
		})
		for i := 0; i < 50; i++ {
			c.Getpid()
		}
		c.Kill(pid, proc.SIGKILL)
		if _, status, _ := c.Wait(); status != 128+proc.SIGKILL {
			t.Errorf("killed sleeper's status = %d", status)
		}
		// Parked carriers are taken first-in first-out (the channel's receive
		// queue) and there are at most maxIdleCarriers of them, so the
		// sleeper's comes round within that many creations.
		c.Store32(vm.DataBase, 7)
		for i := 1; ; i++ {
			var on string
			c.Fork("next", func(cc *Context) {
				on = goid()
				v, err := cc.Load32(vm.DataBase)
				cc.Store32(vm.DataBase, v+uint32(i))
				if w, _ := cc.Load32(vm.DataBase); err != nil || v != 7 || w != 7+uint32(i) {
					t.Errorf("child %d on carrier %s: data word reads %d then %d (%v)", i, on, v, w, err)
				}
				cc.Exit(i & 0x7f)
			})
			if _, status, err := c.Wait(); err != nil || status != i&0x7f {
				t.Errorf("child %d: wait = status %d, %v", i, status, err)
			}
			if on == killed {
				break
			}
			if i > maxIdleCarriers+2 {
				t.Errorf("the killed process's carrier (goroutine %s) never ran another process", killed)
				break
			}
		}
	})
	waitIdle(t, s)
}

// TestSpawnCarrierDropsSystem: a parked carrier must not pin the last System
// it ran — one that kept hold of the life it last ran would keep a finished
// System's simulated memory live until its next process.
func TestSpawnCarrierDropsSystem(t *testing.T) {
	collected := make(chan struct{})
	func() {
		s := NewSystem(testConfig())
		runtime.SetFinalizer(s.Machine, func(*hw.Machine) { close(collected) })
		s.Start("parent", func(c *Context) {
			for i := 0; i < 4; i++ {
				c.Sproc("s", func(cc *Context, _ int64) { cc.Store32(vm.DataBase, 1) }, proc.PRSALL, 0)
				c.Fork("f", func(cc *Context) { cc.Store32(vm.DataBase, 2) })
			}
			for i := 0; i < 8; i++ {
				c.Wait()
			}
		})
		waitIdle(t, s)
	}()
	// WaitIdle returns at the carrier's wg.Done, a moment before it parks.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		runtime.GC()
		select {
		case <-collected:
			if idleCarriers.Load() == 0 {
				t.Error("no carrier is parked: the test did not see an idle carrier let go of its System")
			}
			// A dump names them: a function of their own, not a closure of
			// startProc's, parked in a receive and not in Sched.sleep.
			dump := make([]byte, 1<<20)
			dump = dump[:runtime.Stack(dump, true)]
			if !regexp.MustCompile(`\[chan receive[^\]]*\]:\nrepro/internal/kernel\.carrier\(`).Match(dump) {
				t.Errorf("no goroutine parked in kernel.carrier in the dump:\n%s", dump)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("System's machine still reachable with %d carriers parked and no process anywhere", idleCarriers.Load())
		}
	}
}

// TestSpawnCarrierStormRace: four Systems churn every way a process is born
// and dies — fork, sproc, thread_create, exec, SIGKILL — at once against the
// one pool of carriers, at several host parallelism levels. Every System drains,
// with no process left, every frame free and every lazy clone accounted for.
func TestSpawnCarrierStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const systems, drivers, steps = 4, 3, 60
			var wg sync.WaitGroup
			for n := 0; n < systems; n++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					cfg := testConfig()
					cfg.MaxProcs = 64
					s := NewSystem(cfg)
					base := s.Machine.Mem.InUse()
					for d := 0; d < drivers; d++ {
						rng := rand.New(rand.NewSource(int64(n*drivers + d + 1)))
						s.Start("driver", func(c *Context) { spawnStorm(t, c, rng, steps) })
					}
					waitIdle(t, s)
					if left := s.NProcs(); left != 0 {
						t.Errorf("system %d: %d processes left", n, left)
					}
					if used := s.Machine.Mem.InUse(); used != base {
						t.Errorf("system %d: %d frames in use after the storm, %d before", n, used, base)
					}
					if st := s.Stats(); st.LazyDups != st.LazyBreaks+st.LazyDrops {
						t.Errorf("system %d: LazyDups %d != LazyBreaks %d + LazyDrops %d", n, st.LazyDups, st.LazyBreaks, st.LazyDrops)
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// spawnStorm is one driver's share: each step creates a child one way, and
// the child stores, execs, or sleeps until the driver kills it.
func spawnStorm(t *testing.T, c *Context, rng *rand.Rand, steps int) {
	for step := 0; step < steps; step++ {
		stamp := uint32(step + 1)
		body := func(cc *Context) {
			cc.Store32(vm.DataBase+hw.VAddr(int(stamp%8)*hw.PageSize), stamp)
		}
		entry := func(cc *Context, _ int64) { body(cc) }
		kill := false
		var pid int
		var err error
		switch rng.Intn(6) {
		case 0:
			pid, err = c.Fork("f", body)
		case 1:
			pid, err = c.Sproc("s", entry, proc.PRSALL, 0)
		case 2:
			pid, err = c.Sproc("s", entry, proc.PRSALL&^proc.PRSADDR, 0)
		case 3:
			pid, err = c.ThreadCreate("t", entry, 0)
		case 4:
			pid, err = c.Sproc("execer", func(cc *Context, _ int64) { cc.Exec("image", body) }, proc.PRSALL, 0)
		case 5:
			kill = true
			pid, err = c.Fork("sleeper", func(cc *Context) {
				for {
					cc.Pause()
				}
			})
		}
		if err != nil {
			t.Errorf("step %d: create: %v", step, err)
			return
		}
		want := 0
		if kill {
			c.Kill(pid, proc.SIGKILL)
			want = 128 + proc.SIGKILL
		}
		if got, status, err := c.Wait(); err != nil || got != pid || status != want {
			t.Errorf("step %d: wait = pid %d status %d (%v), want pid %d status %d", step, got, status, err, pid, want)
			return
		}
	}
}
