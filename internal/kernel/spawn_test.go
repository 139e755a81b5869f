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

// TestThreadCreationCheaperThanFork is the §3 claim: thread creation is
// roughly an order of magnitude cheaper than fork — the traditional fork
// that walks the page tables at spawn, so this boots the EagerDup ablation.
// (The lazy default collapses exactly this gap for untouched children;
// benchtab E1c measures that directly.) It compares what the creator pays
// in the creation calls alone: the rest of the machine's cycles — the
// children's dispatches, the creator's sleeps in wait — depend on how the
// host interleaves the CPUs.
func TestThreadCreationCheaperThanFork(t *testing.T) {
	s := NewSystem(Config{NCPU: 4, MemFrames: 8192, TimeSlice: 300, EagerDup: true})
	s.Start("main", func(c *Context) {
		const n = 16
		var threadCost, forkCost int64
		for i := 0; i < n; i++ {
			start := c.P.Cycles.Load()
			c.ThreadCreate("thread", func(*Context, int64) {}, 0)
			threadCost += c.P.Cycles.Load() - start
		}
		for i := 0; i < n; i++ {
			c.Wait()
		}
		for i := 0; i < n; i++ {
			start := c.P.Cycles.Load()
			c.Fork("forked", func(*Context) {})
			forkCost += c.P.Cycles.Load() - start
			c.Wait()
		}

		if forkCost < 4*threadCost {
			t.Errorf("fork/thread cycle ratio too small: fork=%d thread=%d", forkCost, threadCost)
		}
	})
	waitIdle(t, s)
}

// TestSpawnTakesOneSliceCheck: spawn charges its entries together, so a
// creation takes one slice check, not one an entry. On a slice of one cycle,
// with another process always runnable, every check preempts the caller: a
// fork is dispatched once more than a getpid, for its creation charge.
func TestSpawnTakesOneSliceCheck(t *testing.T) {
	s := NewSystem(Config{NCPU: 1, MemFrames: 1024, TimeSlice: 1})
	s.Start("driver", func(c *Context) {
		const stop = vm.DataBase
		c.Store32(stop, 0)
		c.Sproc("looper", func(cc *Context, _ int64) {
			for v, err := cc.Load32(stop); v == 0 && err == nil; v, err = cc.Load32(stop) {
			}
		}, proc.PRSALL, 0)
		dispatches := func(call func()) int64 {
			before := c.P.Dispatched.Load()
			call()
			return c.P.Dispatched.Load() - before
		}
		getpid := dispatches(func() { c.Getpid() })
		fork := dispatches(func() { c.Fork("child", func(*Context) {}) })
		if fork != getpid+1 {
			t.Errorf("fork dispatched the caller %d times, getpid %d: want one more, for one creation charge", fork, getpid)
		}
		c.Store32(stop, 1)
		c.Wait()
		c.Wait()
	})
	waitIdle(t, s)
}

// TestCreationChargesReachEveryCost: every entry of the cost table has a
// price and is charged by something a charge script does — the golden
// script or, for an entry it never charges, the off-script table. measure
// holds each row's cpu column to Σ count × price, so an entry that shows in
// a count column moves the table if it is priced at 0.
func TestCreationChargesReachEveryCost(t *testing.T) {
	tables := string(chargeTable(t)) + string(offScriptTable(t))
	for _, cost := range hw.AllCosts() {
		t.Run(cost.String(), func(t *testing.T) {
			if cost.Price() <= 0 {
				t.Errorf("%v is priced %d", cost, cost.Price())
			}
			if !strings.Contains(tables, " "+cost.String()+":") {
				t.Errorf("no row of either charge table counts %v: nothing the scripts do charges it", cost)
			}
		})
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
// before the failure exits at once and is reaped; then ECHILD. An image
// whose geometry does not fit the address space fails before any member is
// built.
func TestRestoreFailureLeavesCallerWaitable(t *testing.T) {
	enc, _, _ := runCkptWorkload(t, 2, 1, false)
	shm := func(img *ckpt.Image) *ckpt.RegionImage {
		for i := range img.Regions {
			if img.Regions[i].Type == ckpt.RShm {
				return &img.Regions[i]
			}
		}
		t.Fatal("image has no shm region")
		return nil
	}
	for _, tc := range []struct {
		name   string
		damage func(img *ckpt.Image) // makes the restore fail
		errno  Errno
		reaped int // members built before the failure
	}{
		{"vanished file", func(img *ckpt.Image) {
			last := &img.Members[2]
			last.Mask &^= uint32(proc.PRSFDS) // a private table, reopened by path
			last.Fds = []ckpt.FdImage{{Fd: 3, Path: "/no/such/file"}}
		}, ENOENT, 1},
		{"stack collision", func(img *ckpt.Image) {
			img.Members[2].StackBase = img.Members[1].StackBase
		}, EINVAL, 1},
		{"descriptor at the ceiling", func(img *ckpt.Image) {
			last := &img.Members[2]
			last.Mask &^= uint32(proc.PRSFDS)
			last.Fds = []ckpt.FdImage{{Fd: proc.NOFILE, Path: "/"}}
		}, EMFILE, 1},
		{"region past 4 GiB", func(img *ckpt.Image) {
			shm(img).Base += 1 << 32
			img.Normalize()
		}, EINVAL, 0},
		{"unaligned region", func(img *ckpt.Image) {
			shm(img).Base += 8
		}, EINVAL, 0},
		{"stack past 4 GiB", func(img *ckpt.Image) {
			img.Members[2].StackBase += 1 << 32
		}, EINVAL, 0},
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
				if reaped != tc.reaped {
					t.Errorf("reaped %d children, want the %d built before the failure", reaped, tc.reaped)
				}
				if g := GroupOf(c.P); g != nil && g.Size() != 1 {
					t.Errorf("group has %d members after the failed restore, want the caller alone", g.Size())
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

// TestRestoreFailureKeepsCallerState: a restore refused for its geometry
// changes nothing about the caller. The image's creator stack is moved 64
// pages down, so the caller's stack does not match it; restore fails with
// EINVAL, and the caller keeps its open descriptor, its umask and its name
// rather than the image's.
func TestRestoreFailureKeepsCallerState(t *testing.T) {
	enc, _, _ := runCkptWorkload(t, 2, 1, false)
	img, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	img.Members[0].StackBase -= 64 * hw.PageSize
	const umask = 0o077
	if img.Attr.Umask == umask {
		t.Fatalf("image umask is %#o already; the test cannot tell it from the caller's", umask)
	}
	s := NewSystem(testConfig())
	s.Start("blank", func(c *Context) {
		fd, err := c.Open("/kept", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		c.Umask(umask)
		if _, err := c.Restore(img, func(*Context, int64) {}); !errors.Is(err, EINVAL) {
			t.Errorf("restore = %v, want EINVAL", err)
		}
		if _, err := c.Lseek(fd, 0, fs.SeekSet); err != nil {
			t.Errorf("lseek on the caller's descriptor after the failed restore: %v", err)
		}
		if got := c.Umask(umask); got != umask {
			t.Errorf("umask after the failed restore = %#o, want the caller's %#o", got, umask)
		}
		if c.P.Name != "blank" {
			t.Errorf("caller name after the failed restore = %q, want %q", c.P.Name, "blank")
		}
		if _, _, err := c.Wait(); !errors.Is(err, ECHILD) {
			t.Errorf("wait = %v, want ECHILD: nothing was built", err)
		}
	})
	waitIdle(t, s)
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

// TestSpawnAfterIdleReadsZero: the frame storage WaitIdle gives back reads
// all zero wherever it is minted again, for a later process of the same
// System and for a System booted after it, though every line of it was
// written before.
func TestSpawnAfterIdleReadsZero(t *testing.T) {
	const pages = 64
	run := func(s *System, name string, body func(c *Context, va hw.VAddr)) {
		s.Start(name, func(c *Context) {
			va, err := c.Mmap(pages)
			if err != nil {
				t.Errorf("%s: mmap: %v", name, err)
				return
			}
			body(c, va)
		})
		waitIdle(t, s)
	}
	dirty := func(c *Context, va hw.VAddr) {
		for off := hw.VAddr(0); off < pages*hw.PageSize; off += hw.LineSize {
			if err := c.Store32(va+off, 0xdead0000|uint32(off>>6)); err != nil {
				t.Errorf("store at %#x: %v", va+off, err)
				return
			}
		}
	}
	zero := func(c *Context, va hw.VAddr) {
		for off := hw.VAddr(0); off < pages*hw.PageSize; off += 4 {
			if v, err := c.Load32(va + off); err != nil || v != 0 {
				t.Errorf("%s: word at %#x reads %#x (%v), want 0", c.P.Name, va+off, v, err)
				return
			}
		}
	}
	a := NewSystem(testConfig())
	run(a, "dirty", dirty)
	run(a, "same-system", zero)
	run(NewSystem(testConfig()), "next-system", zero)
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
	for _, procs := range hostLevels() {
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
					for d := 0; d < drivers; d++ {
						rng := rand.New(rand.NewSource(int64(n*drivers + d + 1)))
						s.Start("driver", func(c *Context) { spawnStorm(t, c, rng, steps) })
					}
					waitIdle(t, s)
				}(n)
			}
			wg.Wait()
		})
	}
}

// spawnStorm is one driver's share: each step creates a child one way, and
// the child stores, execs, or sleeps until it is killed. The parent keeps a
// shadow of its eight data pages. Each storing child first maps, checks
// zero, stores and unmaps two pages — handing regions back mid-storm — then
// stores its page and loads another it did not store, which must read the
// shadow: what the parent's page held at creation, the latest store
// for a child that shares it (nothing else stores while the child runs).
// After the join the parent's own pages must read the shadow, updated with
// a sharing child's store and not a copy's. A page table reused with a
// stale entry would read another process's frame.
func spawnStorm(t *testing.T, c *Context, rng *rand.Rand, steps int) {
	page := func(i int) hw.VAddr { return vm.DataBase + hw.VAddr(i*hw.PageSize) }
	var shadow [8]uint32
	for i := range shadow {
		shadow[i] = 0x5a000000 | uint32(i)
		c.Store32(page(i), shadow[i])
	}
	for step := 0; step < steps; step++ {
		stamp := uint32(step + 1)
		kind := rng.Intn(6)
		mine, other := int(stamp%8), (int(stamp)+1+rng.Intn(7))%8
		want := shadow[other]
		if kind == 4 {
			want = 0 // the exec'd image's pages are fresh
		}
		body := func(cc *Context) {
			va, err := cc.Mmap(2)
			if err != nil {
				t.Errorf("step %d: mmap: %v", step, err)
				return
			}
			for off := hw.VAddr(0); off < 2*hw.PageSize; off += hw.PageSize {
				if v, err := cc.Load32(va + off); err != nil || v != 0 {
					t.Errorf("step %d: fresh mapping reads %#x (%v), want 0", step, v, err)
				}
				cc.Store32(va+off, stamp)
			}
			if err := cc.Munmap(va); err != nil {
				t.Errorf("step %d: munmap: %v", step, err)
			}
			cc.Store32(page(mine), stamp)
			if v, err := cc.Load32(page(other)); err != nil || v != want {
				t.Errorf("step %d: %s reads %#x on page %d (%v), want %#x", step, cc.P.Name, v, other, err, want)
			}
		}
		entry := func(cc *Context, _ int64) { body(cc) }
		kill, shares := false, false
		var pid int
		var err error
		switch kind {
		case 0:
			pid, err = c.Fork("f", body)
		case 1:
			shares = true
			pid, err = c.Sproc("s", entry, proc.PRSALL, 0)
		case 2:
			pid, err = c.Sproc("s", entry, proc.PRSALL&^proc.PRSADDR, 0)
		case 3:
			shares = true
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
		wantStatus := 0
		if kill {
			c.Kill(pid, proc.SIGKILL)
			wantStatus = 128 + proc.SIGKILL
		}
		if got, status, err := c.Wait(); err != nil || got != pid || status != wantStatus {
			t.Errorf("step %d: wait = pid %d status %d (%v), want pid %d status %d", step, got, status, err, pid, wantStatus)
			return
		}
		if shares {
			shadow[mine] = stamp
		}
		for i, w := range shadow {
			if v, err := c.Load32(page(i)); err != nil || v != w {
				t.Errorf("step %d: parent reads %#x on page %d (%v), want %#x", step, v, i, err, w)
				return
			}
		}
	}
}
