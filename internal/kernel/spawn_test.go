package kernel

// Tests for the one creation path (spawn) and the share-mask table it and
// the attribute syscalls are driven from.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fs"
	"repro/internal/proc"
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
