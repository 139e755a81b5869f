package kernel

// Tests for the two questions this package asks once each: "is the
// descriptor table shared?" (updateFds, which runs every table change
// inside core.UpdateFds) and "is the address space shared?" (vmGroup).

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
)

// fdSlot is one descriptor-table entry: the open file and the slot's flags.
type fdSlot struct {
	f     *fs.File
	flags uint8
}

// fdTable snapshots p's descriptor table without its empty tail — tables
// that hold the same descriptors may have grown to different lengths.
func fdTable(p *proc.Proc) []fdSlot {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	tab := make([]fdSlot, len(p.Fd))
	for i, f := range p.Fd {
		tab[i] = fdSlot{f, p.FdFlags[i]}
	}
	for len(tab) > 0 && tab[len(tab)-1] == (fdSlot{}) {
		tab = tab[:len(tab)-1]
	}
	return tab
}

func (s fdSlot) String() string {
	if s.f == nil {
		return "-"
	}
	return fmt.Sprintf("%p/%#x", s.f, s.flags)
}

// blockTable returns the share block's own descriptor table as the only
// thing that reads all of it sees it: a member that joins with PR_SFDS
// starts out with a copy. Nobody else may be updating descriptors.
func blockTable(t *testing.T, c *Context) []fdSlot {
	var tab []fdSlot
	if _, err := c.Sproc("witness", func(cc *Context, _ int64) { tab = fdTable(cc.P) }, proc.PRSADDR|proc.PRSFDS, 0); err != nil {
		t.Errorf("sproc of the witness: %v", err)
		return nil
	}
	c.Wait()
	return tab
}

// simBarrier lines up n simulated processes; a waiter spins on getpid(2),
// so it keeps entering the kernel and yields its CPU when its slice ends.
type simBarrier struct {
	n          int32
	count, gen atomic.Int32
}

func (b *simBarrier) wait(c *Context) {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		c.Getpid()
	}
}

// TestNonVMMemberFaultsOnSiblingMmap: a member created without PR_SADDR
// holds a copy-on-write image of the group's space as it was, and what the
// sharers map afterwards is not part of it — the fault handler asks vmGroup,
// like every other VM call, and finds no region.
func TestNonVMMemberFaultsOnSiblingMmap(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var mapped atomic.Uint32
		c.Sproc("apart", func(cc *Context, _ int64) {
			segv := 0
			cc.Signal(proc.SIGSEGV, func(int) { segv++ })
			for mapped.Load() == 0 {
				cc.Getpid()
			}
			va := hw.VAddr(mapped.Load())
			v, err := cc.Load32(va)
			var fe *FaultError
			if !errors.As(err, &fe) || segv != 1 {
				t.Errorf("load of a sibling's later mmap: value %#x, err %v, %d SIGSEGV; want a fault", v, err, segv)
			}
			// Its own arena is its own: the same address, another page.
			own, err := cc.Mmap(1)
			if err != nil || own != va {
				t.Errorf("private mmap = %#x, %v; want %#x, the start of its own arena", own, err, va)
			}
			if v, _ := cc.Load32(own); v != 0 {
				t.Errorf("private mapping reads %#x, want a zero page", v)
			}
			if n := residentPages(cc); n != 1 {
				t.Errorf("%d resident pages in the member's image, want the one it touched", n)
			}
			if err := cc.Munmap(own); err != nil {
				t.Errorf("munmap of the private mapping: %v", err)
			}
		}, proc.PRSFDS, 0) // no PR_SADDR
		va, _ := c.Mmap(1)
		c.Store32(va, 0xdeadbeef)
		mapped.Store(uint32(va))
		c.Wait()
		if v, _ := c.Load32(va); v != 0xdeadbeef {
			t.Errorf("the sharers' mapping reads %#x after the member unmapped its own, want 0xdeadbeef", v)
		}
	})
	waitIdle(t, s)
}

// TestFailedPipeLeavesNoDescriptor: pipe(2) that installs its read end and
// then finds the table full takes the read end back through the update
// protocol, so neither the block nor any sharer keeps a descriptor the
// caller does not have.
func TestFailedPipeLeavesNoDescriptor(t *testing.T) {
	cfg := testConfig()
	cfg.MaxFiles = proc.NFdInit // the smallest table there is
	s := NewSystem(cfg)
	s.Start("creator", func(c *Context) {
		var failed atomic.Bool
		var sibling []fdSlot
		c.Sproc("sibling", func(cc *Context, _ int64) {
			for !failed.Load() {
				cc.Getpid()
			}
			cc.Getpid() // a kernel entry after the failure: takes what the block holds
			sibling = fdTable(cc.P)
		}, proc.PRSALL, 0)
		fd, err := c.Open("/f", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
		for i := 1; i < cfg.MaxFiles-1 && err == nil; i++ {
			_, err = c.Dup(fd)
		}
		if err != nil {
			t.Errorf("filling the table: %v", err)
		}
		want := fdTable(c.P) // one slot left
		if r, w, err := c.Pipe(); !errors.Is(err, EMFILE) {
			t.Errorf("pipe with one free slot = (%d, %d, %v), want EMFILE", r, w, err)
		}
		failed.Store(true)
		c.Wait()
		if got := fdTable(c.P); !slices.Equal(got, want) {
			t.Errorf("caller's table after the failed pipe:\n got %v\nwant %v", got, want)
		}
		if !slices.Equal(sibling, want) {
			t.Errorf("sibling's table after the failed pipe:\n got %v\nwant %v", sibling, want)
		}
		if got := blockTable(t, c); !slices.Equal(got, want) {
			t.Errorf("block's table after the failed pipe:\n got %v\nwant %v", got, want)
		}
	})
	waitIdle(t, s)
}

// TestEagerSyncChargesEveryFdUpdate: under the eager-push ablation the
// updater pays Cost.AttrSync per member it brings up to date, for every
// kind of descriptor update — the charge is taken where the push is made,
// so close, dup2 and fcntl cannot differ from open — and only for members
// that share descriptors.
func TestEagerSyncChargesEveryFdUpdate(t *testing.T) {
	const sharers = 2
	calls := []string{"open", "dup2", "fcntl", "close", "close of a closed fd"}
	cost := func(eager bool) []int64 {
		cfg := testConfig()
		cfg.EagerAttrSync = eager
		s := NewSystem(cfg)
		var got []int64
		s.Start("updater", func(c *Context) {
			var stop atomic.Bool
			idle := func(cc *Context, _ int64) {
				for !stop.Load() {
					cc.Getpid()
				}
			}
			for i := 0; i < sharers; i++ {
				c.Sproc("sharer", idle, proc.PRSALL, 0)
			}
			c.Sproc("apart", idle, proc.PRSADDR, 0)
			var fd int
			for i, call := range []func() error{
				func() (err error) { fd, err = c.Open("/f", fs.ORead|fs.OCreat, 0o644); return err },
				func() error { _, err := c.Dup2(fd, fd+1); return err },
				func() error { return c.SetNonblock(fd, true) },
				func() error { return c.Close(fd) },
				func() error { c.Close(fd); return nil },
			} {
				before := c.P.Cycles.Load()
				if err := call(); err != nil {
					t.Errorf("%s: %v", calls[i], err)
				}
				got = append(got, c.P.Cycles.Load()-before)
			}
			stop.Store(true)
			for i := 0; i < sharers+1; i++ {
				c.Wait()
			}
		})
		waitIdle(t, s)
		return got
	}
	deferred, eager := cost(false), cost(true)
	push := sharers * hw.DefaultCosts().AttrSync
	for i, call := range calls {
		want := deferred[i] + push
		if i == len(calls)-1 {
			want = deferred[i] // a failed update pushes nothing
		}
		if eager[i] != want {
			t.Errorf("%s: %d cycles to the updater under eager sync, %d deferred; want %d", call, eager[i], deferred[i], want)
		}
	}
}

// TestFdUpdateProtocol is the §6.3 descriptor protocol against its
// statement: over seeded random open/close/dup/dup2/fcntl/pipe sequences —
// failing ones among them, and one pipe(2) a round that fails halfway —
// run at once by three members sharing PR_SFDS, each sharer's table at its
// next kernel entry is the block's, and a member without PR_SFDS keeps the
// table it was born with. Deferred and eager propagation both; at the end
// no table and no block holds a reference to any file seen.
func TestFdUpdateProtocol(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for seed := int64(1); seed <= 3; seed++ {
				runFdProtocol(t, seed, false)
				runFdProtocol(t, seed, true)
			}
		})
	}
}

func runFdProtocol(t *testing.T, seed int64, eager bool) {
	const (
		sharers = 3
		rounds  = 5
		ops     = 30
		nofile  = proc.NFdInit // the smallest table there is
	)
	cfg := testConfig()
	cfg.MaxFiles = nofile
	cfg.EagerAttrSync = eager
	s := NewSystem(cfg)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d eager=%v: %s", seed, eager, fmt.Sprintf(format, args...))
	}

	bar := &simBarrier{n: sharers + 1}
	var tables [sharers + 1][]fdSlot // each member's table at the round's check
	seen := map[*fs.File]bool{}

	// churn is one member's share of a round: random updates, racing the
	// other sharers' — any of them may fail (a closed fd, a full table).
	churn := func(c *Context, rng *rand.Rand) {
		for i := 0; i < ops; i++ {
			fd := rng.Intn(nofile)
			switch k := rng.Intn(10); {
			case k < 3:
				c.Open(fmt.Sprintf("/f%d", rng.Intn(4)), fs.ORead|fs.OWrite|fs.OCreat, 0o644)
			case k < 5:
				c.Close(fd)
			case k == 5:
				c.Dup(fd)
			case k == 6:
				c.Dup2(fd, rng.Intn(nofile+1)) // nofile itself: past the ceiling
			case k == 7:
				c.SetNonblock(fd, rng.Intn(2) == 0)
			case k == 8:
				c.SetCloseOnExec(fd, rng.Intn(2) == 0)
			default:
				if r, w, err := c.Pipe(); err == nil && rng.Intn(2) == 0 {
					c.Close(r)
					c.Close(w)
				}
			}
		}
	}
	// member is a round-by-round participant other than the creator: its
	// updates, then — once everyone's are done — a kernel entry and its
	// table as that entry left it.
	member := func(c *Context, idx int, update func()) {
		for r := 0; r < rounds; r++ {
			bar.wait(c)
			update()
			bar.wait(c)
			bar.wait(c) // the creator's failing pipe(2)
			c.Getpid()
			tables[idx] = fdTable(c.P)
			bar.wait(c)
			bar.wait(c) // the creator compares
		}
	}

	s.Start("creator", func(c *Context) {
		c.Open("/born", fs.ORead|fs.OCreat, 0o644)
		for i := 1; i < sharers; i++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(i)))
			c.Sproc("sharer", func(cc *Context, arg int64) {
				member(cc, int(arg), func() { churn(cc, rng) })
			}, proc.PRSADDR|proc.PRSFDS, int64(i))
		}
		var born []fdSlot
		c.Sproc("apart", func(cc *Context, _ int64) {
			born = fdTable(cc.P)
			member(cc, sharers, func() {})
		}, proc.PRSADDR, 0) // no PR_SFDS: a copy of the creator's table

		rng := rand.New(rand.NewSource(seed * 100))
		for r := 0; r < rounds; r++ {
			bar.wait(c)
			churn(c, rng)
			bar.wait(c)
			// Everyone else is spinning at the barrier: fill the table to
			// one free slot, so pipe(2) installs its read end and fails on
			// the write end, then take the filler back out. (The kernel
			// entry first: the last to reach a barrier does not spin, and
			// the count must be of an up-to-date table.)
			c.Getpid()
			open := 0
			for _, sl := range fdTable(c.P) {
				if sl.f != nil {
					open++
				}
			}
			var filler []int
			for ; open < nofile-1; open++ {
				fd, err := c.Open("/filler", fs.ORead|fs.OCreat, 0o644)
				if err != nil {
					fail("round %d: filling the table: %v", r, err)
					break
				}
				filler = append(filler, fd)
			}
			if rfd, wfd, err := c.Pipe(); !errors.Is(err, EMFILE) {
				fail("round %d: pipe into a table with at most one free slot = (%d, %d, %v), want EMFILE", r, rfd, wfd, err)
			}
			for _, fd := range filler {
				c.Close(fd)
			}
			bar.wait(c)
			c.Getpid()
			tables[0] = fdTable(c.P)
			bar.wait(c)
			block := blockTable(t, c)
			for i := 0; i < sharers; i++ {
				if !slices.Equal(tables[i], block) {
					fail("round %d: sharer %d's table at its kernel entry is not the block's:\nmember %v\n block %v", r, i, tables[i], block)
				}
			}
			if !slices.Equal(tables[sharers], born) {
				fail("round %d: the table of the member without PR_SFDS moved:\n  now %v\nborn %v", r, tables[sharers], born)
			}
			for _, sl := range block {
				if sl.f != nil {
					seen[sl.f] = true
				}
			}
			bar.wait(c)
		}
		for i := 0; i < sharers; i++ {
			c.Wait()
		}
	})
	waitIdle(t, s)
	for f := range seen {
		if n := f.Ref(); n != 0 {
			fail("a file seen in the block still has %d references after every member exited", n)
		}
	}
}
