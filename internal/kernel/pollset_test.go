package kernel

// Tests for poll(2)'s standing interest set (syscalls_poll.go): what a call
// reports must be what a scan of every entry would, whatever happened to
// the set and the descriptors between calls; no transition may be lost on
// the way to a sleeping poller; and nothing of the set may outlive its
// image on a stream.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/ipc"
	"repro/internal/klock"
	"repro/internal/proc"
	"repro/internal/vm"
)

// pollReference is poll(2) without an interest set: resolve every entry
// and load its mask.
func pollReference(c *Context, set []PollFd) (want []uint16, n int) {
	c.P.Mu.Lock()
	defer c.P.Mu.Unlock()
	for _, pf := range set {
		r := PollNval
		if f, _ := c.P.GetFd(pf.Fd); f != nil {
			r = f.PollReady() & (pf.Events | PollErr | PollHup | PollNval)
		}
		if r != 0 {
			n++
		}
		want = append(want, r)
	}
	return want, n
}

// TestInterestSetMatchesFullScan drives seeded random histories over
// pipes, socket pairs, a listener, a regular file, closed descriptors,
// dup'd descriptors, one descriptor named twice, Events changed between
// calls, a descriptor number closed and reopened, and a PR_SFDS sibling
// closing a polled descriptor. After every step Poll(set, 0) must report
// exactly what pollReference does: a clean entry is one whose stream the
// call did not look at, so any mark the interest set fails to make or keep
// shows up here as a stale Revents.
func TestInterestSetMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		cfg := testConfig()
		cfg.MaxFiles = 96
		s := NewSystem(cfg)
		s.Start("driver", func(c *Context) { interestSetHistory(t, c, seed) })
		waitIdle(t, s)
	}
}

func interestSetHistory(t *testing.T, c *Context, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("diff%d", seed)
	lfd, err := c.NetListen(name)
	if err != nil {
		t.Errorf("listen: %v", err)
		return
	}
	c.SetNonblock(lfd, true)
	plain, err := c.Open("/plain", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
	if err != nil {
		t.Errorf("open: %v", err)
		return
	}
	var pool []int // open stream descriptors, either direction
	var set []PollFd
	events := []uint16{PollIn, PollOut, PollIn | PollOut, 0}
	add := func(fds ...int) {
		for _, fd := range fds {
			c.SetNonblock(fd, true)
			pool = append(pool, fd)
			if rnd.Intn(3) > 0 {
				set = append(set, PollFd{Fd: fd, Events: events[rnd.Intn(3)]})
			}
		}
	}
	drop := func(fd int) {
		for i, x := range pool {
			if x == fd {
				pool = append(pool[:i], pool[i+1:]...)
				return
			}
		}
	}
	set = append(set, PollFd{Fd: lfd, Events: PollIn}, PollFd{Fd: plain, Events: PollIn | PollOut})
	va := vm.DataBase
	backlog := 0
	for step := 0; step < 1500; step++ {
		op := "idle"
		pick := -1
		if len(pool) > 0 {
			pick = pool[rnd.Intn(len(pool))]
		}
		switch k := rnd.Intn(24); {
		case k < 2 && len(pool) < 40:
			op = "pipe"
			if r, w, err := c.Pipe(); err == nil {
				add(r, w)
			}
		case k == 2 && len(pool) < 40:
			op = "connect"
			if fd, err := c.NetConnect(name); err == nil {
				add(fd)
				backlog++
			}
		case k == 3 && backlog > 0:
			op = "accept"
			if fd, err := c.NetAccept(lfd); err == nil {
				add(fd)
				backlog--
			}
		case k < 8 && pick >= 0:
			op = fmt.Sprintf("write %d", pick)
			c.Write(pick, va, 1+rnd.Intn(64))
		case k < 11 && pick >= 0:
			op = fmt.Sprintf("read %d", pick)
			c.Read(pick, va, 1+rnd.Intn(128))
		case k == 11 && pick >= 0:
			op = fmt.Sprintf("fill %d", pick)
			for i := 0; i < 4; i++ {
				c.Write(pick, va, ipc.PipeCap/2)
			}
		case k == 12 && pick >= 0:
			op = fmt.Sprintf("drain %d", pick)
			for i := 0; i < 4; i++ {
				c.Read(pick, va, ipc.PipeCap/2)
			}
		case k < 15 && pick >= 0:
			// The entry stays in the set: not open now, and the number is
			// the first a later pipe or dup reuses.
			op = fmt.Sprintf("close %d", pick)
			c.Close(pick)
			drop(pick)
		case k == 15 && pick >= 0:
			op = fmt.Sprintf("sibling closes %d", pick)
			if _, err := c.Sproc("closer", func(cc *Context, fd int64) { cc.Close(int(fd)) }, proc.PRSFDS, int64(pick)); err != nil {
				t.Errorf("seed %d step %d: sproc: %v", seed, step, err)
				return
			}
			c.Wait()
			drop(pick)
		case k == 16 && pick >= 0 && len(pool) < 40:
			op = fmt.Sprintf("dup %d", pick)
			if fd, err := c.Dup(pick); err == nil {
				add(fd)
			}
		case k == 17 && len(set) > 0:
			i := rnd.Intn(len(set))
			set[i].Events = events[rnd.Intn(len(events))]
			op = fmt.Sprintf("entry %d asks %#x", i, set[i].Events)
		case k == 18 && pick >= 0:
			op = fmt.Sprintf("name %d again", pick)
			set = append(set, PollFd{Fd: pick, Events: events[rnd.Intn(len(events))]})
		case k == 19 && len(set) > 0:
			i := rnd.Intn(len(set))
			op = fmt.Sprintf("unname entry %d (fd %d)", i, set[i].Fd)
			set = append(set[:i], set[i+1:]...)
		case k == 20:
			op = "shuffle"
			rnd.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		case k == 21:
			op = "name a descriptor that never was"
			set = append(set, PollFd{Fd: []int{-1, 90, 5000}[rnd.Intn(3)], Events: PollIn})
		}
		for i := range set {
			set[i].Revents = 0xffff // a call must overwrite, never inherit
		}
		got, err := c.Poll(set, 0)
		if err != nil {
			t.Errorf("seed %d step %d (%s): poll: %v", seed, step, op, err)
			return
		}
		want, n := pollReference(c, set)
		if got != n {
			t.Errorf("seed %d step %d (%s): poll reports %d ready, a full scan %d", seed, step, op, got, n)
		}
		for i, pf := range set {
			if pf.Revents != want[i] {
				t.Errorf("seed %d step %d (%s): entry %d (fd %d, events %#x) revents %#x, a full scan says %#x",
					seed, step, op, i, pf.Fd, pf.Events, pf.Revents, want[i])
				return
			}
		}
	}
}

// TestPollStormRace is a lost-wakeup storm through kernel poll(2), at
// GOMAXPROCS 1, 2 and NumCPU (under -race in tier 1). Each lane carries one
// byte at a time from a client to a server and an acknowledgement back, and
// both ends wait in poll(2), so every transition is the only one that will
// ever come for its lane and races the other side's arm-and-sleep. One
// server keeps its whole set standing from call to call; the other names a
// different half of its lanes every call, so registrations come and go
// while transitions land on them. Every byte written must be read and
// acknowledged: one lost wakeup leaves a poller asleep on a readable stream
// and the system never goes idle.
func TestPollStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pollStorm(t)
			pollDrip(t)
		})
	}
}

func pollStorm(t *testing.T) {
	// Client/server pairs by lane count; the servers of the odd pairs churn
	// their sets. One lane is a pure ping-pong (every call sleeps), eight
	// keep several transitions in flight around every sleep.
	laneCounts := []int{1, 2, 8, 8}
	const rounds = 200 // bytes through each lane
	pairs, want := len(laneCounts), int64(0)
	for _, n := range laneCounts {
		want += int64(n * rounds)
	}
	cfg := testConfig()
	cfg.MaxFiles = 128
	s := NewSystem(cfg)
	var sent, served, acked atomic.Int64
	inPoll := make([]atomic.Bool, 2*pairs)
	// pollEvery polls the descriptors of fds it has not closed yet, calling
	// ready for each that reports, and closes one when ready returns false:
	// the lane has carried all its bytes. (Each side counts; a hang-up
	// would not do, because a PR_SFDS sibling asleep in poll keeps its own
	// reference to the far end until it next enters the kernel.) With
	// churn, a call names every other descriptor.
	pollEvery := func(cc *Context, who int, fds []int, churn bool, ready func(fd int) bool) {
		live := append([]int(nil), fds...)
		var set []PollFd
		for call := 0; len(live) > 0; call++ {
			set = set[:0]
			for i, fd := range live {
				if !churn || len(live) == 1 || (i+call)%2 == 0 {
					set = append(set, PollFd{Fd: fd, Events: PollIn})
				}
			}
			inPoll[who].Store(true)
			_, err := cc.Poll(set, -1)
			inPoll[who].Store(false)
			if err != nil {
				t.Errorf("poller %d: %v", who, err)
				return
			}
			for _, pf := range set {
				if pf.Revents == 0 || ready(pf.Fd) {
					continue
				}
				cc.Close(pf.Fd)
				for i, fd := range live {
					if fd == pf.Fd {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		}
	}
	s.Start("leader", func(c *Context) {
		// One share group, one descriptor table, as in the C10k server.
		for p, lanes := range laneCounts {
			p := p
			var dataR, dataW, ackR, ackW []int
			peer := map[int]int{} // a lane's read end → the write end going back
			for i := 0; i < lanes; i++ {
				dr, dw, err1 := c.Pipe()
				ar, aw, err2 := c.Pipe()
				if err1 != nil || err2 != nil {
					t.Errorf("pipe: %v %v", err1, err2)
					return
				}
				c.SetNonblock(dr, true)
				c.SetNonblock(ar, true)
				dataR, dataW = append(dataR, dr), append(dataW, dw)
				ackR, ackW = append(ackR, ar), append(ackW, aw)
				peer[dr], peer[ar] = aw, dw
			}
			c.Sproc("server", func(cc *Context, _ int64) {
				buf := cc.StackBase()
				left := map[int]int{}
				pollEvery(cc, 2*p, dataR, p%2 == 1, func(fd int) bool {
					if n, _ := cc.Read(fd, buf, 1); n != 1 {
						return true // nothing there after all: keep waiting
					}
					served.Add(1)
					cc.Write(peer[fd], buf, 1)
					left[fd]++
					return left[fd] < rounds
				})
			}, proc.PRSADDR|proc.PRSFDS, 0)
			c.Sproc("client", func(cc *Context, _ int64) {
				buf := cc.StackBase()
				left := map[int]int{}
				for _, w := range dataW {
					cc.Write(w, buf, 1)
					sent.Add(1)
				}
				pollEvery(cc, 2*p+1, ackR, false, func(fd int) bool {
					if n, _ := cc.Read(fd, buf, 1); n != 1 {
						return true
					}
					acked.Add(1)
					if left[fd]++; left[fd] == rounds {
						return false
					}
					cc.Write(peer[fd], buf, 1)
					sent.Add(1)
					return true
				})
			}, proc.PRSADDR|proc.PRSFDS, 0)
		}
		for i := 0; i < 2*pairs; i++ {
			c.Wait()
		}
	})
	done := make(chan struct{})
	go func() { s.WaitIdle(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		var in []bool
		for i := range inPoll {
			in = append(in, inPoll[i].Load())
		}
		t.Fatalf("storm stalled: sent %d, served %d, acknowledged %d; inside poll(2) (server, client per pair): %v",
			sent.Load(), served.Load(), acked.Load(), in)
	}
	if sent.Load() != want || served.Load() != want || acked.Load() != want {
		t.Errorf("conservation: sent %d, served %d, acknowledged %d, want %d each", sent.Load(), served.Load(), acked.Load(), want)
	}
	if sleeps := s.Stats().PollSleeps; sleeps < want/10 {
		t.Errorf("only %d poll sleeps for %d round trips: the storm is not racing sleeps", sleeps, want)
	}
}

// pollDrip has the system to itself: one writer drips single bytes at
// random spacing into a pipe whose reader polls nothing else. The storm's
// lanes time every write off the far end's last reply; these land anywhere
// in the reader's scan-arm-block sequence, and a byte the reader misses is
// never announced again (the pipe is no longer empty), so it sleeps for
// good with the byte in the pipe.
func pollDrip(t *testing.T) {
	const drips = 8000 // fewer than a pipe holds: the writer never waits
	s := NewSystem(testConfig())
	var dripped atomic.Int64
	s.Start("reader", func(c *Context) {
		r, w, err := c.Pipe()
		if err != nil {
			t.Errorf("pipe: %v", err)
			return
		}
		c.SetNonblock(r, true)
		c.Fork("writer", func(cc *Context) {
			rnd := rand.New(rand.NewSource(1988))
			for i := 0; i < drips; i++ {
				cc.Write(w, vm.DataBase, 1)
				for k := rnd.Intn(16); k > 0; k-- {
					cc.Getpid()
				}
			}
		})
		set := []PollFd{{Fd: r, Events: PollIn}}
		for got := 0; got < drips; {
			if _, err := c.Poll(set, -1); err != nil {
				t.Errorf("drip reader: %v", err)
				return
			}
			n, _ := c.Read(r, vm.DataBase, 64)
			got += n
			dripped.Add(int64(n))
		}
		c.Wait()
	})
	done := make(chan struct{})
	go func() { s.WaitIdle(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("drip stalled: the reader is asleep in poll(2) with %d of %d bytes read", dripped.Load(), drips)
	}
}

// TestPollLifetime: a process that polled 64 streams and then exited,
// exec'd, or was killed asleep in poll(2) leaves no registration on any of
// them, and their next transitions wake nobody.
func TestPollLifetime(t *testing.T) {
	const n = 64
	cfg := testConfig()
	cfg.MaxFiles = 2*n + 16
	s := NewSystem(cfg)
	s.Start("parent", func(c *Context) {
		set, wfds, err := pollPipes(c, n)
		if err != nil {
			t.Error(err)
			return
		}
		registrations := func() (total int) {
			c.P.Mu.Lock()
			defer c.P.Mu.Unlock()
			for _, pf := range set {
				f, _ := c.P.GetFd(pf.Fd)
				total += ipc.PollRegistrations(f.Stream)
			}
			return total
		}
		var polled atomic.Bool
		pollAll := func(cc *Context, timeout int) {
			mine := append([]PollFd(nil), set...)
			if got, err := cc.Poll(mine, 0); got != 0 || err != nil {
				t.Errorf("poll of %d idle pipes = (%d, %v)", n, got, err)
			}
			polled.Store(true)
			if timeout != 0 {
				cc.Poll(mine, timeout)
				t.Error("the sleeping poll returned")
			}
		}
		for _, end := range []struct {
			how   string
			child func(cc *Context)
			kill  bool
		}{
			{"exit", func(cc *Context) { pollAll(cc, 0) }, false},
			{"exec", func(cc *Context) {
				pollAll(cc, 0)
				cc.Exec("image2", func(c2 *Context) {
					// The new image must start with none of the old one's
					// registrations, before it exits.
					if r := registrations(); r != 0 {
						t.Errorf("after exec: %d registrations still standing", r)
					}
				})
			}, false},
			{"SIGKILL", func(cc *Context) { pollAll(cc, -1) }, true},
		} {
			polled.Store(false)
			pid, err := c.Fork("poller", end.child)
			if err != nil {
				t.Errorf("%s: fork: %v", end.how, err)
				return
			}
			if end.kill {
				for !polled.Load() {
					c.Getpid()
				}
				if r := registrations(); r != n {
					t.Errorf("%s: %d registrations while the poller sleeps, want %d", end.how, r, n)
				}
				c.Kill(pid, proc.SIGKILL)
			}
			c.Wait()
			if !polled.Load() {
				t.Errorf("%s: the child never polled", end.how)
			}
			if r := registrations(); r != 0 {
				t.Errorf("after %s: %d registrations still standing on the %d pipes", end.how, r, n)
			}
			before := s.Stats().ReadyPollerWakes
			for i, w := range wfds {
				c.WriteString(w, vm.DataBase, "x")
				c.Read(set[i].Fd, vm.DataBase, 1)
			}
			if d := s.Stats().ReadyPollerWakes - before; d != 0 {
				t.Errorf("after %s: %d wakes delivered by transitions on the pipes", end.how, d)
			}
		}
	})
	waitIdle(t, s)
}

// countingStream is a pollable stream that is never ready and counts what
// poll(2) asks of it.
type countingStream struct {
	registers, unregisters, loads atomic.Int64
}

func (s *countingStream) Read(klock.Thread, []byte, bool) (int, error)  { return 0, fs.ErrAgain }
func (s *countingStream) Write(klock.Thread, []byte, bool) (int, error) { return 0, fs.ErrAgain }
func (s *countingStream) Close()                                        {}
func (s *countingStream) Ready() uint16                                 { s.loads.Add(1); return 0 }
func (s *countingStream) PollRegister(*fs.PollWaiter, uint32)           { s.registers.Add(1) }
func (s *countingStream) PollUnregister(*fs.PollWaiter, uint32)         { s.unregisters.Add(1) }

// TestPollUnchangedSetTouchesNoStream: the second call on an unchanged idle
// set asks nothing of any stream — no registration (the only thing poll
// takes a stream's mutex for), no withdrawal, not even a mask load — and
// allocates nothing; the registrations are withdrawn once, when the set
// stops naming them.
func TestPollUnchangedSetTouchesNoStream(t *testing.T) {
	const n = 256
	cfg := testConfig()
	cfg.MaxFiles = n + 16
	s := NewSystem(cfg)
	s.Start("poller", func(c *Context) {
		streams := make([]*countingStream, n)
		set := make([]PollFd, n)
		for i := range streams {
			streams[i] = &countingStream{}
			fd, err := c.installFd(fs.NewFile(nil, streams[i], fs.ORead|fs.OWrite))
			if err != nil {
				t.Errorf("install %d: %v", i, err)
				return
			}
			set[i] = PollFd{Fd: fd, Events: PollIn}
		}
		sum := func() (reg, unreg, loads int64) {
			for _, s := range streams {
				reg += s.registers.Load()
				unreg += s.unregisters.Load()
				loads += s.loads.Load()
			}
			return
		}
		c.Poll(set, 0)
		if reg, unreg, loads := sum(); reg != n || unreg != 0 || loads != n {
			t.Errorf("first call: %d registrations, %d withdrawals, %d loads; want %d, 0, %d", reg, unreg, loads, n, n)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if got, err := c.Poll(set, 0); got != 0 || err != nil {
				t.Errorf("poll = (%d, %v)", got, err)
			}
		})
		if reg, unreg, loads := sum(); reg != n || unreg != 0 || loads != n {
			t.Errorf("after 51 more calls on the same set: %d registrations, %d withdrawals, %d loads; want %d, 0, %d",
				reg, unreg, loads, n, n)
		}
		if allocs != 0 {
			t.Errorf("%.1f allocations per call on an unchanged idle set, want 0", allocs)
		}
		c.Poll(set[:n/2], 0)
		if reg, unreg, _ := sum(); reg != n || unreg != n/2 {
			t.Errorf("after halving the set: %d registrations, %d withdrawals; want %d, %d", reg, unreg, n, n/2)
		}
	})
	waitIdle(t, s)
}

// TestSelectSameDescriptorBothSets: a descriptor in select's read set and
// its write set is two entries of one poll set, and each direction is
// reported on its own.
func TestSelectSameDescriptorBothSets(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		lfd, _ := c.NetListen("both")
		a, err := c.NetConnect("both")
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		b, _ := c.NetAccept(lfd)
		check := func(when string, wantR, wantW bool) {
			t.Helper()
			r, w, err := c.Select([]int{b}, []int{b}, 0)
			if err != nil || (len(r) == 1) != wantR || (len(w) == 1) != wantW {
				t.Errorf("%s: select = (%v, %v, %v), want readable %v writable %v", when, r, w, err, wantR, wantW)
			}
		}
		check("idle", false, true)
		c.WriteString(a, vm.DataBase, "x")
		check("peer wrote", true, true)
		check("again, nothing changed", true, true)
		c.Read(b, vm.DataBase, 1)
		check("drained", false, true)
		c.SetNonblock(b, true)
		for i := 0; i < 4; i++ {
			c.Write(b, vm.DataBase, ipc.PipeCap/2)
		}
		check("outbound full", false, false)
		c.WriteString(a, vm.DataBase, "y")
		check("outbound full, peer wrote", true, false)
		allocs := testing.AllocsPerRun(20, func() { c.Select([]int{b}, []int{b}, 0) })
		if allocs > 1 { // the one ready descriptor's result slice
			t.Errorf("%.0f allocations per select, want the result slice only", allocs)
		}
	})
	waitIdle(t, s)
}
