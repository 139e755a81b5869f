package kernel

// Tests for what one poll(2) call costs and leaves behind: the cycles it
// charges on the sim meter, the host allocations of a warm call, and the
// stream registrations that must all be gone when it returns.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/proc"
	"repro/internal/vm"
)

// pollPipes opens n pipes and returns a poll set over their read ends and
// the matching write descriptors.
func pollPipes(c *Context, n int) (set []PollFd, wfds []int, err error) {
	for i := 0; i < n; i++ {
		r, w, err := c.Pipe()
		if err != nil {
			return nil, nil, fmt.Errorf("pipe %d of %d: %w", i, n, err)
		}
		set = append(set, PollFd{Fd: r, Events: PollIn})
		wfds = append(wfds, w)
	}
	return set, wfds, nil
}

// TestPollChargesPinned fixes what a poll(2) call costs on the sim meter —
// syscall entry and exit, one (n+7)/8 table walk per scan, and the sleep —
// for sets of 1, 8, 9 and 1 000 descriptors, by each way a call can go:
// something ready at the first scan, nothing ready with timeout 0, and one
// sleep ended by a child's write. One simulated CPU and a time slice no
// call outlasts: the child runs exactly while the caller sleeps. The host
// side of a warm call is held to a constant number of allocations.
func TestPollChargesPinned(t *testing.T) {
	t.Run("simcyc", pollSimcycPinned)
	t.Run("allocs", pollAllocsConstant)
}

func pollSimcycPinned(t *testing.T) {
	type row struct{ simcyc, cycles int64 }
	want := map[int][3]row{
		1:    {{161, 101}, {161, 101}, {162, 102}},
		8:    {{161, 101}, {161, 101}, {162, 102}},
		9:    {{162, 102}, {162, 102}, {164, 104}},
		1000: {{285, 225}, {285, 225}, {410, 350}},
	}
	cfg := Config{NCPU: 1, MemFrames: 8192, TimeSlice: 1 << 40, MaxFiles: 2100}
	for _, n := range []int{1, 8, 9, 1000} {
		s := NewSystem(cfg)
		s.Start("poller", func(c *Context) {
			set, wfds, err := pollPipes(c, n)
			if err != nil {
				t.Error(err)
				return
			}
			last := wfds[n-1]
			measure := func(timeout int) (row, int) {
				sim, cyc := sysSimCyc(c.S, SysPoll), c.P.Cycles.Load()
				got, err := c.Poll(set, timeout)
				if err != nil {
					t.Errorf("n=%d poll(%d): %v", n, timeout, err)
				}
				return row{sysSimCyc(c.S, SysPoll) - sim, c.P.Cycles.Load() - cyc}, got
			}
			var got [3]row
			var ready int

			// The last entry is the ready one, so the subscribing scan
			// covers the whole set.
			c.WriteString(last, vm.DataBase, "x")
			if got[0], ready = measure(-1); ready != 1 {
				t.Errorf("n=%d ready at entry: %d ready, want 1", n, ready)
			}
			c.Read(set[n-1].Fd, vm.DataBase, 1)

			if got[1], ready = measure(0); ready != 0 {
				t.Errorf("n=%d idle, timeout 0: %d ready, want 0", n, ready)
			}

			sleeps := s.Stats().PollSleeps
			c.Fork("writer", func(cc *Context) { cc.WriteString(last, vm.DataBase, "x") })
			if got[2], ready = measure(-1); ready != 1 {
				t.Errorf("n=%d after a sleep: %d ready, want 1", n, ready)
			}
			if d := s.Stats().PollSleeps - sleeps; d != 1 {
				t.Errorf("n=%d: the sleeping call slept %d times, want 1", n, d)
			}
			c.Wait()

			for i, name := range []string{"ready at entry", "idle, timeout 0", "one sleep then ready"} {
				if got[i] != want[n][i] {
					t.Errorf("n=%d %s: simcyc %d, caller cycles %d; pinned %d and %d",
						n, name, got[i].simcyc, got[i].cycles, want[n][i].simcyc, want[n][i].cycles)
				}
			}
		})
		waitIdle(t, s)
	}
}

// pollAllocsConstant: a warm call over 1 024 descriptors allocates the same
// few objects a call over one does — the waiter and the call's closures —
// whether it only scans (timeout 0) or subscribes to the whole set before
// finding its last entry ready.
func pollAllocsConstant(t *testing.T) {
	const n = 1024
	s := NewSystem(Config{NCPU: 1, MemFrames: 8192, TimeSlice: 1 << 40, MaxFiles: 2*n + 16})
	s.Start("poller", func(c *Context) {
		set, wfds, err := pollPipes(c, n)
		if err != nil {
			t.Error(err)
			return
		}
		for _, tc := range []struct {
			name    string
			timeout int
			ready   bool
		}{{"scan only", 0, false}, {"subscribe to all", -1, true}} {
			if tc.ready {
				c.WriteString(wfds[n-1], vm.DataBase, "x")
			}
			c.Poll(set, tc.timeout) // warm: scratch and poller lists sized
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := c.Poll(set, tc.timeout); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			})
			if allocs > 8 {
				t.Errorf("%s: %.0f allocations per warm %d-descriptor poll, want a constant few", tc.name, allocs, n)
			}
		}
	})
	waitIdle(t, s)
}

// TestPollLeavesNoWaiter: by whichever route a call returns — ready at the
// first scan (part of the set subscribed), ready after a sleep, timed out,
// interrupted, or cut short by a descriptor that is not open — no stream
// of the set still holds the call's waiter. The probe is the streams' own
// counter: a transition on every stream of the set afterwards notifies
// nobody.
func TestPollLeavesNoWaiter(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("poller", func(c *Context) {
		const n = 4
		set, wfds, err := pollPipes(c, n)
		if err != nil {
			t.Error(err)
			return
		}
		for _, pf := range set {
			c.SetNonblock(pf.Fd, true)
		}
		drain := func() {
			for _, pf := range set {
				c.Read(pf.Fd, vm.DataBase, 8)
			}
		}
		// strays counts the notifications a fresh empty→readable
		// transition on every pipe still delivers.
		strays := func() int64 {
			drain()
			before := s.Stats().ReadyPollerWakes
			for _, w := range wfds {
				c.WriteString(w, vm.DataBase, "x")
			}
			drain()
			return s.Stats().ReadyPollerWakes - before
		}
		check := func(route string) {
			t.Helper()
			if d := strays(); d != 0 {
				t.Errorf("%s: %d notifications reached a waiter left behind", route, d)
			}
		}

		c.WriteString(wfds[2], vm.DataBase, "x")
		if got, err := c.Poll(set, -1); err != nil || got != 1 {
			t.Errorf("ready at entry: (%d, %v)", got, err)
		}
		check("ready at entry")

		c.Fork("writer", func(cc *Context) {
			for i := 0; i < 200; i++ {
				cc.Getpid() // let the poller reach its sleep first
			}
			cc.WriteString(wfds[3], vm.DataBase, "x")
		})
		if got, err := c.Poll(set, -1); err != nil || got != 1 {
			t.Errorf("ready after sleep: (%d, %v)", got, err)
		}
		c.Wait()
		check("ready after sleep")

		if got, err := c.Poll(set, 10); err != nil || got != 0 {
			t.Errorf("timeout: (%d, %v)", got, err)
		}
		check("timeout")

		var woke atomic.Bool
		c.Signal(proc.SIGUSR1, func(int) {})
		me := c.Getpid()
		c.Fork("killer", func(cc *Context) {
			for !woke.Load() {
				cc.Kill(me, proc.SIGUSR1)
			}
		})
		if _, err := c.Poll(set, -1); !errors.Is(err, ErrInterrupt) {
			t.Errorf("interrupted poll: %v, want EINTR", err)
		}
		woke.Store(true)
		c.Wait()
		check("EINTR")

		bad := append(append([]PollFd{}, set[:2]...), PollFd{Fd: 99, Events: PollIn})
		bad = append(bad, set[2:]...)
		if got, err := c.Poll(bad, -1); err != nil || got != 1 || bad[2].Revents != PollNval {
			t.Errorf("bad descriptor: (%d, %v) revents %#x", got, err, bad[2].Revents)
		}
		check("bad descriptor")
	})
	waitIdle(t, s)
}
