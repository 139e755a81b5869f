package kernel

// Tests for what one poll(2) call leaves behind: the host allocations of a
// warm call, and the stream registrations that must all be gone when it
// returns. What it charges on the sim meter is in the charge table
// (charges_test.go).

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

// TestPollAllocsConstant: a warm call over 1 024 descriptors allocates the same
// few objects a call over one does — the waiter and the call's closures —
// whether it only scans (timeout 0) or subscribes to the whole set before
// finding its last entry ready.
func TestPollAllocsConstant(t *testing.T) {
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
