package kernel

// Tests for poll(2), per-descriptor non-blocking mode, and the
// SitePollSleep chaos site: readiness scanning, EINTR-not-restarted
// semantics, and same-seed → same-injection-log determinism.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ipc"
	"repro/internal/proc"
	"repro/internal/vm"
)

func TestPollBasicReadiness(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		r, w, err := c.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		// Empty pipe: read end idle, write end has space.
		set := []PollFd{
			{Fd: r, Events: PollIn},
			{Fd: w, Events: PollOut},
			{Fd: 99, Events: PollIn},
		}
		n, err := c.Poll(set, 0)
		if err != nil || n != 2 {
			t.Fatalf("poll(empty) = %d, %v", n, err)
		}
		if set[0].Revents != 0 {
			t.Errorf("empty read end revents %#x", set[0].Revents)
		}
		if set[1].Revents&PollOut == 0 {
			t.Errorf("write end revents %#x, want PollOut", set[1].Revents)
		}
		if set[2].Revents != PollNval {
			t.Errorf("bad fd revents %#x, want PollNval", set[2].Revents)
		}

		c.WriteString(w, vm.DataBase, "hi")
		if n, _ = c.Poll(set[:1], 0); n != 1 || set[0].Revents&PollIn == 0 {
			t.Errorf("after write: n=%d revents %#x, want PollIn", n, set[0].Revents)
		}

		// A positive timeout with data already buffered returns at once.
		if n, err := c.Poll(set[:1], 1000); err != nil || n != 1 || set[0].Revents&PollIn == 0 {
			t.Errorf("poll(timeout, ready) = (%d, %v) revents %#x, want PollIn", n, err, set[0].Revents)
		}

		// Closing the read end makes the write end an error condition —
		// reported even though Events only asked for PollOut.
		c.Close(r)
		if n, _ = c.Poll(set[1:2], 0); n != 1 || set[1].Revents&PollErr == 0 {
			t.Errorf("readerless write end: n=%d revents %#x, want PollErr", n, set[1].Revents)
		}
	})
	waitIdle(t, s)
}

func TestPollBlocksUntilChildWrites(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		r, w, err := c.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		c.Fork("writer", func(cc *Context) {
			for i := 0; i < 200; i++ {
				cc.Getpid() // burn some time before signalling readiness
			}
			cc.WriteString(w, vm.DataBase, "x")
		})
		set := []PollFd{{Fd: r, Events: PollIn}}
		n, err := c.Poll(set, -1)
		if err != nil || n != 1 || set[0].Revents&PollIn == 0 {
			t.Errorf("poll = (%d, %v) revents %#x", n, err, set[0].Revents)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

// TestPollTimedExpiry: a positive timeout bounds the sleep — nothing ever
// becomes ready, so poll must come back with 0 instead of blocking
// forever (the pre-fix kernel rejected every positive timeout EINVAL).
func TestPollTimedExpiry(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		r, _, err := c.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		set := []PollFd{{Fd: r, Events: PollIn}}
		start := time.Now()
		n, err := c.Poll(set, 25)
		if err != nil || n != 0 {
			t.Errorf("poll(timeout=25, idle) = (%d, %v), want (0, nil)", n, err)
		}
		if el := time.Since(start); el < 20*time.Millisecond {
			t.Errorf("timed poll returned after %v, want a ~25ms bounded sleep", el)
		}
		if set[0].Revents != 0 {
			t.Errorf("expired poll revents %#x, want 0", set[0].Revents)
		}
	})
	waitIdle(t, s)
	if st := s.Stats(); st.PollSleeps == 0 {
		t.Error("timed poll never actually slept")
	}
}

// TestPollTimedReadiness: a readiness transition during the bounded sleep
// ends it early with the event, ahead of the timer.
func TestPollTimedReadiness(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		r, w, err := c.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		c.Fork("writer", func(cc *Context) {
			for i := 0; i < 200; i++ {
				cc.Getpid() // burn some time before signalling readiness
			}
			cc.WriteString(w, vm.DataBase, "x")
		})
		set := []PollFd{{Fd: r, Events: PollIn}}
		// Generous bound: the writer's readiness, not the timer, must end
		// the wait.
		n, err := c.Poll(set, 60_000)
		if err != nil || n != 1 || set[0].Revents&PollIn == 0 {
			t.Errorf("timed poll = (%d, %v) revents %#x, want PollIn", n, err, set[0].Revents)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

// TestPollTimedEINTR: the EINTR contract holds for timed waits too — a
// caught signal during the bounded sleep surfaces as EINTR, not as a
// silent restart or a timeout.
func TestPollTimedEINTR(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		var woke atomic.Bool
		pid, _ := c.Fork("poller", func(cc *Context) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			r, _, err := cc.Pipe()
			if err != nil {
				t.Errorf("pipe: %v", err)
				return
			}
			set := []PollFd{{Fd: r, Events: PollIn}}
			// A bound far past the test's patience: only the signal can
			// end this poll this fast.
			_, err = cc.Poll(set, 600_000)
			if !errors.Is(err, ErrInterrupt) || ErrnoOf(err) != EINTR {
				t.Errorf("interrupted timed poll = %v (errno %v), want EINTR", err, ErrnoOf(err))
			}
			woke.Store(true)
		})
		for !woke.Load() {
			if err := c.Kill(pid, proc.SIGUSR1); err != nil {
				t.Errorf("kill: %v", err)
				break
			}
		}
		c.Wait()
	})
	waitIdle(t, s)
}

// TestSetNonblockEAGAIN: FdNonblock turns would-sleep into EAGAIN in both
// directions, and the flag is per-descriptor, not per-open-file.
func TestSetNonblockEAGAIN(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("main", func(c *Context) {
		r, w, err := c.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		if err := c.SetNonblock(r, true); err != nil {
			t.Fatalf("setnonblock: %v", err)
		}
		if _, err := c.Read(r, vm.DataBase, 4); ErrnoOf(err) != EAGAIN {
			t.Errorf("nonblock read of empty pipe errno %v, want EAGAIN", ErrnoOf(err))
		}
		// A dup of the same open file without the flag would still sleep:
		// the bit lives in the descriptor table, so clearing it restores
		// blocking semantics on the same fd.
		if err := c.SetNonblock(r, false); err != nil {
			t.Fatalf("setnonblock(clear): %v", err)
		}

		c.SetNonblock(w, true)
		c.Store32(vm.DataBase, 0x61626364)
		wrote := 0
		for {
			n, err := c.Write(w, vm.DataBase, 4)
			wrote += n
			if err != nil {
				if ErrnoOf(err) != EAGAIN {
					t.Errorf("filling pipe: errno %v, want EAGAIN", ErrnoOf(err))
				}
				break
			}
			if wrote > ipc.PipeCap {
				t.Fatalf("wrote %d bytes past PipeCap without EAGAIN", wrote)
			}
		}
		if wrote != ipc.PipeCap {
			t.Errorf("nonblock fill stopped at %d bytes, want PipeCap=%d", wrote, ipc.PipeCap)
		}
	})
	waitIdle(t, s)
}

// TestPollEINTRNotRestarted: poll is not under the SA_RESTART policy — a
// caught signal surfaces as EINTR (like pause(2)) so serving loops get a
// chance to re-examine shutdown state.
func TestPollEINTRNotRestarted(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		var woke atomic.Bool
		pid, _ := c.Fork("poller", func(cc *Context) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			r, _, err := cc.Pipe()
			if err != nil {
				t.Errorf("pipe: %v", err)
				return
			}
			set := []PollFd{{Fd: r, Events: PollIn}}
			// Nobody ever writes: only the signal can end this poll. If the
			// gateway restarted it, the call would never return.
			_, err = cc.Poll(set, -1)
			if !errors.Is(err, ErrInterrupt) || ErrnoOf(err) != EINTR {
				t.Errorf("interrupted poll = %v (errno %v), want EINTR", err, ErrnoOf(err))
			}
			woke.Store(true)
		})
		// The signal may land before the poller reaches its sleep (the
		// pause(2) race); keep signalling until it reports waking.
		for !woke.Load() {
			if err := c.Kill(pid, proc.SIGUSR1); err != nil {
				t.Errorf("kill: %v", err)
				break
			}
		}
		c.Wait()
	})
	waitIdle(t, s)
}

// TestPollSleepChaosDeterminism arms only SitePollSleep and replays the
// run: the injected spurious wakeups are drawn from the site's own
// sequence counter, so the same seed must produce the identical log —
// same hits, same sequence numbers — no matter how the host schedules the
// goroutines underneath.
func TestPollSleepChaosDeterminism(t *testing.T) {
	run := func() []faultinject.Record {
		s := NewSystem(testConfig())
		pl := faultinject.New(0xabcdef, 0)
		pl.SetRate(faultinject.SitePollSleep, 800)
		pl.EnableLog(4096)
		s.ArmFaults(pl)

		procCh := make(chan *proc.Proc, 1)
		s.Start("poller", func(c *Context) {
			c.Signal(proc.SIGUSR1, func(int) {})
			r, _, err := c.Pipe()
			if err != nil {
				t.Errorf("pipe: %v", err)
				return
			}
			procCh <- c.P
			set := []PollFd{{Fd: r, Events: PollIn}}
			// Nothing is ever written: the poller spins through the injected
			// spurious wakeups until the site draws a miss, then sleeps for
			// real until the host interrupts it.
			if _, err := c.Poll(set, -1); ErrnoOf(err) != EINTR {
				t.Errorf("chaos poll = %v, want EINTR", err)
			}
		})
		p := <-procCh

		// Wait until the site's decision counter settles: the injected-hit
		// run is a tight spin (each spurious wake returns immediately), so a
		// stable count means the poller drew its miss and truly blocked.
		site := faultinject.SitePollSleep
		deadline := time.Now().Add(10 * time.Second)
		for pl.Checks(site) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("poller never reached the pollsleep site")
			}
			time.Sleep(time.Millisecond)
		}
		for stable := 0; stable < 3; {
			before := pl.Checks(site)
			time.Sleep(50 * time.Millisecond)
			if pl.Checks(site) == before {
				stable++
			} else {
				stable = 0
			}
		}
		p.Post(proc.SIGUSR1)
		waitIdle(t, s)
		return pl.Log()
	}

	log1 := run()
	log2 := run()
	if len(log1) == 0 {
		t.Fatal("seed 0xabcdef at rate 800 injected no spurious wakeups")
	}
	if len(log1) != len(log2) {
		t.Fatalf("log lengths differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("log[%d] differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
	for _, rec := range log1 {
		if rec.Site != faultinject.SitePollSleep || rec.Fault != faultinject.FaultWakeup {
			t.Errorf("unexpected record %+v with only pollsleep armed", rec)
		}
	}
}
