package ipc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fs"
)

// stateMask recomputes a stream's readiness from the fields its mutexes
// guard. The caller holds those mutexes, or is the only goroutine there is.
func stateMask(s fs.Stream) uint16 {
	switch e := s.(type) {
	case *pipeEnd:
		if e.read {
			return e.p.readyRead()
		}
		return e.p.readyWrite()
	case *duplexEnd:
		return e.in.readyRead() | e.out.readyWrite()
	case *Listener:
		return e.readyMask()
	}
	panic(fmt.Sprintf("stateMask: %T", s))
}

// lockedMask is stateMask under the stream's mutex: the reference the
// lock-free Ready() must agree with.
func lockedMask(s fs.Stream) uint16 {
	var mu *sync.Mutex
	switch e := s.(type) {
	case *pipeEnd:
		mu = e.p.mu
	case *duplexEnd:
		mu = e.in.mu // the pair's one mutex
	case *Listener:
		mu = &e.mu
	}
	mu.Lock()
	defer mu.Unlock()
	return stateMask(s)
}

// notifyProbe is the thread of a waiter left registered on one stream. A
// stream notifies from inside its critical section, so Unblock runs with
// the announced state in place and checks the order fs.Pollable promises:
// the word Ready() loads was published before the notification went out.
// It arms its waiter again each time, so every transition reaches it.
type notifyProbe struct {
	s        fs.Stream
	w        *fs.PollWaiter
	notified int
	stale    string
}

func (p *notifyProbe) Block(string) {}
func (p *notifyProbe) Unblock() {
	p.notified++
	if got, want := p.s.(fs.Pollable).Ready(), stateMask(p.s); got != want && p.stale == "" {
		p.stale = fmt.Sprintf("notification %d went out with %#x published, state %#x", p.notified, got, want)
	}
	p.w.Arm()
}

// TestPublishedReadinessMatchesLockedState drives seeded random sequences
// of write, read, close, connect and accept over pipes, socket pairs and a
// listener — every mutation of buf, readers, writers, pending and closed —
// and after each step compares every stream's published word with the
// mask recomputed under its mutex; a waiter registered on every stream makes
// the same comparison at each notification, from inside the transition.
// Closed streams stay in the comparison: a poller may hold one past its
// close.
func TestPublishedReadinessMatchesLockedState(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		th := newGoThread()
		net := NewNetNames()
		var lis *Listener
		var all, open []fs.Stream
		var probes []*notifyProbe
		watch := func(s fs.Stream) {
			all = append(all, s)
			pr := &notifyProbe{s: s}
			probes = append(probes, pr)
			pr.w = fs.NewPollWaiter(pr, 1)
			pr.w.Arm()
			s.(fs.Pollable).PollRegister(pr.w, 0)
		}
		add := func(ss ...fs.Stream) {
			for _, s := range ss {
				watch(s)
			}
			open = append(open, ss...)
		}
		buf := make([]byte, PipeCap+64)
		for step := 0; step < 2500; step++ {
			op := "idle"
			pick := -1
			if len(open) > 0 {
				pick = rnd.Intn(len(open))
			}
			switch k := rnd.Intn(20); {
			case k == 0 && len(open) < 12:
				op = "pipe"
				add(NewPipe().Ends())
			case k == 1 && len(open) < 12:
				op = "socketpair"
				add(SocketPair())
			case k == 2:
				if lis == nil {
					op = "listen"
					lis, _ = net.Listen("srv")
					watch(lis)
				} else {
					op = "close listener"
					lis.Close()
					lis = nil
				}
			case k <= 4 && lis != nil && len(open) < 12:
				op = "connect"
				if s, err := net.Connect(th, "srv"); err == nil {
					add(s)
				}
			case k <= 6 && lis != nil:
				op = "accept"
				if s, err := lis.Accept(th, true); err == nil {
					add(s)
				}
			case k <= 12 && pick >= 0:
				// Sizes from one byte to more than a pipe holds: partial
				// fills, exact fills and short writes all occur.
				n := 1 + rnd.Intn(len(buf))
				if rnd.Intn(2) == 0 {
					n = 1 + rnd.Intn(64)
				}
				op = fmt.Sprintf("write %d on #%d", n, pick)
				open[pick].Write(th, buf[:n], true)
			case k <= 18 && pick >= 0:
				n := 1 + rnd.Intn(len(buf))
				op = fmt.Sprintf("read %d on #%d", n, pick)
				open[pick].Read(th, buf[:n], true)
			case pick >= 0:
				op = fmt.Sprintf("close #%d", pick)
				open[pick].Close()
				open = append(open[:pick], open[pick+1:]...)
			}
			for i, s := range all {
				if got, want := s.(fs.Pollable).Ready(), lockedMask(s); got != want {
					t.Fatalf("seed %d step %d (%s): stream %d (%T) publishes %#x, state under its mutex says %#x",
						seed, step, op, i, s, got, want)
				}
				if probes[i].stale != "" {
					t.Fatalf("seed %d step %d (%s): stream %d (%T): %s", seed, step, op, i, s, probes[i].stale)
				}
			}
		}
		seen := 0
		for _, pr := range probes {
			seen += pr.notified
		}
		if seen < 500 {
			t.Fatalf("seed %d: the probes saw %d notifications in 2500 steps; they are not being re-armed", seed, seen)
		}
	}
}
