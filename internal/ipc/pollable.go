package ipc

// This file is the waitable-descriptor substrate: every byte stream the
// kernel exposes (pipe ends, socket-pair endpoints, listeners) routes both
// its blocking *and* its wakeups through transition and baton, and
// publishes every readiness transition — write makes readable, read makes
// writable, close makes EOF/EPIPE, a connection joins the backlog — to the
// sleepers and the poll(2) registrations it concerns. Those two functions
// are the single place wake policy lives:
//
//   - Sleepers are woken one at a time on an ordinary transition (the
//     FIFO baton: the woken thread re-wakes the next sleeper if any of the
//     condition is left over when it is done), and all at once only on a
//     terminal transition (close), where every sleeper's condition — EOF,
//     EPIPE, ErrClosed — is now true. This replaces the historical
//     wakeup(&pipe) broadcast after every buffer chunk, which woke every
//     sleeping reader to fight over one chunk of data.
//   - Pollers are level-triggered: every transition notifies all of them,
//     and each re-checks Ready, so a notification whose condition was
//     consumed first is just a spurious wake.

import (
	"sync"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/klock"
)

// PollStats aggregates the readiness-notification counters of every stream
// wired to it. The kernel arms one per system at boot and surfaces it
// through Stats(); the conservation storms audit it directly.
type PollStats struct {
	Transitions  atomic.Int64 // readiness transitions published
	SleeperWakes atomic.Int64 // blocked stream operations released
	PollerWakes  atomic.Int64 // wake tokens deposited for pollers
}

// pollerList is the poll(2) registrations watching one stream end, guarded
// by the owning stream's mutex.
type pollerList []poller

// poller is one poll(2) registration: the waiter and the tag it asked to
// be notified with. The tag rides here, so a registration costs the waiter
// no memory of its own.
type poller struct {
	w   *fs.PollWaiter
	tag uint32
}

// register subscribes w under tag. Owner's mutex held.
func (l *pollerList) register(w *fs.PollWaiter, tag uint32) {
	*l = append(*l, poller{w, tag})
}

// unregister withdraws w's registration under tag (no-op if absent).
// Owner's mutex held.
func (l *pollerList) unregister(w *fs.PollWaiter, tag uint32) {
	ps := *l
	for i, x := range ps {
		if x == (poller{w, tag}) {
			last := len(ps) - 1
			ps[i] = ps[last]
			ps[last] = poller{}
			*l = ps[:last]
			return
		}
	}
}

// transition publishes one readiness transition: release sleepers — all of
// them when broadcast (terminal transitions: every sleeper's condition
// holds), otherwise exactly one (the baton) — and notify every registered
// poller. sleepers may be nil: no thread ever slept on that side.
// PollerWakes counts the notifications that deposited a wake token, not the
// registrations: a standing waiter whose thread is not asleep in poll takes
// its mark and costs no wake. Owner's mutex held.
func transition(ps *PollStats, sleepers *klock.WaitList, pollers pollerList, broadcast bool) {
	if ps != nil {
		ps.Transitions.Add(1)
	}
	if sleepers != nil {
		n := 0
		if broadcast {
			n = sleepers.WakeAll()
		} else if sleepers.WakeOne() {
			n = 1
		}
		if ps != nil && n > 0 {
			ps.SleeperWakes.Add(int64(n))
		}
	}
	woken := 0
	for _, r := range pollers {
		if r.w.Notify(r.tag) {
			woken++
		}
	}
	if ps != nil && woken > 0 {
		ps.PollerWakes.Add(int64(woken))
	}
}

// baton hands a leftover condition to the next sleeper without
// republishing a transition: pollers are level-triggered and were already
// notified when the condition appeared, so only a sleeper that consumed
// part of it needs to pass the remainder on. sleepers may be nil. Owner's
// mutex held.
func baton(ps *PollStats, sleepers *klock.WaitList) {
	if sleepers != nil && sleepers.WakeOne() && ps != nil {
		ps.SleeperWakes.Add(1)
	}
}

// PollRegistrations returns the number of poll(2) registrations standing
// on stream s (0 for a stream that is not one of this package's): what a
// process that has exited, exec'd or been killed must have left behind on
// every stream it ever polled.
func PollRegistrations(s fs.Stream) int {
	count := func(mu *sync.Mutex, l *pollerList) int {
		mu.Lock()
		defer mu.Unlock()
		return len(*l)
	}
	switch e := s.(type) {
	case *pipeEnd:
		return count(&e.p.mu, e.pollers())
	case *sockEnd:
		return count(&e.pair.mu, &e.pollers)
	case *Listener:
		return count(&e.mu, &e.pollers)
	}
	return 0
}
