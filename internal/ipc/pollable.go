package ipc

// This file is the waitable-descriptor substrate: every byte stream the
// kernel exposes (pipe ends, socket-pair endpoints, listeners) routes both
// its blocking *and* its wakeups through one evQueue per direction, and
// publishes every readiness transition — write makes readable, read makes
// writable, close makes EOF/EPIPE, a connection joins the backlog — to the
// sleepers and the poll(2) registrations on that queue. Streams no longer
// touch their wait lists directly; the queue is the single place wake
// policy lives:
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

	"repro/internal/faultinject"
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

// evQueue is one direction's event wait queue: the threads blocked in a
// read/write/accept on the stream plus the poll(2) registrations watching
// it. Every field is guarded by the owning stream's mutex.
type evQueue struct {
	sleepers klock.WaitList
	pollers  []poller
	wakes    atomic.Int64 // sleeper wakeups issued (thundering-herd audit)
}

// poller is one poll(2) registration: the waiter and the tag it asked to
// be notified with. The tag rides here, so a registration costs the waiter
// no memory of its own.
type poller struct {
	w   *fs.PollWaiter
	tag uint32
}

// register subscribes w under tag. Owner's mutex held.
func (q *evQueue) register(w *fs.PollWaiter, tag uint32) {
	q.pollers = append(q.pollers, poller{w, tag})
}

// unregister withdraws w's registration under tag (no-op if absent).
// Owner's mutex held.
func (q *evQueue) unregister(w *fs.PollWaiter, tag uint32) {
	for i, x := range q.pollers {
		if x == (poller{w, tag}) {
			last := len(q.pollers) - 1
			q.pollers[i] = q.pollers[last]
			q.pollers[last] = poller{}
			q.pollers = q.pollers[:last]
			return
		}
	}
}

// wake publishes one readiness transition on the queue: release sleepers —
// all of them when broadcast (terminal transitions: every sleeper's
// condition holds), otherwise exactly one (the baton) — and notify every
// registered poller. PollerWakes counts the notifications that deposited a
// wake token, not the registrations: a standing waiter whose thread is not
// asleep in poll takes its mark and costs no wake. Owner's mutex held.
func (q *evQueue) wake(ps *PollStats, broadcast bool) {
	if ps != nil {
		ps.Transitions.Add(1)
	}
	n := 0
	if broadcast {
		n = q.sleepers.Len()
		q.sleepers.WakeAll()
	} else if q.sleepers.Len() > 0 {
		n = 1
		q.sleepers.WakeOne()
	}
	if n > 0 {
		q.wakes.Add(int64(n))
		if ps != nil {
			ps.SleeperWakes.Add(int64(n))
		}
	}
	woken := 0
	for _, r := range q.pollers {
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
// part of it needs to pass the remainder on. Owner's mutex held.
func (q *evQueue) baton(ps *PollStats) {
	if q.sleepers.Len() == 0 {
		return
	}
	q.sleepers.WakeOne()
	q.wakes.Add(1)
	if ps != nil {
		ps.SleeperWakes.Add(1)
	}
}

// waitOn blocks t on the queue until the next transition (or a signal, or
// an injected spurious wake). Called with mu held and the condition false;
// the caller loops.
func (q *evQueue) waitOn(fi *faultinject.Plan, mu *sync.Mutex, t klock.Thread, reason string) error {
	return sleepOn(fi, mu, &q.sleepers, t, reason)
}

// PollRegistrations returns the number of poll(2) registrations standing
// on the queues of stream s (0 for a stream that is not one of this
// package's): what a process that has exited, exec'd or been killed must
// have left behind on every stream it ever polled.
func PollRegistrations(s fs.Stream) int {
	count := func(mu *sync.Mutex, qs ...*evQueue) (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, q := range qs {
			n += len(q.pollers)
		}
		return n
	}
	switch e := s.(type) {
	case *pipeEnd:
		if e.read {
			return count(e.p.mu, &e.p.rq)
		}
		return count(e.p.mu, &e.p.wq)
	case *duplexEnd:
		return count(e.in.mu, &e.in.rq, &e.out.wq)
	case *Listener:
		return count(&e.mu, &e.q)
	}
	return 0
}

// SleeperWakes returns the number of sleeper wakeups the queue has issued
// (the wake-count assertions of the thundering-herd tests).
func (q *evQueue) SleeperWakes() int64 { return q.wakes.Load() }
