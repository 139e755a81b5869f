// Package klock provides the kernel synchronization primitives the share
// group implementation is built from: spin locks (lock_t), sleeping
// semaphores (sema_t), and the shared read lock of paper §6.2 composed from
// a spin lock, two counters, and a semaphore — exactly the s_acclck /
// s_acccnt / s_waitcnt / s_updwait fields of the shared address block.
//
// Sleeping primitives operate on a Thread, the minimal interface a
// schedulable entity must provide. The process layer implements Thread so
// that sleeping in the kernel releases the simulated CPU (design goal 2 of
// paper §6: synchronization must proceed even though some members are not
// available for execution).
package klock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Thread is a schedulable entity that can be blocked and unblocked.
// Unblock may be called before Block; the pair must still rendezvous
// (no lost wakeups).
type Thread interface {
	// Block suspends the caller until Unblock is called. It must be
	// invoked only by the thread itself.
	Block(reason string)
	// Unblock makes a past or future Block return. One Unblock releases
	// exactly one Block.
	Unblock()
}

// Interruptible is a Thread whose kernel sleeps can be broken by signal
// delivery. Sleep loops built on WaitList check SignalPending after every
// wake so a poke from the signal layer turns into EINTR instead of a
// re-sleep.
type Interruptible interface {
	Thread
	// SignalPending reports whether an unmasked signal is pending.
	SignalPending() bool
}

// Spin is a busy-wait kernel lock (lock_t). Kernel spin locks protect short
// critical sections; the holder never sleeps.
type Spin struct {
	state      atomic.Int32
	Contention atomic.Int64 // acquisitions that had to spin
}

// Lock acquires the spin lock, busy-waiting until free.
func (s *Spin) Lock() {
	if s.state.CompareAndSwap(0, 1) {
		return
	}
	s.Contention.Add(1)
	for {
		for s.state.Load() != 0 {
			runtime.Gosched()
		}
		if s.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

// TryLock acquires the lock if it is free.
func (s *Spin) TryLock() bool { return s.state.CompareAndSwap(0, 1) }

// Unlock releases the spin lock.
func (s *Spin) Unlock() {
	if !s.state.CompareAndSwap(1, 0) {
		panic("klock: unlock of unlocked Spin")
	}
}

// WaitList is a FIFO of blocked threads, manipulated under the owner's
// own lock. Wakeups target specific threads, so — unlike a counting
// semaphore shared between waiters with different predicates — a wakeup
// can never be consumed by a waiter it was not meant for. The owner's
// pattern is:
//
//	mu.Lock()
//	for !condition {
//		list.Append(t)
//		mu.Unlock()
//		t.Block(reason)
//		mu.Lock()
//	}
//
// and wakers call WakeOne/WakeAll while holding mu. Thread.Unblock is
// buffered, so a wake issued between Append and Block is not lost.
type WaitList struct {
	ts []Thread
}

// Append registers t as the newest waiter. Caller holds the owner's lock.
func (w *WaitList) Append(t Thread) {
	w.ts = append(w.ts, t)
}

// WakeOne unblocks the oldest waiter, reporting whether there was one.
// Caller holds the owner's lock.
func (w *WaitList) WakeOne() bool {
	if len(w.ts) == 0 {
		return false
	}
	t := w.ts[0]
	w.ts = w.ts[1:]
	t.Unblock()
	return true
}

// WakeAll unblocks every waiter, returning how many. Caller holds the
// owner's lock.
func (w *WaitList) WakeAll() int {
	n := len(w.ts)
	for _, t := range w.ts {
		t.Unblock()
	}
	w.ts = nil
	return n
}

// Remove deregisters t wherever it sits in the list, reporting whether it
// was present. A waiter woken for a reason other than its wakeup — signal
// poke, spurious wake — must Remove itself after re-acquiring the owner's
// lock, or a later WakeOne would spend its wakeup on the stale entry.
// Caller holds the owner's lock.
func (w *WaitList) Remove(t Thread) bool {
	for i, x := range w.ts {
		if x == t {
			w.ts = append(w.ts[:i], w.ts[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of waiters. Caller holds the owner's lock.
func (w *WaitList) Len() int { return len(w.ts) }

// waiter is one thread sleeping on a semaphore.
type waiter struct {
	t       Thread
	granted bool
}

// Sema is a counting sleep/wakeup semaphore (sema_t). P may block; V wakes
// the longest sleeper first (FIFO).
type Sema struct {
	mu      sync.Mutex
	count   int
	waiters []*waiter

	Sleeps  atomic.Int64
	Wakeups atomic.Int64
}

// NewSema returns a semaphore with the given initial count.
func NewSema(n int) *Sema { return &Sema{count: n} }

// P decrements the semaphore, sleeping while the count is zero, and
// reports whether it slept.
func (s *Sema) P(t Thread, reason string) (slept bool) {
	s.mu.Lock()
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return false
	}
	w := &waiter{t: t}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	s.Sleeps.Add(1)
	// Wake tokens are level-triggered (a signal poke can leave a stale
	// one), so a returning Block does not by itself mean the semaphore was
	// granted — re-sleep until V marked this waiter granted.
	for {
		t.Block(reason)
		s.mu.Lock()
		granted := w.granted
		s.mu.Unlock()
		if granted {
			return true
		}
	}
}

// V increments the semaphore, or, when a thread sleeps on it, hands it to
// the oldest sleeper (the IRIX vsema hand-off) and yields the host once.
// Unblock only makes the grantee's goroutine runnable (in the releaser's
// runnext slot): until the host runs it, the owner is neither on a
// simulated CPU nor in a run queue, and every thread that comes back for
// the semaphore sleeps behind an owner that cannot run (DESIGN §16).
func (s *Sema) V() {
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.count++
		s.mu.Unlock()
		return
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	w.granted = true
	s.mu.Unlock()
	s.Wakeups.Add(1)
	w.t.Unblock()
	runtime.Gosched()
}

// Count returns the current count (for tests and diagnostics).
func (s *Sema) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Waiting returns the number of sleeping threads.
func (s *Sema) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}
