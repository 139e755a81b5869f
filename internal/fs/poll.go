package fs

import (
	"sync/atomic"

	"repro/internal/klock"
)

// Readiness bits, poll(2) style. A descriptor's readiness is level-
// triggered state, not an event: the mask reports what is true *now*, and
// a poller that saw a bit set must still be prepared to block again if the
// condition evaporates before it acts (another consumer got there first).
const (
	PollIn   uint16 = 0x01 // readable: data buffered, EOF, or a pending connection
	PollOut  uint16 = 0x04 // writable: buffer space available and a reader present
	PollErr  uint16 = 0x08 // error condition: write side of a readerless pipe (EPIPE)
	PollHup  uint16 = 0x10 // peer gone: all writers closed, listener shut down
	PollNval uint16 = 0x20 // the descriptor is not open
)

// Pollable is the waitable-descriptor abstraction: a stream whose
// readiness can be queried and waited on. Pipe ends, socket-pair
// endpoints, and listeners implement it; regular files do not need to
// (storage is always ready — poll(2) semantics).
//
// The protocol is level-triggered with edge notification: Ready reports
// the current mask, and every state transition that could turn a bit on
// (write makes readable, read makes writable, close makes EOF/EPIPE, a
// connection joins the backlog) notifies all registered waiters. A waiter
// re-checks Ready after every notification; a notification whose condition
// has already been consumed by someone else is a spurious wake the waiter
// must tolerate.
//
// Ready takes no lock: a stream keeps its mask in an atomic word. A
// registration stands until it is withdrawn, across any number of poll
// calls, and carries a tag the waiter chose; the ordering contract between
// a stream and a standing waiter is
//
//	stream (under its mutex): mutate → publish the mask → Notify(tag),
//	                          which marks the tag dirty, then wakes the
//	                          thread if the waiter is armed
//	poller, per dirty tag:    TakeWord clears the mark → load Ready (Mark
//	                          again if ready: level-triggered)
//	poller, before sleeping:  Arm → re-check for marks → Block
//
// A clean tag therefore means "not ready at the last load and no
// transition since", and the poller may skip the load. Neither order loses
// a transition: one whose mark precedes the TakeWord published before the
// load that follows it; one whose mark follows the TakeWord stays marked
// for the next scan, and there is a next scan because the mark either
// precedes the poller's re-check (it does not block) or follows its Arm
// (the stream sees the waiter armed and deposits a wake token). Register
// runs under the stream's mutex, so a transition either published before
// the poller's first load of a new entry or finds the registration.
type Pollable interface {
	// Ready returns the current readiness mask, without blocking.
	Ready() uint16
	// PollRegister subscribes w to readiness transitions on the stream,
	// under the stream's mutex; every notification passes tag back.
	PollRegister(w *PollWaiter, tag uint32)
	// PollUnregister withdraws the subscription made with the same waiter
	// and tag. Safe to call after the stream closed, and for a pair that
	// was never registered. When it returns, no Notify(tag) from this
	// stream is in flight or will follow.
	PollUnregister(w *PollWaiter, tag uint32)
}

// PollWaiter is one poller's end of its standing registrations: the thread
// to poke, one dirty bit per tag, and the armed flag that says the thread is
// about to sleep. Build one with NewPollWaiter.
type PollWaiter struct {
	T        klock.Thread
	Notified atomic.Int64 // wake tokens Notify deposited

	dirty  []atomic.Uint64 // one bit per tag
	marked atomic.Bool     // a stream marked some tag since BeginScan
	armed  atomic.Bool     // the thread will block unless marked
}

// NewPollWaiter returns a waiter for t with room for tags 0..tags-1,
// disarmed and clean.
func NewPollWaiter(t klock.Thread, tags int) *PollWaiter {
	return &PollWaiter{T: t, dirty: make([]atomic.Uint64, (tags+63)/64)}
}

// Notify delivers one readiness transition on the registration tagged tag
// and reports whether it deposited a wake token for the thread. Unblock
// never blocks (it coalesces into the thread's wake token), so a stream
// may notify from under its own mutex. A waiter that is not armed only
// takes the mark: its thread is not asleep in poll, and will look at the
// marks before it next sleeps.
func (w *PollWaiter) Notify(tag uint32) bool {
	w.Mark(tag)
	w.marked.Store(true)
	if !w.Disarm() {
		return false
	}
	w.Notified.Add(1)
	w.T.Unblock()
	return true
}

// Disarm takes the waiter from armed to disarmed and reports whether this
// call did it. A waker deposits its token only if it did — one token per
// sleep, however many transitions land — and the poller calls it once it is
// past the sleep, taken or not, to end the window in which transitions
// deposit tokens at all.
func (w *PollWaiter) Disarm() bool {
	return w.armed.Load() && w.armed.CompareAndSwap(true, false)
}

// Wake ends the waiter's sleep without a transition (a poll timeout).
func (w *PollWaiter) Wake() {
	if w.Disarm() {
		w.T.Unblock()
	}
}

// Mark sets tag's dirty bit.
func (w *PollWaiter) Mark(tag uint32) {
	word, bit := &w.dirty[tag>>6], uint64(1)<<(tag&63)
	for {
		old := word.Load()
		if old&bit != 0 || word.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// Words returns the number of 64-tag words of dirty bits.
func (w *PollWaiter) Words() int { return len(w.dirty) }

// TakeWord clears the dirty bits of tags 64i..64i+63 and returns them,
// tag 64i in bit 0. A clean word is only read.
func (w *PollWaiter) TakeWord(i int) uint64 {
	if w.dirty[i].Load() == 0 {
		return 0
	}
	return w.dirty[i].Swap(0)
}

// BeginScan opens a scan: marks that land from here on keep the next Arm
// from sleeping.
func (w *PollWaiter) BeginScan() {
	if w.marked.Load() {
		w.marked.Store(false)
	}
}

// Arm announces that the thread is about to block and reports whether it
// may: false when a stream marked a tag since the last BeginScan. The
// caller Disarms once it is past the sleep, taken or not.
func (w *PollWaiter) Arm() bool {
	w.armed.Store(true)
	return !w.marked.Load()
}

// PollReady returns the descriptor's current readiness mask. Streams
// report their own state; regular files and directories are always ready
// for both directions (storage never blocks — classic poll(2) semantics).
func (f *File) PollReady() uint16 {
	if p, ok := f.Stream.(Pollable); ok {
		return p.Ready()
	}
	return PollIn | PollOut
}

// PollRegister subscribes w to the descriptor's readiness transitions. It
// reports false when the descriptor has no transitions to wait for (a
// regular file: always ready).
func (f *File) PollRegister(w *PollWaiter, tag uint32) bool {
	if p, ok := f.Stream.(Pollable); ok {
		p.PollRegister(w, tag)
		return true
	}
	return false
}

// PollUnregister withdraws a PollRegister subscription.
func (f *File) PollUnregister(w *PollWaiter, tag uint32) {
	if p, ok := f.Stream.(Pollable); ok {
		p.PollUnregister(w, tag)
	}
}
