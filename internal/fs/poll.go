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
// Ready takes no lock: a stream keeps its mask in an atomic word. The
// stream's side of the contract is "mutate, publish, notify", all under
// its mutex; the waiter's side is "register (under that same mutex), then
// load". A transition whose critical section precedes the registration has
// published before the load; one that follows it finds the waiter
// registered and notifies it. Neither order loses a wakeup.
type Pollable interface {
	// Ready returns the current readiness mask, without blocking.
	Ready() uint16
	// PollRegister subscribes w to readiness transitions on the stream,
	// under the stream's mutex.
	PollRegister(w *PollWaiter)
	// PollUnregister withdraws a subscription. Safe to call after the
	// stream closed, and for a waiter that was never registered.
	PollUnregister(w *PollWaiter)
}

// PollWaiter is one sleeping poller's registration on a set of pollable
// streams: the thread to poke plus a notification counter the readiness
// conservation tests audit.
type PollWaiter struct {
	T        klock.Thread
	Notified atomic.Int64 // transitions delivered to this waiter
}

// Notify delivers one readiness transition: deposit a level-triggered wake
// for the thread. Unblock never blocks (it coalesces into the thread's
// wake token), so a stream may notify from under its own mutex.
func (w *PollWaiter) Notify() {
	w.Notified.Add(1)
	w.T.Unblock()
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
func (f *File) PollRegister(w *PollWaiter) bool {
	if p, ok := f.Stream.(Pollable); ok {
		p.PollRegister(w)
		return true
	}
	return false
}

// PollUnregister withdraws a PollRegister subscription.
func (f *File) PollUnregister(w *PollWaiter) {
	if p, ok := f.Stream.(Pollable); ok {
		p.PollUnregister(w)
	}
}
