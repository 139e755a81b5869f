package kernel

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fs"
)

// This file implements poll(2) and select(2) over the waitable-descriptor
// abstraction (fs.Pollable): readiness is level-triggered state published
// by the streams themselves, so poll is a pure consumer. A process keeps
// its interest set between calls: one long-lived waiter stays subscribed
// to the files its last set named, a stream's notification marks the entry
// it belongs to, and a call loads the readiness of marked entries only —
// its cost follows the number of streams that changed, not the size of the
// set. One process watching ten thousand descriptors replaces ten thousand
// processes blocked one-per-descriptor, which is what lets a small share
// group serve the C10k workload (EXPERIMENTS S7).

// Readiness bits re-exported at the syscall surface.
const (
	PollIn   = fs.PollIn
	PollOut  = fs.PollOut
	PollErr  = fs.PollErr
	PollHup  = fs.PollHup
	PollNval = fs.PollNval
)

// PollFd is one entry of a poll set: a descriptor, the events the caller
// cares about, and the result mask the kernel fills in.
type PollFd struct {
	Fd      int
	Events  uint16
	Revents uint16
}

// pollSet is a program image's standing interest set: what its waiter is
// subscribed to, by descriptor. Only the process's own goroutine touches
// it; streams reach the waiter alone.
type pollSet struct {
	w        *fs.PollWaiter // tags are descriptor numbers, up to the ceiling
	slots    []pollSlot     // by descriptor, as long as the highest one polled
	standing int            // slots that hold a file
	nval     int            // entries of the current set that are not open

	// Scratch: one batch of the current call's differences, and
	// select(2)'s poll set.
	changes [pollBatch]pollChange
	sel     []PollFd
}

// pollSlot is one descriptor's standing registration. Its dirty bit lives
// in the waiter, under the descriptor's number as tag; a clean tag says
// the entry was not ready for events the last time its mask was loaded
// and no transition has come since, and a scan never looks at the slot.
type pollSlot struct {
	// file is the open file the waiter is subscribed to, nil when there
	// is none. The pointer is the registration's identity, not a
	// reference: the file may be closed underneath it, and then the slot
	// alone keeps the closed file and its stream reachable — until the
	// process closes the descriptor itself, or the first call that finds
	// it closed, reused or no longer named, or the image's end.
	file   *fs.File
	pos    int32  // first entry of the set last polled that names the descriptor
	events uint16 // Events of the entry that last named it
	dup    bool   // the current set names it more than once
}

// pollChange is a descriptor whose open file is not the one its slot
// holds: withdraw from the old file, subscribe to the new.
type pollChange struct {
	fd int
	f  *fs.File
}

// pollBatch bounds how many differences pollReconcile collects under the
// process lock before it lets go to apply them: a first call on a large
// set is many short holds and a kilobyte of scratch, not one long hold and
// a list as long as the set.
const pollBatch = 64

// pollState returns the image's interest set, made on first use.
func (c *Context) pollState() *pollSet {
	if c.poll == nil {
		c.poll = &pollSet{w: fs.NewPollWaiter(c.P, c.P.FdCeiling())}
	}
	return c.poll
}

// pollEnd withdraws every standing registration: the image is over (exit,
// exec, a fatal signal), and no stream may go on holding its waiter.
func (c *Context) pollEnd() {
	if ps := c.poll; ps != nil {
		ps.withdrawUnnamed(nil)
		c.poll = nil
	}
}

// pollForget withdraws descriptor fd's registration as the process closes
// it. A set that drops only descriptors its process closed then has no
// unnamed slot to look for; one closed by a PR_SFDS sibling, or replaced by
// dup2, is found by the next call instead.
func (c *Context) pollForget(fd int) {
	if ps := c.poll; ps != nil && uint(fd) < uint(len(ps.slots)) {
		ps.withdraw(fd)
	}
}

// withdraw ends descriptor fd's registration, if it has one.
func (ps *pollSet) withdraw(fd int) {
	if sl := &ps.slots[fd]; sl.file != nil {
		sl.file.PollUnregister(ps.w, uint32(fd))
		sl.file = nil
		ps.standing--
	}
}

// names reports whether an entry of fds names the slot's descriptor, fd.
// pos is where the first such entry was when the set was last walked; it
// is trusted only as far as fds bears it out, so a pos left over from
// another set proves nothing.
func (sl *pollSlot) names(fds []PollFd, fd int) bool {
	return int(sl.pos) < len(fds) && fds[sl.pos].Fd == fd
}

// withdrawUnnamed ends every registration whose descriptor fds does not
// name: one walk of the whole table.
func (ps *pollSet) withdrawUnnamed(fds []PollFd) {
	for fd := range ps.slots {
		if sl := &ps.slots[fd]; sl.file != nil && !sl.names(fds, fd) {
			ps.withdraw(fd)
		}
	}
}

// growSlots extends the table to n slots, doubling up to the waiter's tag
// space so a growing set does not copy it per call.
func (ps *pollSet) growSlots(n int) {
	if n > cap(ps.slots) {
		grown := make([]pollSlot, len(ps.slots), min(max(n, 2*cap(ps.slots)), 64*ps.w.Words()))
		copy(grown, ps.slots)
		ps.slots = grown
	}
	ps.slots = ps.slots[:n]
}

// pollReconcile brings the standing registrations in line with the set
// this call names, and is the call's one walk of the set. Under the
// process lock it compares each descriptor's open file with its slot, in
// context-local memory; only the differences — a descriptor polled for the
// first time, closed or reopened since the last call, and slots the set no
// longer names — touch a stream, and they do so with the lock released, a
// batch of pollBatch at a time. A call on an unchanged set takes no
// stream mutex. The walk also clears Revents (PollNval for a descriptor
// that is not open), notes where in the set each descriptor is, and marks
// dirty an entry that asks about other Events than the last call did.
func (c *Context) pollReconcile(fds []PollFd) *pollSet {
	p := c.P
	ps := c.pollState()
	w := ps.w
	ps.nval = 0
	unnamed := ps.standing // standing slots the set has not named so far
	for i := 0; i < len(fds); {
		changes := ps.changes[:0]
		p.Mu.Lock()
		for ; i < len(fds) && len(changes) < pollBatch; i++ {
			pf := &fds[i]
			fd := pf.Fd
			f, _ := p.GetFd(fd)
			pf.Revents = 0
			if f == nil {
				pf.Revents = fs.PollNval
				ps.nval++
			}
			if uint(fd) >= uint(len(ps.slots)) {
				if f == nil {
					continue // not open and never polled: nothing stands
				}
				ps.growSlots(fd + 1)
			}
			sl := &ps.slots[fd]
			if sl.names(fds[:i], fd) {
				sl.dup = true // by an earlier entry
			} else {
				sl.pos, sl.dup = int32(i), false
				if sl.file != nil {
					unnamed--
				}
			}
			if f != sl.file {
				changes = append(changes, pollChange{fd, f})
			}
			if sl.events != pf.Events {
				sl.events = pf.Events
				w.Mark(uint32(fd))
			}
		}
		p.Mu.Unlock()

		for _, ch := range changes {
			if ps.slots[ch.fd].file == ch.f {
				continue // the descriptor is in the set twice
			}
			ps.withdraw(ch.fd)
			if ch.f != nil {
				ps.slots[ch.fd].file = ch.f
				ps.standing++
				ch.f.PollRegister(w, uint32(ch.fd))
				// Nothing has been loaded from this file: the scan must.
				w.Mark(uint32(ch.fd))
			}
		}
		clear(changes) // the scratch keeps no file alive
	}
	if unnamed > 0 {
		ps.withdrawUnnamed(fds)
	}
	return ps
}

// pollScan is one logical scan of the set: it fills in Revents and returns
// the number of entries with a non-zero result. Error conditions (PollErr,
// PollHup, PollNval) report regardless of Events, as in poll(2). It reads
// the waiter's dirty bits a word at a time and loads a stream's mask only
// for a dirty descriptor — marked by a transition since its last load or
// by pollReconcile, or found ready by that load (level-triggered: ready
// stays dirty); every other entry keeps the zero pollReconcile, or the
// scan before this one, left in it. The order is take the marks, then
// load, so a transition that lands in between is kept for the next scan.
func (c *Context) pollScan(ps *pollSet, fds []PollFd) int {
	// One table walk per scan: the classic kernel cost poll pays that a
	// blocked read does not, charged per 8 descriptors like the bitmap
	// word walks of the historical implementation.
	c.charge(int64(len(fds)+7) / 8)
	w := ps.w
	w.BeginScan()
	n := ps.nval
	for i := 0; i < w.Words(); i++ {
		for marks := w.TakeWord(i); marks != 0; marks &= marks - 1 {
			fd := i<<6 | bits.TrailingZeros64(marks)
			if fd >= len(ps.slots) || ps.slots[fd].file == nil {
				continue // marked under a registration since withdrawn
			}
			sl := &ps.slots[fd]
			ready := 0
			if !sl.dup {
				ready = pollLoad(sl.file, &fds[sl.pos])
			} else {
				for j := range fds[sl.pos:] {
					if pf := &fds[int(sl.pos)+j]; pf.Fd == fd {
						ready += pollLoad(sl.file, pf)
					}
				}
			}
			if ready > 0 {
				w.Mark(uint32(fd))
				n += ready
			}
		}
	}
	return n
}

// pollLoad loads f's readiness into pf and reports 1 if any of it shows.
func pollLoad(f *fs.File, pf *PollFd) int {
	pf.Revents = f.PollReady() & (pf.Events | fs.PollErr | fs.PollHup | fs.PollNval)
	if pf.Revents != 0 {
		return 1
	}
	return 0
}

// Poll waits for readiness on a set of descriptors. timeout follows
// poll(2) shape: 0 scans once without sleeping, a negative value blocks
// until some entry is ready, and a positive value bounds the sleep to
// that many milliseconds — the timer's expiry wakes the armed waiter the
// way a stream's transition does, so a timed wait that expires with
// nothing ready returns 0 like poll(2). It returns the number of entries
// with non-zero Revents.
//
// Poll is deliberately not restartable: a caught signal surfaces as EINTR
// (like pause(2)), so serving loops can re-examine shutdown state.
func (c *Context) Poll(fds []PollFd, timeout int) (int, error) {
	return invoke(c, sysPoll, func() (int, error) {
		p := c.P
		ps := c.pollReconcile(fds)
		w := ps.w
		// A positive timeout arms a one-shot timer that ends the sleep the
		// way a transition does. One that outlives the call (Stop lost the
		// race with the firing) can at most wake a later call's sleep once,
		// which every kernel sleep already tolerates as a spurious wake.
		var expired *atomic.Bool
		if timeout > 0 {
			expired = new(atomic.Bool)
			tm := time.AfterFunc(time.Duration(timeout)*time.Millisecond, func() {
				expired.Store(true)
				w.Wake()
			})
			defer tm.Stop()
		}
		timedOut := func() bool { return timeout == 0 || expired != nil && expired.Load() }
		n := c.pollScan(ps, fds)
		for n == 0 {
			if timedOut() {
				return 0, nil
			}
			if p.SignalPending() {
				return -1, ErrInterrupt
			}
			if pl := c.S.faults; pl.Armed(faultinject.SitePollSleep) {
				if hit, _ := pl.Decide(faultinject.SitePollSleep, uint32(p.PID)); hit {
					// Spurious wakeup: deposit a stale wake token. The loop
					// re-scans and goes back down when nothing is ready.
					pl.Note(faultinject.SitePollSleep, faultinject.FaultWakeup, uint32(p.PID))
					p.NotifyWake()
				}
			}
			// Arm, then look for marks, then block: a transition either
			// marked before the look (no sleep) or finds the waiter armed
			// and deposits a token (the sleep ends). The waiter is armed
			// only here, so a transition at any other time costs no wake.
			if w.Arm() && !timedOut() {
				c.S.pollSleeps.Add(1)
				p.Block("poll(2)")
			}
			w.Disarm()
			// Re-scan before looking at signals again, so a wake that
			// carries both readiness and a signal (a child writing and then
			// exiting) reports the events — EINTR only when nothing is ready.
			n = c.pollScan(ps, fds)
		}
		return n, nil
	})
}

// Select is the select(2) veneer: readable and writable descriptor sets
// expressed as one poll set. It is pure delegation — the call dispatches
// (and is accounted) as poll — and returns the subsets actually ready. A
// descriptor in both sets is two entries of the poll set and is reported
// in each direction it is ready for.
func (c *Context) Select(readfds, writefds []int, timeout int) (r, w []int, err error) {
	ps := c.pollState()
	fds := ps.sel[:0]
	for _, fd := range readfds {
		fds = append(fds, PollFd{Fd: fd, Events: fs.PollIn})
	}
	for _, fd := range writefds {
		fds = append(fds, PollFd{Fd: fd, Events: fs.PollOut})
	}
	ps.sel = fds[:0]
	if _, err := c.Poll(fds, timeout); err != nil {
		return nil, nil, err
	}
	for i, pf := range fds {
		if pf.Revents == 0 {
			continue
		}
		if i < len(readfds) {
			r = append(r, pf.Fd)
		} else {
			w = append(w, pf.Fd)
		}
	}
	return r, w, nil
}
