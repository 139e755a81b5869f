package kernel

import (
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fs"
)

// This file implements poll(2) and select(2) over the waitable-descriptor
// abstraction (fs.Pollable): readiness is level-triggered state published
// by the streams themselves, so poll is a pure consumer — resolve the set
// to open files once, subscribe to each file's event queues while scanning
// it, and sleep until some stream publishes a transition. One process
// watching ten thousand descriptors replaces ten thousand processes
// blocked one-per-descriptor, which is what lets a small share group serve
// the C10k workload (EXPERIMENTS S7).

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

// pollResolve snapshots the open file behind every entry of the set, nil
// for a descriptor that is not open, under one hold of the process lock.
// The snapshot is what the whole call scans and what it unregisters from,
// so a descriptor closed or reused while the caller sleeps cannot strand
// its registration on the old file. It lives in the context's scratch
// slice; Poll clears it on the way out.
func (c *Context) pollResolve(fds []PollFd) []*fs.File {
	files := c.pollFiles[:0]
	p := c.P
	p.Mu.Lock()
	for i := range fds {
		f, _ := p.GetFd(fds[i].Fd)
		files = append(files, f)
	}
	p.Mu.Unlock()
	c.pollFiles = files
	return files
}

// pollScan fills in Revents for every entry and returns the number of
// entries with a non-zero result. Error conditions (PollErr, PollHup,
// PollNval) report regardless of Events, as in poll(2).
//
// With reg set the scan also subscribes: it registers reg on each file
// before reading that file's mask (the order fs.Pollable needs), and stops
// registering at the first ready entry — the call will not sleep, so the
// rest are only read. registered is the length of the subscribed prefix.
func (c *Context) pollScan(fds []PollFd, files []*fs.File, reg *fs.PollWaiter) (n, registered int) {
	// One table walk per scan: the classic kernel cost poll pays that a
	// blocked read does not, charged per 8 descriptors like the bitmap
	// word walks of the historical implementation.
	c.charge(int64(len(fds)+7) / 8)
	for i, f := range files {
		fds[i].Revents = 0
		if f == nil {
			fds[i].Revents = fs.PollNval
			n++
			continue
		}
		if reg != nil && n == 0 {
			f.PollRegister(reg)
			registered = i + 1
		}
		r := f.PollReady() & (fds[i].Events | fs.PollErr | fs.PollHup | fs.PollNval)
		if r != 0 {
			fds[i].Revents = r
			n++
		}
	}
	return n, registered
}

// Poll waits for readiness on a set of descriptors. timeout follows
// poll(2) shape: 0 scans once without sleeping, a negative value blocks
// until some entry is ready, and a positive value bounds the sleep to
// that many milliseconds — the timer's expiry rides the same wake-token
// baton a stream's readiness transition does, so a timed wait that
// expires with nothing ready returns 0 like poll(2). It returns the
// number of entries with non-zero Revents.
//
// Poll is deliberately not restartable: a caught signal surfaces as EINTR
// (like pause(2)), so serving loops can re-examine shutdown state.
func (c *Context) Poll(fds []PollFd, timeout int) (int, error) {
	return invoke(c, sysPoll, func() (int, error) {
		p := c.P
		files := c.pollResolve(fds)
		w := &fs.PollWaiter{T: p}
		// A positive timeout arms a one-shot timer whose expiry notifies
		// our own waiter registration: the same level-triggered deposit a
		// stream transition makes, so the sleep below needs no second wake
		// channel. A timer that outlives the call (Stop lost the race with
		// the firing) leaves at most one stale wake token behind, which
		// every kernel sleep already tolerates as a spurious wake.
		var expired atomic.Bool
		if timeout > 0 {
			tm := time.AfterFunc(time.Duration(timeout)*time.Millisecond, func() {
				expired.Store(true)
				w.Notify()
			})
			defer tm.Stop()
		}
		// The first scan of a call that may sleep subscribes as it goes, so
		// a transition that lands between a file's scan and the sleep
		// deposits a wake token instead of being lost. If that scan finds
		// nothing, every file is subscribed and later scans only read.
		// Stale tokens surface as spurious wakes; the loop re-scans and
		// goes back down.
		reg := w
		if timeout == 0 {
			reg = nil
		}
		n, registered := c.pollScan(fds, files, reg)
		defer func() {
			for _, f := range files[:registered] {
				if f != nil {
					f.PollUnregister(w)
				}
			}
			clear(files)
		}()
		for n == 0 {
			if timeout == 0 || expired.Load() {
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
			c.S.pollSleeps.Add(1)
			p.Block("poll(2)")
			// Re-scan before looking at signals again, so a wake that
			// carries both readiness and a signal (a child writing and then
			// exiting) reports the events — EINTR only when nothing is ready.
			n, _ = c.pollScan(fds, files, nil)
		}
		return n, nil
	})
}

// Select is the select(2) veneer: readable and writable descriptor sets
// expressed as one poll set. It is pure delegation — the call dispatches
// (and is accounted) as poll — and returns the subsets actually ready.
func (c *Context) Select(readfds, writefds []int, timeout int) (r, w []int, err error) {
	fds := make([]PollFd, 0, len(readfds)+len(writefds))
	for _, fd := range readfds {
		fds = append(fds, PollFd{Fd: fd, Events: fs.PollIn})
	}
	for _, fd := range writefds {
		fds = append(fds, PollFd{Fd: fd, Events: fs.PollOut})
	}
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
