// Package ipc implements the queueing IPC mechanisms the paper contrasts
// share groups against: pipes (the Version 7 model), System V message
// queues, semaphores and shared memory (the System V model of Figure 2),
// and stream socket pairs (the BSD model). All of them move data through
// kernel buffers with sleep/wakeup synchronization — the data copying and
// kernel interaction whose cost motivates the shared-memory/busy-wait
// model of paper §3.
//
// Blocking uses targeted wait lists (klock.WaitList): every wakeup is
// addressed to a specific thread, so a wakeup can never be stolen by a
// waiter whose condition is still false. Byte streams route all blocking
// and wakeups through per-direction event queues (pollable.go) and
// implement fs.Pollable, so the same transitions that release sleepers
// also drive poll(2).
package ipc

import (
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/klock"
)

// PipeCap is a pipe's kernel buffer capacity (ten 1 KiB blocks, as in
// classic UNIX).
const PipeCap = 10240

// Pipe is a bounded kernel byte queue with blocking reads and writes.
type Pipe struct {
	// mu guards buf, readers, writers and both queues. It points at the
	// pipe's own lock, or — for the two pipes of a socket pair — at the
	// first one's, so an endpoint's poller subscribes to and withdraws
	// from both directions under one hold (socketPair).
	mu      *sync.Mutex
	lock    sync.Mutex
	buf     []byte
	readers int32
	writers int32
	rq      evQueue // reader-side events: data arrived, writers gone
	wq      evQueue // writer-side events: space appeared, readers gone

	// ready is the published readiness word: readyRead() in the low half,
	// readyWrite() in the high half. publish recomputes it under mu after
	// every change to buf, readers or writers and before the change is
	// announced on a queue, so Ready() is a load (see fs.Pollable).
	ready atomic.Uint32

	// FI, when armed, injects spurious wakeups (SiteIPCSleep) and short
	// reads/writes (SiteIPCData). The kernel sets it at pipe creation.
	FI *faultinject.Plan
	// PS, when set, aggregates readiness-notification counters for
	// Stats(). The kernel sets it at pipe creation.
	PS *PollStats

	BytesMoved atomic.Int64
}

// NewPipe creates a pipe with one reader and one writer end open.
func NewPipe() *Pipe {
	p := &Pipe{readers: 1, writers: 1}
	p.mu = &p.lock
	p.publish()
	return p
}

// WakeCounts returns the sleeper wakeups issued on the reader and writer
// queues — the thundering-herd tests assert these stay proportional to
// transitions, not to sleepers × chunks.
func (p *Pipe) WakeCounts() (readers, writers int64) {
	return p.rq.SleeperWakes(), p.wq.SleeperWakes()
}

// readyRead returns the reader end's readiness mask. Caller holds p.mu.
// EOF counts as readable: a read returns immediately (with 0 bytes).
func (p *Pipe) readyRead() uint16 {
	var m uint16
	if len(p.buf) > 0 {
		m |= fs.PollIn
	}
	if p.writers == 0 {
		m |= fs.PollIn | fs.PollHup
	}
	return m
}

// readyWrite returns the writer end's readiness mask. Caller holds p.mu.
// A readerless pipe reports PollErr (the write will raise EPIPE), which
// poll reports regardless of the requested event set.
func (p *Pipe) readyWrite() uint16 {
	if p.readers == 0 {
		return fs.PollErr
	}
	if len(p.buf) < PipeCap {
		return fs.PollOut
	}
	return 0
}

// publish stores the readiness word. Caller holds p.mu.
func (p *Pipe) publish() {
	p.ready.Store(uint32(p.readyRead()) | uint32(p.readyWrite())<<16)
}

// read implements the reader end: block while empty (unless all writers
// are gone: EOF), then drain up to len(b) bytes. A pending signal breaks
// the sleep with ErrIntr; with nonblock an empty pipe returns ErrAgain
// instead of sleeping. An armed fault plan occasionally returns fewer
// bytes than are available (short read — always at least one).
func (p *Pipe) read(t klock.Thread, b []byte, nonblock bool) (int, error) {
	p.mu.Lock()
	for len(p.buf) == 0 {
		if p.writers == 0 {
			p.mu.Unlock()
			return 0, nil // EOF
		}
		if nonblock {
			p.mu.Unlock()
			return 0, fs.ErrAgain
		}
		if err := p.rq.waitOn(p.FI, p.mu, t, "pipe read"); err != nil {
			p.mu.Unlock()
			return 0, err
		}
	}
	wasFull := len(p.buf) == PipeCap
	n := copy(b, p.buf)
	if n > 1 {
		if hit, draw := p.FI.Decide(faultinject.SiteIPCData, uint32(n)); hit {
			n = 1 + int(draw%uint64(n))
			p.FI.Note(faultinject.SiteIPCData, faultinject.FaultShortIO, uint32(n))
		}
	}
	if n == len(p.buf) {
		// Drained: rewind to the start of the backing array, so the next
		// fill reuses it instead of allocating past its end.
		p.buf = p.buf[:0]
	} else {
		p.buf = p.buf[n:]
	}
	p.publish()
	p.BytesMoved.Add(int64(n))
	if wasFull && n > 0 {
		// Full→unfull transition: space appeared, release one writer.
		p.wq.wake(p.PS, false)
	}
	if len(p.buf) > 0 {
		// Data is left over; pass the baton to the next sleeping reader
		// (a targeted wake replaced the historical broadcast, so leftover
		// condition must be handed on explicitly).
		p.rq.baton(p.PS)
	}
	p.mu.Unlock()
	return n, nil
}

// write implements the writer end: block while full; EPIPE when no
// readers remain; with nonblock a full pipe returns ErrAgain (or a short
// count if some bytes already moved). A signal that lands before any byte
// moved surfaces as ErrIntr; after a partial transfer it surfaces as a
// short write (UNIX write(2) semantics). An armed fault plan also forces
// occasional short writes outright.
//
// Readers are woken once per empty→nonempty transition — at most once per
// buffer-drain cycle — not once per appended chunk: the thundering-herd
// fix. A targeted wake suffices because read passes the baton on.
func (p *Pipe) write(t klock.Thread, b []byte, nonblock bool) (int, error) {
	total := 0
	p.mu.Lock()
	for len(b) > 0 {
		if p.readers == 0 {
			p.mu.Unlock()
			return total, fs.ErrPipe
		}
		space := PipeCap - len(p.buf)
		if space == 0 {
			if nonblock {
				p.mu.Unlock()
				if total > 0 {
					return total, nil
				}
				return 0, fs.ErrAgain
			}
			if err := p.wq.waitOn(p.FI, p.mu, t, "pipe write"); err != nil {
				p.mu.Unlock()
				if total > 0 {
					return total, nil
				}
				return 0, err
			}
			continue
		}
		n := space
		if n > len(b) {
			n = len(b)
		}
		wasEmpty := len(p.buf) == 0
		p.buf = append(p.buf, b[:n]...)
		p.publish()
		b = b[n:]
		total += n
		if wasEmpty {
			p.rq.wake(p.PS, false)
		}
		if len(b) > 0 {
			if hit, _ := p.FI.Decide(faultinject.SiteIPCData, uint32(total)); hit {
				p.FI.Note(faultinject.SiteIPCData, faultinject.FaultShortIO, uint32(total))
				break
			}
		}
	}
	if PipeCap-len(p.buf) > 0 {
		// Space is left over; hand it to the next sleeping writer, if any.
		p.wq.baton(p.PS)
	}
	p.mu.Unlock()
	return total, nil
}

// closeEnd closes one end — a terminal transition: broadcast both
// directions so every sleeper observes EOF/EPIPE and every poller sees
// PollHup/PollErr.
func (p *Pipe) closeEnd(read bool) {
	p.mu.Lock()
	if read {
		p.readers--
	} else {
		p.writers--
	}
	p.publish()
	p.rq.wake(p.PS, true)
	p.wq.wake(p.PS, true)
	p.mu.Unlock()
}

// pipeEnd adapts one end of a pipe to fs.Stream and fs.Pollable.
type pipeEnd struct {
	p    *Pipe
	read bool
}

func (e *pipeEnd) Read(t klock.Thread, b []byte, nonblock bool) (int, error) {
	if !e.read {
		return 0, fs.ErrBadFd
	}
	return e.p.read(t, b, nonblock)
}

func (e *pipeEnd) Write(t klock.Thread, b []byte, nonblock bool) (int, error) {
	if e.read {
		return 0, fs.ErrBadFd
	}
	return e.p.write(t, b, nonblock)
}

func (e *pipeEnd) Close() { e.p.closeEnd(e.read) }

// Ready implements fs.Pollable for the end's own direction.
func (e *pipeEnd) Ready() uint16 {
	r := e.p.ready.Load()
	if e.read {
		return uint16(r)
	}
	return uint16(r >> 16)
}

// PollRegister implements fs.Pollable: subscribe on the end's queue.
func (e *pipeEnd) PollRegister(w *fs.PollWaiter, tag uint32) {
	e.p.mu.Lock()
	if e.read {
		e.p.rq.register(w, tag)
	} else {
		e.p.wq.register(w, tag)
	}
	e.p.mu.Unlock()
}

// PollUnregister implements fs.Pollable.
func (e *pipeEnd) PollUnregister(w *fs.PollWaiter, tag uint32) {
	e.p.mu.Lock()
	if e.read {
		e.p.rq.unregister(w, tag)
	} else {
		e.p.wq.unregister(w, tag)
	}
	e.p.mu.Unlock()
}

// Ends returns the reader and writer fs.Streams of a pipe.
func (p *Pipe) Ends() (r, w fs.Stream) {
	return &pipeEnd{p: p, read: true}, &pipeEnd{p: p, read: false}
}

// duplexEnd is one endpoint of a connected stream pair: it reads from one
// pipe and writes to the other (the socketpair model).
type duplexEnd struct {
	in  *Pipe
	out *Pipe
}

func (d *duplexEnd) Read(t klock.Thread, b []byte, nonblock bool) (int, error) {
	return d.in.read(t, b, nonblock)
}
func (d *duplexEnd) Write(t klock.Thread, b []byte, nonblock bool) (int, error) {
	return d.out.write(t, b, nonblock)
}
func (d *duplexEnd) Close() {
	d.in.closeEnd(true)
	d.out.closeEnd(false)
}

// Ready implements fs.Pollable: a duplex endpoint is readable by its
// inbound pipe and writable by its outbound one.
func (d *duplexEnd) Ready() uint16 {
	return uint16(d.in.ready.Load()) | uint16(d.out.ready.Load()>>16)
}

// PollRegister implements fs.Pollable: subscribe to both directions,
// under the pair's one mutex.
func (d *duplexEnd) PollRegister(w *fs.PollWaiter, tag uint32) {
	d.in.mu.Lock()
	d.in.rq.register(w, tag)
	d.out.wq.register(w, tag)
	d.in.mu.Unlock()
}

// PollUnregister implements fs.Pollable.
func (d *duplexEnd) PollUnregister(w *fs.PollWaiter, tag uint32) {
	d.in.mu.Lock()
	d.in.rq.unregister(w, tag)
	d.out.wq.unregister(w, tag)
	d.in.mu.Unlock()
}

// SocketPair creates a connected pair of duplex byte streams, modelling
// socketpair(2) on a UNIX-domain stream socket.
func SocketPair() (a, b fs.Stream) { return socketPair(nil, nil) }

// socketPair is SocketPair with both underlying pipes wired to a fault
// plan and poll-stats aggregator (Connect passes the namespace's through).
func socketPair(fi *faultinject.Plan, ps *PollStats) (a, b fs.Stream) {
	p1, p2 := NewPipe(), NewPipe()
	p2.mu = p1.mu
	p1.FI, p2.FI = fi, fi
	p1.PS, p2.PS = ps, ps
	return &duplexEnd{in: p1, out: p2}, &duplexEnd{in: p2, out: p1}
}
