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
// and wakeups through the readiness protocol of pollable.go and implement
// fs.Pollable, so the same transitions that release sleepers also drive
// poll(2).
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

// flow is one direction of a byte stream: the bytes in flight, the ends
// open on each side, the published readiness word and the threads asleep
// on it. The stream that holds it — a Pipe, or a socket pair for both of
// its flows — guards every field with its mutex, and hands the flow what
// else it needs as an owner.
type flow struct {
	buf     []byte
	readers int32
	writers int32

	// ready is the published readiness word: readyRead() in the low half,
	// readyWrite() in the high half. publish recomputes it under the
	// owner's mutex after every change to buf, readers or writers and
	// before the change is announced, so Ready() is a load (see
	// fs.Pollable).
	ready atomic.Uint32

	asleep *sleepers // nil until a thread first sleeps on the flow
}

// sleepers are the threads blocked in a flow's reads and writes, made at
// its first sleep: a flow whose operations never block, as a polled
// connection's, never makes them. Readers and writers wait apart, since a
// full flow can still hold readers left asleep when the baton passed.
type sleepers struct{ readers, writers klock.WaitList }

// list returns the writers' or the readers' list, or nil when no thread
// has slept on the flow yet.
func (s *sleepers) list(write bool) *klock.WaitList {
	switch {
	case s == nil:
		return nil
	case write:
		return &s.writers
	}
	return &s.readers
}

// sleepList returns the list a thread about to sleep joins, making the
// flow's sleepers on the first sleep. Owner's mutex held.
func (f *flow) sleepList(write bool) *klock.WaitList {
	if f.asleep == nil {
		f.asleep = new(sleepers)
	}
	return f.asleep.list(write)
}

// owner is what a flow's operations need from the stream that holds it:
// the mutex guarding the flow, the fault plan and readiness counters, and
// the poll registrations watching the flow's reading and writing ends.
type owner struct {
	mu           *sync.Mutex
	fi           *faultinject.Plan
	ps           *PollStats
	rpoll, wpoll *pollerList
}

// readyRead returns the reader end's readiness mask. Owner's mutex held.
// EOF counts as readable: a read returns immediately (with 0 bytes).
func (f *flow) readyRead() uint16 {
	var m uint16
	if len(f.buf) > 0 {
		m |= fs.PollIn
	}
	if f.writers == 0 {
		m |= fs.PollIn | fs.PollHup
	}
	return m
}

// readyWrite returns the writer end's readiness mask. Owner's mutex held.
// A readerless flow reports PollErr (the write will raise EPIPE), which
// poll reports regardless of the requested event set.
func (f *flow) readyWrite() uint16 {
	if f.readers == 0 {
		return fs.PollErr
	}
	if len(f.buf) < PipeCap {
		return fs.PollOut
	}
	return 0
}

// publish stores the readiness word. Owner's mutex held.
func (f *flow) publish() {
	f.ready.Store(uint32(f.readyRead()) | uint32(f.readyWrite())<<16)
}

// read implements the reader end: block while empty (unless all writers
// are gone: EOF), then drain up to len(b) bytes. A pending signal breaks
// the sleep with ErrIntr; with nonblock an empty flow returns ErrAgain
// instead of sleeping. An armed fault plan occasionally returns fewer
// bytes than are available (short read — always at least one).
func (f *flow) read(o owner, t klock.Thread, b []byte, nonblock bool) (int, error) {
	o.mu.Lock()
	for len(f.buf) == 0 {
		if f.writers == 0 {
			o.mu.Unlock()
			return 0, nil // EOF
		}
		if nonblock {
			o.mu.Unlock()
			return 0, fs.ErrAgain
		}
		if err := sleepOn(o.fi, o.mu, f.sleepList(false), t, "pipe read"); err != nil {
			o.mu.Unlock()
			return 0, err
		}
	}
	wasFull := len(f.buf) == PipeCap
	n := copy(b, f.buf)
	if n > 1 {
		if hit, draw := o.fi.Decide(faultinject.SiteIPCData, uint32(n)); hit {
			n = 1 + int(draw%uint64(n))
			o.fi.Note(faultinject.SiteIPCData, faultinject.FaultShortIO, uint32(n))
		}
	}
	if n == len(f.buf) {
		// Drained: rewind to the start of the backing array, so the next
		// fill reuses it instead of allocating past its end.
		f.buf = f.buf[:0]
	} else {
		f.buf = f.buf[n:]
	}
	f.publish()
	if wasFull && n > 0 {
		// Full→unfull transition: space appeared, release one writer.
		transition(o.ps, f.asleep.list(true), *o.wpoll, false)
	}
	if len(f.buf) > 0 {
		// Data is left over; pass the baton to the next sleeping reader
		// (a targeted wake replaced the historical broadcast, so leftover
		// condition must be handed on explicitly).
		baton(o.ps, f.asleep.list(false))
	}
	o.mu.Unlock()
	return n, nil
}

// write implements the writer end: block while full; EPIPE when no
// readers remain; with nonblock a full flow returns ErrAgain (or a short
// count if some bytes already moved). A signal that lands before any byte
// moved surfaces as ErrIntr; after a partial transfer it surfaces as a
// short write (UNIX write(2) semantics). An armed fault plan also forces
// occasional short writes outright.
//
// Readers are woken once per empty→nonempty transition — at most once per
// buffer-drain cycle — not once per appended chunk: the thundering-herd
// fix. A targeted wake suffices because read passes the baton on.
func (f *flow) write(o owner, t klock.Thread, b []byte, nonblock bool) (int, error) {
	total := 0
	o.mu.Lock()
	for len(b) > 0 {
		if f.readers == 0 {
			o.mu.Unlock()
			return total, fs.ErrPipe
		}
		space := PipeCap - len(f.buf)
		if space == 0 {
			if nonblock {
				o.mu.Unlock()
				if total > 0 {
					return total, nil
				}
				return 0, fs.ErrAgain
			}
			if err := sleepOn(o.fi, o.mu, f.sleepList(true), t, "pipe write"); err != nil {
				o.mu.Unlock()
				if total > 0 {
					return total, nil
				}
				return 0, err
			}
			continue
		}
		n := min(space, len(b))
		wasEmpty := len(f.buf) == 0
		f.buf = append(f.buf, b[:n]...)
		f.publish()
		b = b[n:]
		total += n
		if wasEmpty {
			transition(o.ps, f.asleep.list(false), *o.rpoll, false)
		}
		if len(b) > 0 {
			if hit, _ := o.fi.Decide(faultinject.SiteIPCData, uint32(total)); hit {
				o.fi.Note(faultinject.SiteIPCData, faultinject.FaultShortIO, uint32(total))
				break
			}
		}
	}
	if PipeCap-len(f.buf) > 0 {
		// Space is left over; hand it to the next sleeping writer, if any.
		baton(o.ps, f.asleep.list(true))
	}
	o.mu.Unlock()
	return total, nil
}

// closeEnd closes one end — a terminal transition: broadcast to both
// sides so every sleeper observes EOF/EPIPE and every poller sees
// PollHup/PollErr.
func (f *flow) closeEnd(o owner, read bool) {
	o.mu.Lock()
	if read {
		f.readers--
	} else {
		f.writers--
	}
	f.publish()
	transition(o.ps, f.asleep.list(false), *o.rpoll, true)
	transition(o.ps, f.asleep.list(true), *o.wpoll, true)
	o.mu.Unlock()
}

// Pipe is a bounded kernel byte queue with blocking reads and writes.
type Pipe struct {
	mu sync.Mutex
	flow
	rpoll pollerList // poll registrations on the reader end
	wpoll pollerList // poll registrations on the writer end

	// FI, when armed, injects spurious wakeups (SiteIPCSleep) and short
	// reads/writes (SiteIPCData). The kernel sets it at pipe creation.
	FI *faultinject.Plan
	// PS, when set, aggregates readiness-notification counters for
	// Stats(). The kernel sets it at pipe creation.
	PS *PollStats
}

// NewPipe creates a pipe with one reader and one writer end open.
func NewPipe() *Pipe {
	p := &Pipe{flow: flow{readers: 1, writers: 1}}
	p.publish()
	return p
}

// owner returns the pipe as its flow's owner.
func (p *Pipe) owner() owner { return owner{&p.mu, p.FI, p.PS, &p.rpoll, &p.wpoll} }

// pipeEnd adapts one end of a pipe to fs.Stream and fs.Pollable.
type pipeEnd struct {
	p    *Pipe
	read bool
}

func (e *pipeEnd) Read(t klock.Thread, b []byte, nonblock bool) (int, error) {
	if !e.read {
		return 0, fs.ErrBadFd
	}
	return e.p.read(e.p.owner(), t, b, nonblock)
}

func (e *pipeEnd) Write(t klock.Thread, b []byte, nonblock bool) (int, error) {
	if e.read {
		return 0, fs.ErrBadFd
	}
	return e.p.write(e.p.owner(), t, b, nonblock)
}

func (e *pipeEnd) Close() { e.p.closeEnd(e.p.owner(), e.read) }

// Ready implements fs.Pollable for the end's own side.
func (e *pipeEnd) Ready() uint16 {
	r := e.p.ready.Load()
	if e.read {
		return uint16(r)
	}
	return uint16(r >> 16)
}

// pollers returns the registrations standing on the end.
func (e *pipeEnd) pollers() *pollerList {
	if e.read {
		return &e.p.rpoll
	}
	return &e.p.wpoll
}

// PollRegister implements fs.Pollable: subscribe on the end.
func (e *pipeEnd) PollRegister(w *fs.PollWaiter, tag uint32) {
	e.p.mu.Lock()
	e.pollers().register(w, tag)
	e.p.mu.Unlock()
}

// PollUnregister implements fs.Pollable.
func (e *pipeEnd) PollUnregister(w *fs.PollWaiter, tag uint32) {
	e.p.mu.Lock()
	e.pollers().unregister(w, tag)
	e.p.mu.Unlock()
}

// Ends returns the reader and writer fs.Streams of a pipe.
func (p *Pipe) Ends() (r, w fs.Stream) {
	return &pipeEnd{p: p, read: true}, &pipeEnd{p: p, read: false}
}

// sockPair is a connected pair of duplex byte streams, modelling
// socketpair(2) on a UNIX-domain stream socket, in one allocation: both
// flows, both endpoints, and the one mutex that guards them all, so an
// endpoint's reads, writes and poll registrations serialize with its
// peer's. flows[i] carries what endpoint i writes and the other reads.
type sockPair struct {
	mu    sync.Mutex
	fi    *faultinject.Plan
	ps    *PollStats
	flows [2]flow
	ends  [2]sockEnd
}

// sockEnd is one endpoint of a socket pair and the poll registrations
// standing on it. A registration is one entry, notified by the endpoint's
// inbound read side and its outbound write side.
type sockEnd struct {
	pair    *sockPair
	pollers pollerList
}

// socketPair creates a connected pair of duplex byte streams wired to a
// fault plan and poll-stats aggregator (Connect passes the namespace's
// through).
func socketPair(fi *faultinject.Plan, ps *PollStats) (a, b fs.Stream) {
	p := &sockPair{fi: fi, ps: ps}
	for i := range p.flows {
		p.flows[i].readers, p.flows[i].writers = 1, 1
		p.flows[i].publish()
		p.ends[i].pair = p
	}
	return &p.ends[0], &p.ends[1]
}

// side returns the endpoint's index in its pair.
func (e *sockEnd) side() int {
	if e == &e.pair.ends[0] {
		return 0
	}
	return 1
}

// outflow returns the flow endpoint from writes and the other reads, with
// the pair as its owner.
func (p *sockPair) outflow(from int) (*flow, owner) {
	return &p.flows[from], owner{&p.mu, p.fi, p.ps, &p.ends[1-from].pollers, &p.ends[from].pollers}
}

func (e *sockEnd) Read(t klock.Thread, b []byte, nonblock bool) (int, error) {
	f, o := e.pair.outflow(1 - e.side())
	return f.read(o, t, b, nonblock)
}

func (e *sockEnd) Write(t klock.Thread, b []byte, nonblock bool) (int, error) {
	f, o := e.pair.outflow(e.side())
	return f.write(o, t, b, nonblock)
}

// Close closes the endpoint's reading end of its inbound flow, then its
// writing end of the outbound one.
func (e *sockEnd) Close() {
	s := e.side()
	in, oi := e.pair.outflow(1 - s)
	in.closeEnd(oi, true)
	out, oo := e.pair.outflow(s)
	out.closeEnd(oo, false)
}

// Ready implements fs.Pollable: an endpoint is readable by its inbound
// flow and writable by its outbound one.
func (e *sockEnd) Ready() uint16 {
	s := e.side()
	return uint16(e.pair.flows[1-s].ready.Load()) | uint16(e.pair.flows[s].ready.Load()>>16)
}

// PollRegister implements fs.Pollable.
func (e *sockEnd) PollRegister(w *fs.PollWaiter, tag uint32) {
	e.pair.mu.Lock()
	e.pollers.register(w, tag)
	e.pair.mu.Unlock()
}

// PollUnregister implements fs.Pollable.
func (e *sockEnd) PollUnregister(w *fs.PollWaiter, tag uint32) {
	e.pair.mu.Lock()
	e.pollers.unregister(w, tag)
	e.pair.mu.Unlock()
}
