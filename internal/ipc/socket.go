package ipc

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/klock"
)

// Socket-layer errors.
var (
	ErrAddrInUse = errors.New("ipc: address already in use") // EADDRINUSE
	ErrNoListen  = errors.New("ipc: connection refused")     // ECONNREFUSED
	ErrClosed    = errors.New("ipc: listener closed")
)

// Listener accepts stream connections on a name — an abstract-namespace
// UNIX-domain listening socket. It lives behind a descriptor like any
// other stream (the kernel installs it in the fd table), implements
// fs.Pollable (PollIn = backlog non-empty), and blocks and wakes through
// transition and baton like the pipes do. Its fs.Stream Read/Write reject with EBADF:
// a listening socket moves no data.
type Listener struct {
	name    string
	net     *NetNames
	fi      *faultinject.Plan
	ps      *PollStats
	mu      sync.Mutex
	pending []fs.Stream
	closed  bool

	sleepers klock.WaitList // threads blocked in accept
	pollers  pollerList

	// ready is the published readiness mask: publish recomputes it under
	// mu after every change to pending or closed and before the change is
	// announced, so Ready() is a load (see fs.Pollable).
	ready atomic.Uint32
}

// readyMask returns the readiness mask: PollIn when a connection is
// waiting in the backlog (the poll-driven accept loop's signal), PollHup
// once closed. Caller holds l.mu.
func (l *Listener) readyMask() uint16 {
	var m uint16
	if len(l.pending) > 0 {
		m |= fs.PollIn
	}
	if l.closed {
		m |= fs.PollIn | fs.PollHup
	}
	return m
}

// publish stores the readiness mask. Caller holds l.mu.
func (l *Listener) publish() { l.ready.Store(uint32(l.readyMask())) }

// Accept blocks until a client connects, returning the server-side stream.
// A pending signal breaks the wait with ErrIntr; with nonblock an empty
// backlog returns fs.ErrAgain instead of sleeping.
func (l *Listener) Accept(t klock.Thread, nonblock bool) (fs.Stream, error) {
	l.mu.Lock()
	for {
		if len(l.pending) > 0 {
			s := l.pending[0]
			l.pending = l.pending[1:]
			l.publish()
			if len(l.pending) > 0 {
				// Backlog left over: hand it to the next sleeping acceptor.
				baton(l.ps, &l.sleepers)
			}
			l.mu.Unlock()
			return s, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, ErrClosed
		}
		if nonblock {
			l.mu.Unlock()
			return nil, fs.ErrAgain
		}
		if err := sleepOn(l.fi, &l.mu, &l.sleepers, t, "accept: wait for connection"); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
}

// Close stops the listener — a terminal transition: wake pending accepts
// (they return ErrClosed) and every poller (PollHup).
func (l *Listener) Close() {
	l.mu.Lock()
	l.closed = true
	l.publish()
	transition(l.ps, &l.sleepers, l.pollers, true)
	l.mu.Unlock()
	l.net.mu.Lock()
	delete(l.net.listeners, l.name)
	l.net.mu.Unlock()
}

// Read implements fs.Stream: a listening socket moves no data.
func (l *Listener) Read(klock.Thread, []byte, bool) (int, error) {
	return 0, fs.ErrBadFd
}

// Write implements fs.Stream: a listening socket moves no data.
func (l *Listener) Write(klock.Thread, []byte, bool) (int, error) {
	return 0, fs.ErrBadFd
}

// Ready implements fs.Pollable.
func (l *Listener) Ready() uint16 { return uint16(l.ready.Load()) }

// PollRegister implements fs.Pollable.
func (l *Listener) PollRegister(w *fs.PollWaiter, tag uint32) {
	l.mu.Lock()
	l.pollers.register(w, tag)
	l.mu.Unlock()
}

// PollUnregister implements fs.Pollable.
func (l *Listener) PollUnregister(w *fs.PollWaiter, tag uint32) {
	l.mu.Lock()
	l.pollers.unregister(w, tag)
	l.mu.Unlock()
}

// NetNames is the abstract socket namespace.
type NetNames struct {
	mu        sync.Mutex
	fi        *faultinject.Plan
	ps        *PollStats
	listeners map[string]*Listener
}

// NewNetNames creates an empty namespace.
func NewNetNames() *NetNames {
	return &NetNames{listeners: map[string]*Listener{}}
}

// SetFault arms the namespace with a fault plan: accepts and subsequently
// connected stream pairs inherit it. Call at boot.
func (n *NetNames) SetFault(fi *faultinject.Plan) {
	n.mu.Lock()
	n.fi = fi
	n.mu.Unlock()
}

// SetPollStats wires the namespace's readiness counters: listeners and
// subsequently connected stream pairs publish into ps. Call at boot.
func (n *NetNames) SetPollStats(ps *PollStats) {
	n.mu.Lock()
	n.ps = ps
	n.mu.Unlock()
}

// Listen binds a listener to name.
func (n *NetNames) Listen(name string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[name]; ok {
		return nil, ErrAddrInUse
	}
	l := &Listener{name: name, net: n, fi: n.fi, ps: n.ps}
	n.listeners[name] = l
	return l, nil
}

// Connect establishes a stream to the listener bound at name, returning
// the client-side stream. Joining the backlog is a readiness transition:
// a sleeping acceptor is released and the listener's pollers are notified.
func (n *NetNames) Connect(t klock.Thread, name string) (fs.Stream, error) {
	n.mu.Lock()
	l, ok := n.listeners[name]
	fi, ps := n.fi, n.ps
	n.mu.Unlock()
	if !ok {
		return nil, ErrNoListen
	}
	client, server := socketPair(fi, ps)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrNoListen
	}
	l.pending = append(l.pending, server)
	l.publish()
	transition(ps, &l.sleepers, l.pollers, false)
	l.mu.Unlock()
	return client, nil
}
