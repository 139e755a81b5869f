package ipc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fs"
)

// pollThread models the process layer's coalescing wake token: Unblock
// never blocks, extra wakes collapse into one. PollWaiter.Notify runs
// under the stream's own mutex and depends on exactly this property.
type pollThread struct{ ch chan struct{} }

func newPollThread() *pollThread     { return &pollThread{ch: make(chan struct{}, 1)} }
func (g *pollThread) Block(_ string) { <-g.ch }
func (g *pollThread) Unblock() {
	select {
	case g.ch <- struct{}{}:
	default:
	}
}

// waitSleepers blocks until p has exactly n sleeping readers (the only way
// a test can know a reader goroutine has actually gone down on the pipe).
func waitSleepers(t *testing.T, p *Pipe, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		got := 0
		if l := p.asleep.list(false); l != nil {
			got = l.Len()
		}
		p.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sleepers (have %d)", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipeSingleWakePerTransition is the thundering-herd regression test:
// a write that makes an empty pipe readable wakes exactly one of the
// sleeping readers, not all of them — the historical wakeup(&pipe)
// broadcast woke every sleeper to fight over one chunk.
func TestPipeSingleWakePerTransition(t *testing.T) {
	p := NewPipe()
	p.PS = &PollStats{}
	r, w := p.Ends()
	const nReaders = 3
	results := make(chan int, nReaders)
	for i := 0; i < nReaders; i++ {
		g := newGoThread()
		go func() {
			buf := make([]byte, 1)
			n, _ := r.Read(g, buf, false)
			results <- n
		}()
	}
	waitSleepers(t, p, nReaders)

	th := newGoThread()
	w.Write(th, []byte("x"), false)
	if n := <-results; n != 1 {
		t.Fatalf("woken reader got %d bytes", n)
	}
	if rw := p.PS.SleeperWakes.Load(); rw != 1 {
		t.Errorf("one write to %d sleepers issued %d reader wakes, want exactly 1", nReaders, rw)
	}
	// The other readers must still be asleep — no byte arrived for them.
	waitSleepers(t, p, nReaders-1)

	w.Write(th, []byte("y"), false)
	<-results
	w.Write(th, []byte("z"), false)
	<-results
	if rw := p.PS.SleeperWakes.Load(); rw != nReaders {
		t.Errorf("%d single-byte writes issued %d reader wakes, want %d (one per transition)",
			nReaders, rw, nReaders)
	}
}

// TestPipeReadBatonPassing: one write carrying enough data for every
// sleeping reader releases them one at a time through the baton — each
// wake is productive (the woken reader finds data), and the whole chain
// publishes only the single empty→nonempty transition to pollers.
func TestPipeReadBatonPassing(t *testing.T) {
	p := NewPipe()
	p.PS = &PollStats{}
	r, w := p.Ends()
	const nReaders = 3
	results := make(chan int, nReaders)
	for i := 0; i < nReaders; i++ {
		g := newGoThread()
		go func() {
			buf := make([]byte, 1)
			n, _ := r.Read(g, buf, false)
			results <- n
		}()
	}
	waitSleepers(t, p, nReaders)

	th := newGoThread()
	if n, err := w.Write(th, []byte("abc"), false); n != 3 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	for i := 0; i < nReaders; i++ {
		if n := <-results; n != 1 {
			t.Fatalf("reader got %d bytes, want 1", n)
		}
	}
	if rw := p.PS.SleeperWakes.Load(); rw != nReaders {
		t.Errorf("baton chain issued %d wakes, want %d (every wake productive)", rw, nReaders)
	}
	if tr := p.PS.Transitions.Load(); tr != 1 {
		t.Errorf("chain published %d transitions, want 1 (batons are not transitions)", tr)
	}
}

// TestPipeCloseBroadcast: close is a terminal transition — every sleeping
// reader is released at once and observes EOF.
func TestPipeCloseBroadcast(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	const nReaders = 2
	results := make(chan int, nReaders)
	for i := 0; i < nReaders; i++ {
		g := newGoThread()
		go func() {
			buf := make([]byte, 4)
			n, _ := r.Read(g, buf, false)
			results <- n
		}()
	}
	waitSleepers(t, p, nReaders)
	w.Close()
	for i := 0; i < nReaders; i++ {
		if n := <-results; n != 0 {
			t.Errorf("reader woken by close got %d bytes, want 0 (EOF)", n)
		}
	}
}

// TestPipeNonblock: EAGAIN instead of sleeping, in both directions.
func TestPipeNonblock(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	th := newGoThread()
	if _, err := r.Read(th, make([]byte, 4), true); err != fs.ErrAgain {
		t.Errorf("nonblock read of empty pipe: %v, want ErrAgain", err)
	}
	if n, err := w.Write(th, make([]byte, PipeCap), true); n != PipeCap || err != nil {
		t.Fatalf("fill: %d, %v", n, err)
	}
	if _, err := w.Write(th, []byte("x"), true); err != fs.ErrAgain {
		t.Errorf("nonblock write to full pipe: %v, want ErrAgain", err)
	}
	// A nonblock write that moves some bytes before filling reports the
	// short count, not EAGAIN.
	buf := make([]byte, 4)
	r.Read(th, buf, false)
	if n, err := w.Write(th, make([]byte, 100), true); n != 4 || err != nil {
		t.Errorf("partial nonblock write = %d, %v; want 4, nil", n, err)
	}
}

// TestListenerNonblockAndReadiness: accept honours nonblock, and the
// listener's readiness mask tracks its backlog and closure.
func TestListenerNonblockAndReadiness(t *testing.T) {
	net := NewNetNames()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	th := newGoThread()
	if _, err := l.Accept(th, true); err != fs.ErrAgain {
		t.Errorf("nonblock accept with empty backlog: %v, want ErrAgain", err)
	}
	if m := l.Ready(); m != 0 {
		t.Errorf("idle listener ready mask %#x, want 0", m)
	}
	if _, err := net.Connect(th, "svc"); err != nil {
		t.Fatal(err)
	}
	if m := l.Ready(); m&fs.PollIn == 0 {
		t.Errorf("listener with backlog ready mask %#x, want PollIn", m)
	}
	if _, err := l.Accept(th, true); err != nil {
		t.Errorf("nonblock accept with backlog: %v", err)
	}
	l.Close()
	if m := l.Ready(); m&fs.PollHup == 0 {
		t.Errorf("closed listener ready mask %#x, want PollHup", m)
	}
}

// pollWait is poll(2)'s protocol for one stream, as the kernel runs it on a
// standing registration (w registered on p under tag 0 by the caller): take
// the mark, then load the mask; while none of want is set, arm, look for a
// mark made meanwhile, and only then sleep on the wake token. asleep
// brackets each sleep, for the stall reports.
func pollWait(p fs.Pollable, g *pollThread, w *fs.PollWaiter, want uint16, asleep *atomic.Bool) uint16 {
	for {
		w.BeginScan()
		w.TakeWord(0)
		if m := p.Ready() & want; m != 0 {
			w.Mark(0) // level-triggered: ready stays dirty
			return m
		}
		if w.Arm() {
			asleep.Store(true)
			g.Block("poll")
			asleep.Store(false)
		}
		w.Disarm()
	}
}

// TestReadinessConservationStormRace hammers a socket pair with concurrent
// writers, readers, and pollers (run under -race in tier 1) at GOMAXPROCS
// 1, 2 and NumCPU, and audits the readiness layer twice over. Conservation:
// every byte written is read, the aggregate counts exactly the wakes the
// sleeping threads were sent, and every poller notification the pair
// published was delivered to a registered waiter. Liveness: no poller is left asleep
// while its stream is ready — in the storm, where the last transition (the
// close) must reach every poller, and in a ping-pong where every single
// transition is the only one that will ever come.
func TestReadinessConservationStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			readinessStorm(t)
			readinessPingPong(t)
		})
	}
}

// readinessPingPong bounces one byte between two poll-driven endpoints.
// Each side's write races the other side's take-load-arm-sleep, and nothing
// else ever touches the pair, so one lost wakeup stops the exchange for
// good with a ready stream and a sleeping poller.
func readinessPingPong(t *testing.T) {
	const rounds = 5000
	a, b := socketPair(nil, nil)
	var asleep [2]atomic.Bool
	side := func(s fs.Stream, serve bool, asleep *atomic.Bool) error {
		g, th := newPollThread(), newGoThread()
		w := fs.NewPollWaiter(g, 1)
		s.(fs.Pollable).PollRegister(w, 0)
		defer s.(fs.Pollable).PollUnregister(w, 0)
		one := []byte{0}
		for i := 0; i < rounds; i++ {
			if !serve {
				if _, err := s.Write(th, one, true); err != nil {
					return fmt.Errorf("round %d write: %v", i, err)
				}
			}
			pollWait(s.(fs.Pollable), g, w, fs.PollIn, asleep)
			if n, err := s.Read(th, one, true); n != 1 || err != nil {
				return fmt.Errorf("round %d read after PollIn: (%d, %v)", i, n, err)
			}
			if serve {
				if _, err := s.Write(th, one, true); err != nil {
					return fmt.Errorf("round %d write: %v", i, err)
				}
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	go func() { errs <- side(a, false, &asleep[0]) }()
	go func() { errs <- side(b, true, &asleep[1]) }()
	deadline := time.After(60 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			// The two goroutines stay parked; the pair is garbage to
			// everyone else.
			t.Fatalf("ping-pong stalled: client asleep=%v with mask %#x, server asleep=%v with mask %#x",
				asleep[0].Load(), lockedMask(a), asleep[1].Load(), lockedMask(b))
		}
	}
}

// readinessStorm is the conservation audit: four writers and one reader
// move 64 KiB across a socket pair while two pollers poll its read side.
func readinessStorm(t *testing.T) {
	ps := &PollStats{}
	a, b := socketPair(nil, ps)
	const nWriters = 4
	const perWriter = 16 * 1024

	// Pollers call poll on the b endpoint for the whole storm, on one
	// standing registration each, until they see the hang-up. Nothing stops
	// them from outside.
	const nPollers = 2
	waiters := make([]*fs.PollWaiter, nPollers)
	asleep := make([]atomic.Bool, nPollers)
	var pollerWG sync.WaitGroup
	pb := b.(fs.Pollable)
	for i := 0; i < nPollers; i++ {
		g := newPollThread()
		w := fs.NewPollWaiter(g, 1)
		waiters[i] = w
		pollerWG.Add(1)
		go func(asleep *atomic.Bool) {
			defer pollerWG.Done()
			pb.PollRegister(w, 0)
			defer pb.PollUnregister(w, 0)
			for pollWait(pb, g, w, fs.PollIn|fs.PollHup, asleep)&fs.PollHup == 0 {
				runtime.Gosched() // readable: the reader's to consume
			}
		}(&asleep[i])
	}

	// Every stream operation sleeps on a thread that counts the wakeups it
	// is sent.
	var woken atomic.Int64
	var writerWG sync.WaitGroup
	for i := 0; i < nWriters; i++ {
		writerWG.Add(1)
		go func(seed byte) {
			defer writerWG.Done()
			g := &countedThread{newGoThread(), &woken}
			buf := make([]byte, 37) // deliberately misaligned with PipeCap
			for k := range buf {
				buf[k] = seed
			}
			sent := 0
			for sent < perWriter {
				n := len(buf)
				if perWriter-sent < n {
					n = perWriter - sent
				}
				m, err := a.Write(g, buf[:n], false)
				if err != nil {
					t.Errorf("storm write: %v", err)
					return
				}
				sent += m
			}
		}(byte(i))
	}

	var total atomic.Int64
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		g := &countedThread{newGoThread(), &woken}
		buf := make([]byte, 101)
		for {
			n, err := b.Read(g, buf, false)
			if err != nil {
				t.Errorf("storm read: %v", err)
				return
			}
			if n == 0 {
				return // EOF: all writers closed
			}
			total.Add(int64(n))
		}
	}()

	// Close a once every writer is finished, so the reader sees EOF
	// exactly after the last byte; then let the reader drain.
	writerWG.Wait()
	a.Close()
	readerWG.Wait()

	pollersDone := make(chan struct{})
	go func() { pollerWG.Wait(); close(pollersDone) }()
	select {
	case <-pollersDone:
	case <-time.After(60 * time.Second):
		for i := range asleep {
			t.Errorf("poller %d asleep=%v after the close; stream mask %#x", i, asleep[i].Load(), lockedMask(b))
		}
		t.FailNow()
	}

	if got := total.Load(); got != nWriters*perWriter {
		t.Errorf("conservation: read %d bytes, wrote %d", got, nWriters*perWriter)
	}
	var notified int64
	for _, w := range waiters {
		notified += w.Notified.Load()
	}
	if pw := ps.PollerWakes.Load(); pw != notified {
		t.Errorf("conservation: the pair published %d poller wakes, waiters received %d", pw, notified)
	}
	if sw := ps.SleeperWakes.Load(); sw != woken.Load() {
		t.Errorf("conservation: sleepers were sent %d wakes, aggregate says %d", woken.Load(), sw)
	}
}

// countedThread is a goThread that counts the wakeups it is sent.
type countedThread struct {
	*goThread
	woken *atomic.Int64
}

func (g *countedThread) Unblock() {
	g.woken.Add(1)
	g.goThread.Unblock()
}
