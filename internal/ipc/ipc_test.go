package ipc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/vm"
)

type goThread struct{ ch chan struct{} }

func newGoThread() *goThread       { return &goThread{ch: make(chan struct{}, 1)} }
func (g *goThread) Block(_ string) { <-g.ch }
func (g *goThread) Unblock()       { g.ch <- struct{}{} }

func TestPipeBasicTransfer(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	th := newGoThread()
	if n, err := w.Write(th, []byte("hello"), false); n != 5 || err != nil {
		t.Fatalf("Write = (%d,%v)", n, err)
	}
	buf := make([]byte, 16)
	if n, err := r.Read(th, buf, false); n != 5 || err != nil || string(buf[:5]) != "hello" {
		t.Fatalf("Read = (%d,%v,%q)", n, err, buf[:n])
	}
}

func TestPipeBlocksWhenEmptyAndFull(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	reader := newGoThread()
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := r.Read(reader, buf, false)
		got <- string(buf[:n])
	}()
	select {
	case <-got:
		t.Fatal("read returned on empty pipe")
	case <-time.After(20 * time.Millisecond):
	}
	writer := newGoThread()
	w.Write(writer, []byte("x"), false)
	select {
	case s := <-got:
		if s != "x" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader never woke")
	}

	// Fill the pipe; the next write must block until drained.
	w.Write(writer, make([]byte, PipeCap), false)
	wrote := make(chan struct{})
	go func() {
		w.Write(writer, []byte("y"), false)
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write returned on full pipe")
	case <-time.After(20 * time.Millisecond):
	}
	buf := make([]byte, PipeCap)
	r.Read(reader, buf, false)
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never woke")
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	th := newGoThread()
	w.Write(th, []byte("tail"), false)
	w.Close()
	buf := make([]byte, 8)
	if n, err := r.Read(th, buf, false); n != 4 || err != nil {
		t.Fatalf("drain = (%d,%v)", n, err)
	}
	if n, err := r.Read(th, buf, false); n != 0 || err != nil {
		t.Fatalf("EOF = (%d,%v)", n, err)
	}

	p2 := NewPipe()
	r2, w2 := p2.Ends()
	r2.Close()
	if _, err := w2.Write(th, []byte("z"), false); err != fs.ErrPipe {
		t.Fatalf("EPIPE = %v", err)
	}
}

func TestPipeCloseWakesSleepers(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	th := newGoThread()
	done := make(chan int, 1)
	go func() {
		n, _ := r.Read(th, make([]byte, 4), false)
		done <- n
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("read %d after close", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleeping reader not woken by close")
	}
}

func TestPipeWrongDirection(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	th := newGoThread()
	if _, err := r.Write(th, []byte("x"), false); err != fs.ErrBadFd {
		t.Fatalf("write on read end: %v", err)
	}
	if _, err := w.Read(th, make([]byte, 1), false); err != fs.ErrBadFd {
		t.Fatalf("read on write end: %v", err)
	}
}

func TestPipeConcurrentStream(t *testing.T) {
	p := NewPipe()
	r, w := p.Ends()
	const total = 256 * 1024
	var rn int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := newGoThread()
		sent := 0
		chunk := make([]byte, 1024)
		for sent < total {
			n, err := w.Write(th, chunk, false)
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			sent += n
		}
		w.Close()
	}()
	go func() {
		defer wg.Done()
		th := newGoThread()
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(th, buf, false)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				return
			}
			rn += n
		}
	}()
	wg.Wait()
	if rn != total {
		t.Fatalf("received %d, want %d", rn, total)
	}
}

func TestSocketPairDuplex(t *testing.T) {
	a, b := socketPair(nil, nil)
	th := newGoThread()
	a.Write(th, []byte("ping"), false)
	buf := make([]byte, 8)
	n, _ := b.Read(th, buf, false)
	if string(buf[:n]) != "ping" {
		t.Fatalf("b got %q", buf[:n])
	}
	b.Write(th, []byte("pong"), false)
	n, _ = a.Read(th, buf, false)
	if string(buf[:n]) != "pong" {
		t.Fatalf("a got %q", buf[:n])
	}
	a.Close()
	if n, err := b.Read(th, buf, false); n != 0 || err != nil {
		t.Fatalf("EOF after peer close = (%d,%v)", n, err)
	}
}

func TestMsgQueueTypes(t *testing.T) {
	r := NewRegistry()
	id := r.Msgget(5)
	if r.Msgget(5) != id {
		t.Fatal("same key, different queue")
	}
	q, err := r.Msgq(id)
	if err != nil {
		t.Fatal(err)
	}
	th := newGoThread()
	q.Send(th, Msg{Type: 2, Data: []byte("two")})
	q.Send(th, Msg{Type: 1, Data: []byte("one")})
	q.Send(th, Msg{Type: 2, Data: []byte("two-b")})

	m, _ := q.Recv(th, 1)
	if string(m.Data) != "one" {
		t.Fatalf("typed recv got %q", m.Data)
	}
	m, _ = q.Recv(th, 0)
	if string(m.Data) != "two" {
		t.Fatalf("any recv got %q", m.Data)
	}
	m, _ = q.Recv(th, 2)
	if string(m.Data) != "two-b" {
		t.Fatalf("second typed recv got %q", m.Data)
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
	if err := q.Send(th, Msg{Type: 0, Data: []byte("bad")}); err == nil {
		t.Fatal("type 0 send accepted")
	}
	if err := q.Send(th, Msg{Type: 1, Data: make([]byte, MsgMax+1)}); err == nil {
		t.Fatal("oversize send accepted")
	}
}

func TestMsgQueueBlocking(t *testing.T) {
	r := NewRegistry()
	q, _ := r.Msgq(r.Msgget(0))
	th := newGoThread()
	got := make(chan Msg, 1)
	go func() {
		m, _ := q.Recv(th, 0)
		got <- m
	}()
	select {
	case <-got:
		t.Fatal("recv on empty queue returned")
	case <-time.After(20 * time.Millisecond):
	}
	sender := newGoThread()
	q.Send(sender, Msg{Type: 9, Data: []byte("wake")})
	select {
	case m := <-got:
		if m.Type != 9 {
			t.Fatalf("type %d", m.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver never woke")
	}

	// Fill past capacity: sender must block until a receiver drains.
	big := Msg{Type: 1, Data: make([]byte, MsgMax)}
	q.Send(sender, big)
	q.Send(sender, big)
	sent := make(chan struct{})
	go func() {
		q.Send(sender, big)
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("send past capacity returned")
	case <-time.After(20 * time.Millisecond):
	}
	q.Recv(th, 0)
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("sender never woke")
	}
}

func TestSemSetOps(t *testing.T) {
	r := NewRegistry()
	id := r.Semget(3, 2)
	if r.Semget(3, 2) != id {
		t.Fatal("same key, different set")
	}
	s, _ := r.Sem(id)
	th := newGoThread()
	s.Op(th, 0, 2)
	if s.Val(0) != 2 || s.Val(1) != 0 {
		t.Fatalf("vals = %d,%d", s.Val(0), s.Val(1))
	}
	s.Op(th, 0, -2)
	if s.Val(0) != 0 {
		t.Fatalf("val = %d", s.Val(0))
	}
	if err := s.Op(th, 7, 1); err != ErrNoEntry {
		t.Fatalf("bad index: %v", err)
	}

	// Blocking P.
	done := make(chan struct{})
	waiter := newGoThread()
	go func() {
		s.Op(waiter, 1, -1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("negative op returned while value 0")
	case <-time.After(20 * time.Millisecond):
	}
	s.Op(th, 1, 1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("semop waiter never woke")
	}
	if s.Val(1) != 0 {
		t.Fatalf("val after P/V = %d", s.Val(1))
	}
}

func TestSemMutualExclusion(t *testing.T) {
	r := NewRegistry()
	s, _ := r.Sem(r.Semget(0, 1))
	init := newGoThread()
	s.Op(init, 0, 1) // mutex unlocked
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := newGoThread()
			for j := 0; j < 200; j++ {
				s.Op(th, 0, -1)
				counter++
				s.Op(th, 0, 1)
			}
		}()
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestShmRegistry(t *testing.T) {
	r := NewRegistry()
	mem := hw.NewMemory(64)
	mk := func(pages int) *vm.Region { return vm.NewRegion(mem, vm.RShm, pages) }
	id := r.Shmget(11, 4, mk)
	if r.Shmget(11, 4, mk) != id {
		t.Fatal("same key, different segment")
	}
	reg, err := r.ShmAttach(id)
	if err != nil || reg.Pages() != 4 || reg.Refs() != 2 {
		t.Fatalf("ShmAttach = (%v,%v)", reg, err)
	}
	// Two attachments write/read the same frames.
	pfn, _, _, _ := reg.Fill(0, true)
	mem.StoreWord(pfn, 0, 31337)
	pfn2, _, _, _ := reg.Fill(0, false)
	if pfn2 != pfn || mem.LoadWord(pfn2, 0) != 31337 {
		t.Fatal("attachments do not share frames")
	}
	reg.Detach()
	if mem.InUse() == 0 {
		t.Fatal("segment died while registry holds it")
	}
	if err := r.ShmRemove(id); err != nil {
		t.Fatal(err)
	}
	if mem.InUse() != 0 {
		t.Fatal("segment frames leaked after remove")
	}
	if _, err := r.ShmAttach(id); err != ErrNoEntry {
		t.Fatal("removed segment still visible")
	}
	if err := r.ShmRemove(id); err != ErrNoEntry {
		t.Fatal("double remove")
	}
}

func TestListenerAcceptConnect(t *testing.T) {
	n := NewNetNames()
	l, err := n.Listen("db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("db"); err != ErrAddrInUse {
		t.Fatalf("double listen: %v", err)
	}
	if _, err := n.Connect(newGoThread(), "nowhere"); err != ErrNoListen {
		t.Fatalf("connect to nothing: %v", err)
	}

	srvGot := make(chan string, 1)
	go func() {
		th := newGoThread()
		conn, err := l.Accept(th, false)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 16)
		nn, _ := conn.Read(th, buf, false)
		conn.Write(th, []byte("ack"), false)
		srvGot <- string(buf[:nn])
	}()
	th := newGoThread()
	conn, err := n.Connect(th, "db")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(th, []byte("query"), false)
	if got := <-srvGot; got != "query" {
		t.Fatalf("server got %q", got)
	}
	buf := make([]byte, 8)
	nn, _ := conn.Read(th, buf, false)
	if string(buf[:nn]) != "ack" {
		t.Fatalf("client got %q", buf[:nn])
	}
	l.Close()
	if _, err := n.Connect(th, "db"); err != ErrNoListen {
		t.Fatalf("connect after close: %v", err)
	}
	if _, err := l.Accept(th, false); err != ErrClosed {
		t.Fatalf("accept after close: %v", err)
	}
}
