package klock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goThread implements Thread on a plain goroutine for tests. A buffered
// channel of one token makes Unblock-before-Block safe.
type goThread struct {
	ch chan struct{}
}

func newGoThread() *goThread       { return &goThread{ch: make(chan struct{}, 1)} }
func (g *goThread) Block(_ string) { <-g.ch }
func (g *goThread) Unblock()       { g.ch <- struct{}{} }

func TestSpinMutualExclusion(t *testing.T) {
	var l Spin
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 16000 {
		t.Fatalf("counter = %d, want 16000", counter)
	}
}

func TestSpinTryLock(t *testing.T) {
	var l Spin
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestSpinUnlockOfUnlockedPanics(t *testing.T) {
	var l Spin
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Unlock()
}

func TestSemaImmediateP(t *testing.T) {
	s := NewSema(2)
	th := newGoThread()
	s.P(th, "a")
	s.P(th, "b")
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	s.V()
	if s.Count() != 1 {
		t.Fatalf("Count after V = %d, want 1", s.Count())
	}
}

func TestSemaBlockWake(t *testing.T) {
	s := NewSema(0)
	th := newGoThread()
	done := make(chan struct{})
	go func() {
		s.P(th, "wait")
		close(done)
	}()
	// Wait until the sleeper is registered, then wake it.
	for s.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	s.V()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("P never woke")
	}
	if s.Sleeps.Load() != 1 || s.Wakeups.Load() != 1 {
		t.Fatalf("sleeps=%d wakeups=%d", s.Sleeps.Load(), s.Wakeups.Load())
	}
}

func TestSemaFIFO(t *testing.T) {
	s := NewSema(0)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		th := newGoThread()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.P(th, "fifo")
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}(i)
		for s.Waiting() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		s.V()
		// Give the woken goroutine time to record its slot so the
		// ordering observation is meaningful.
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	for i, id := range order {
		if id != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

// A signal poke deposits the sleeper's wake token without granting the
// semaphore: P must sleep again, and only V ends it.
func TestSemaStaleWakeIsNotAGrant(t *testing.T) {
	s := NewSema(0)
	th := newGoThread()
	done := make(chan struct{})
	go func() {
		s.P(th, "p")
		close(done)
	}()
	for s.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	th.Unblock()
	select {
	case <-done:
		t.Fatal("P returned on a wake that was not a V")
	case <-time.After(20 * time.Millisecond):
	}
	s.V()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("P never returned after V")
	}
	if s.Count() != 0 || s.Waiting() != 0 {
		t.Fatalf("Count = %d, Waiting = %d, want 0, 0", s.Count(), s.Waiting())
	}
}

func TestMRLockReadersShareWritersExclude(t *testing.T) {
	var l MRLock
	var inside atomic.Int32
	var maxReaders atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		th := newGoThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.RLock(th)
				n := inside.Add(1)
				for {
					m := maxReaders.Load()
					if n <= m || maxReaders.CompareAndSwap(m, n) {
						break
					}
				}
				inside.Add(-1)
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if maxReaders.Load() < 2 {
		t.Logf("note: readers never overlapped (max=%d); still correct", maxReaders.Load())
	}
	if l.Readers() != 0 {
		t.Fatalf("Readers = %d after all released", l.Readers())
	}
}

func TestMRLockWriterExcludesReaders(t *testing.T) {
	var l MRLock
	w := newGoThread()
	l.Lock(w)
	if !l.UpdateHeld() {
		t.Fatal("UpdateHeld false while locked")
	}
	readerIn := make(chan struct{})
	r := newGoThread()
	go func() {
		l.RLock(r)
		close(readerIn)
		l.RUnlock()
	}()
	select {
	case <-readerIn:
		t.Fatal("reader entered during update")
	case <-time.After(50 * time.Millisecond):
	}
	if l.WaitCount() != 1 {
		t.Fatalf("WaitCount = %d, want 1", l.WaitCount())
	}
	l.Unlock()
	select {
	case <-readerIn:
	case <-time.After(2 * time.Second):
		t.Fatal("reader never admitted after update released")
	}
}

func TestMRLockWriterWaitsForReaders(t *testing.T) {
	var l MRLock
	r := newGoThread()
	l.RLock(r)
	writerIn := make(chan struct{})
	w := newGoThread()
	go func() {
		l.Lock(w)
		close(writerIn)
		l.Unlock()
	}()
	select {
	case <-writerIn:
		t.Fatal("writer entered while reader held lock")
	case <-time.After(50 * time.Millisecond):
	}
	l.RUnlock()
	select {
	case <-writerIn:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never admitted after readers drained")
	}
}

func TestMRLockWriterPreferredOverNewReaders(t *testing.T) {
	var l MRLock
	r1 := newGoThread()
	l.RLock(r1)
	w := newGoThread()
	go l.Lock(w)
	for l.WaitCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	// A new reader arriving while a writer waits must queue behind it.
	r2In := make(chan struct{})
	r2 := newGoThread()
	go func() {
		l.RLock(r2)
		close(r2In)
	}()
	select {
	case <-r2In:
		t.Fatal("new reader jumped the waiting writer")
	case <-time.After(50 * time.Millisecond):
	}
	l.RUnlock() // writer gets the lock
	time.Sleep(10 * time.Millisecond)
	if !l.UpdateHeld() {
		t.Fatal("writer did not get the lock after last reader")
	}
	l.Unlock() // now the queued reader is admitted
	select {
	case <-r2In:
	case <-time.After(2 * time.Second):
		t.Fatal("queued reader never admitted")
	}
	l.RUnlock()
}

func TestMRLockHandoffBetweenWriters(t *testing.T) {
	var l MRLock
	a := newGoThread()
	l.Lock(a)
	order := make(chan int, 2)
	for i := 0; i < 2; i++ {
		th := newGoThread()
		go func(id int) {
			l.Lock(th)
			order <- id
			l.Unlock()
		}(i)
		for l.WaitCount() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	l.Unlock()
	first := <-order
	second := <-order
	if first != 0 || second != 1 {
		t.Fatalf("writer handoff order %d,%d; want 0,1", first, second)
	}
	if l.UpdateHeld() || l.Readers() != 0 {
		t.Fatal("lock not free at end")
	}
}

func TestMRLockMisusePanics(t *testing.T) {
	var l MRLock
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RUnlock without hold must panic")
			}
		}()
		l.RUnlock()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unlock without hold must panic")
			}
		}()
		l.Unlock()
	}()
}

func TestMRLockStressMixed(t *testing.T) {
	var l MRLock
	var shared, reads int64
	var wg sync.WaitGroup
	stop := time.After(200 * time.Millisecond)
	_ = stop
	for i := 0; i < 6; i++ {
		th := newGoThread()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				if id%3 == 0 {
					l.Lock(th)
					shared++
					l.Unlock()
				} else {
					l.RLock(th)
					atomic.AddInt64(&reads, 1)
					_ = shared
					l.RUnlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if shared != 600 {
		t.Fatalf("writer increments = %d, want 600", shared)
	}
}

func TestWaitListTargetedWakeups(t *testing.T) {
	// The property that distinguishes WaitList from a counting semaphore:
	// wakeups go to specific threads, in FIFO order.
	var mu sync.Mutex
	var wl WaitList
	a, b := newGoThread(), newGoThread()
	order := make(chan string, 2)
	started := make(chan struct{}, 2)
	go func() {
		mu.Lock()
		wl.Append(a)
		mu.Unlock()
		started <- struct{}{}
		a.Block("wait a")
		order <- "a"
	}()
	<-started
	go func() {
		mu.Lock()
		wl.Append(b)
		mu.Unlock()
		started <- struct{}{}
		b.Block("wait b")
		order <- "b"
	}()
	<-started
	mu.Lock()
	if wl.Len() != 2 {
		t.Fatalf("Len = %d", wl.Len())
	}
	if !wl.WakeOne() {
		t.Fatal("WakeOne found nobody")
	}
	mu.Unlock()
	if got := <-order; got != "a" {
		t.Fatalf("first wake = %q, want a (FIFO)", got)
	}
	mu.Lock()
	n := wl.WakeAll()
	mu.Unlock()
	if n != 1 {
		t.Fatalf("WakeAll woke %d", n)
	}
	if got := <-order; got != "b" {
		t.Fatalf("second wake = %q", got)
	}
	mu.Lock()
	if wl.WakeOne() {
		t.Fatal("WakeOne on empty list")
	}
	if wl.WakeAll() != 0 || wl.Len() != 0 {
		t.Fatal("empty list not empty")
	}
	mu.Unlock()
}

func TestWaitListWakeBeforeBlock(t *testing.T) {
	// A wake issued between Append and Block must not be lost (the token
	// is buffered in the thread).
	var wl WaitList
	th := newGoThread()
	wl.Append(th)
	wl.WakeOne()
	done := make(chan struct{})
	go func() {
		th.Block("late block")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("buffered wake lost")
	}
}
