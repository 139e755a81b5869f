package klock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// grantPath is one way a release hands a lock to a sleeper: hold puts the
// test goroutine in the position to grant, acquire is what the grantee
// sleeps in (undo releases it again), sleeping reports that the grantee is
// queued, and release is the grant. yields says whether the grant hands the
// host to the grantee.
type grantPath struct {
	name          string
	yields        bool
	hold          func(t Thread)
	acquire, undo func(t Thread)
	sleeping      func() bool
	release       func()
}

func grantPaths() []grantPath {
	s := NewSema(0)
	var wl, rl, dl MRLock
	return []grantPath{
		{"Sema.V", true,
			func(Thread) {},
			func(t Thread) { s.P(t, "grant") }, func(Thread) {},
			func() bool { return s.Waiting() == 1 }, s.V},
		{"MRLock.Unlock/writer", false,
			func(t Thread) { wl.Lock(t) },
			func(t Thread) { wl.Lock(t) }, func(Thread) { wl.Unlock() },
			func() bool { return wl.WaitCount() == 1 }, wl.Unlock},
		{"MRLock.Unlock/readers", false,
			func(t Thread) { rl.Lock(t) },
			func(t Thread) { rl.RLock(t) }, func(Thread) { rl.RUnlock() },
			func() bool { return rl.WaitCount() == 1 }, rl.Unlock},
		{"MRLock.drainWake", false,
			func(t Thread) { dl.RLock(t) },
			func(t Thread) { dl.Lock(t) }, func(Thread) { dl.Unlock() },
			func() bool { return dl.WaitCount() == 1 }, dl.RUnlock},
	}
}

// With one host thread, Sema.V returns only after the thread it granted
// has come back from its P: the grant yields the host, and the woken
// goroutine is next in line. MRLock's grants do not yield, so there the
// releaser runs on and the grantee has not moved. Once in 61 schedules
// Go's runtime serves its global queue first, where the yielding releaser
// waits, so a yielding path passes when the grantee ran first in most
// trials rather than in all.
func TestGrantRunsGrantee(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const trials = 16
	for _, gp := range grantPaths() {
		ran := 0
		for i := 0; i < trials; i++ {
			gp.hold(newGoThread())
			var back atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				grantee := newGoThread()
				gp.acquire(grantee)
				back.Store(true)
				gp.undo(grantee)
			}()
			for !gp.sleeping() {
				runtime.Gosched()
			}
			gp.release()
			if back.Load() {
				ran++
			}
			<-done
		}
		if gp.yields && ran <= trials/2 {
			t.Errorf("%s: the grantee had returned when the release did in %d of %d trials, want most", gp.name, ran, trials)
		}
		if !gp.yields && ran > trials/2 {
			t.Errorf("%s: the grantee had returned when the release did in %d of %d trials; this grant must not yield", gp.name, ran, trials)
		}
	}
}

// ticket names one acquisition: a thread and the number of its attempt.
type ticket struct {
	id  int
	acq int64
}

// stormThread is a goThread that records, on the first Block of each
// acquisition, which acquisitions the lock had queued ahead of it, and
// counts the Unblocks it receives. queue reads the lock's own sleepers,
// oldest first, and their tickets under the lock's mutex: a sleeper still
// queued there is still in that acquisition.
type stormThread struct {
	*goThread
	id      int
	acq     atomic.Int64
	queue   func() []ticket
	seen    int64 // last acquisition whose queue was read
	ahead   map[ticket][]ticket
	unblock atomic.Int64
}

func newStormThread(id int, queue func() []ticket) *stormThread {
	return &stormThread{goThread: newGoThread(), id: id, queue: queue, ahead: map[ticket][]ticket{}}
}

func (s *stormThread) ticket() ticket { return ticket{s.id, s.acq.Load()} }

func (s *stormThread) Block(reason string) {
	if me := s.ticket(); s.queue != nil && s.seen != me.acq {
		s.seen = me.acq
		q := s.queue()
		for i, t := range q {
			if t == me {
				s.ahead[me] = q[:i]
				break
			}
		}
	}
	s.goThread.Block(reason)
}

func (s *stormThread) Unblock() {
	s.unblock.Add(1)
	s.goThread.Unblock()
}

// entryLog is the order in which acquisitions entered a critical section;
// it is written inside the section, so the lock under test orders it.
type entryLog struct {
	seq int
	at  map[ticket]int
}

func (e *entryLog) enter(t ticket) {
	e.at[t] = e.seq
	e.seq++
}

// checkFIFO asserts that every acquisition a thread found queued ahead of
// its own entered the section before it did.
func checkFIFO(t *testing.T, ths []*stormThread, log *entryLog) {
	t.Helper()
	queued := 0
	for _, th := range ths {
		for me, ahead := range th.ahead {
			queued += len(ahead)
			for _, a := range ahead {
				if log.at[a] > log.at[me] {
					t.Fatalf("%v was queued behind %v but entered first (%d < %d)", me, a, log.at[me], log.at[a])
				}
			}
		}
	}
	if queued == 0 {
		t.Logf("note: no acquisition ever queued behind another")
	}
}

// stormProcs runs body as subtests at GOMAXPROCS 1, 2 and NumCPU (when
// that is more than 2).
func stormProcs(t *testing.T, body func(t *testing.T)) {
	procs := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		procs = append(procs, n)
	}
	for _, n := range procs {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			body(t)
		})
	}
}

// Hand-off storm on a sleeping mutex (a Sema of count 1, as the share
// block's fupdSema): every V with a sleeper is a grant and a yield. Holds
// mutual exclusion, FIFO grants, one wake per sleep, and the count back at
// one.
func TestSemaHandoffStormRace(t *testing.T) {
	stormProcs(t, func(t *testing.T) {
		const threads, rounds = 8, 400
		s := NewSema(1)
		queue := func() []ticket {
			s.mu.Lock()
			defer s.mu.Unlock()
			q := make([]ticket, len(s.waiters))
			for i, w := range s.waiters {
				q[i] = w.t.(*stormThread).ticket()
			}
			return q
		}
		log := &entryLog{at: map[ticket]int{}}
		var inside atomic.Int32
		var wg sync.WaitGroup
		ths := make([]*stormThread, threads)
		for i := range ths {
			ths[i] = newStormThread(i, queue)
			wg.Add(1)
			go func(th *stormThread) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					th.acq.Store(int64(r))
					s.P(th, "storm")
					if n := inside.Add(1); n != 1 {
						t.Errorf("%d threads inside the semaphore", n)
					}
					log.enter(th.ticket())
					runtime.Gosched() // let the others queue, at any GOMAXPROCS
					inside.Add(-1)
					s.V()
				}
			}(ths[i])
		}
		wg.Wait()
		checkFIFO(t, ths, log)
		var unblocks int64
		for _, th := range ths {
			unblocks += th.unblock.Load()
		}
		if sl, wk := s.Sleeps.Load(), s.Wakeups.Load(); sl != wk || wk != unblocks {
			t.Errorf("Sleeps = %d, Wakeups = %d, Unblocks = %d; want all equal", sl, wk, unblocks)
		}
		if s.Count() != 1 || s.Waiting() != 0 {
			t.Errorf("Count = %d, Waiting = %d; want 1, 0", s.Count(), s.Waiting())
		}
	})
}

// Hand-off storm on the shared read lock: writers hand the lock to each
// other, release reader batches, and are granted by the last reader out.
// Holds writer exclusion, FIFO among queued writers (the drainer first,
// then the writer queue), one wake per sleep, and a free lock at the end.
func TestMRLockHandoffStormRace(t *testing.T) {
	stormProcs(t, func(t *testing.T) {
		const writers, readers, rounds = 4, 4, 300
		var l MRLock
		queue := func() []ticket {
			l.acclck.Lock()
			defer l.acclck.Unlock()
			var q []ticket
			if l.drainer != nil {
				q = append(q, l.drainer.t.(*stormThread).ticket())
			}
			for _, w := range l.wwait {
				q = append(q, w.t.(*stormThread).ticket())
			}
			return q
		}
		log := &entryLog{at: map[ticket]int{}}
		var wIn, rIn atomic.Int32
		var wg sync.WaitGroup
		var ths []*stormThread
		for i := 0; i < writers+readers; i++ {
			writer := i < writers
			th := newStormThread(i, nil)
			if writer {
				th.queue = queue
			}
			ths = append(ths, th)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					th.acq.Store(int64(r))
					if writer {
						l.Lock(th)
						if w := wIn.Add(1); w != 1 || rIn.Load() != 0 {
							t.Errorf("writer inside with %d writers, %d readers", w, rIn.Load())
						}
						log.enter(th.ticket())
						wIn.Add(-1)
						l.Unlock()
						continue
					}
					l.RLock(th)
					rIn.Add(1)
					if wIn.Load() != 0 {
						t.Errorf("reader inside with a writer")
					}
					runtime.Gosched()
					rIn.Add(-1)
					l.RUnlock()
				}
			}()
		}
		wg.Wait()
		checkFIFO(t, ths[:writers], log)
		var unblocks int64
		for _, th := range ths {
			unblocks += th.unblock.Load()
		}
		if sl := l.RSleeps.Load() + l.WSleeps.Load(); sl != unblocks {
			t.Errorf("RSleeps+WSleeps = %d, Unblocks = %d; want equal", sl, unblocks)
		}
		if l.Readers() != 0 || l.UpdateHeld() || l.WaitCount() != 0 {
			t.Errorf("Readers = %d, UpdateHeld = %v, WaitCount = %d; want a free lock", l.Readers(), l.UpdateHeld(), l.WaitCount())
		}
	})
}
