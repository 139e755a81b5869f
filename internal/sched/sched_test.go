package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/klock"
	"repro/internal/proc"
)

func newSched(ncpu int, slice int64) (*Sched, *hw.Machine) {
	m := hw.NewMachine(ncpu, 64)
	return New(m, slice), m
}

func mkProc(s *Sched, pid int) *proc.Proc {
	p := proc.New(pid, "t")
	p.Sched = s
	return p
}

// Spawn runs body as the process p: the goroutine waits for its first
// dispatch, runs, and releases its CPU on return (the kernel's spawn does
// the same around a process image). p.Sched must already be s.
func (s *Sched) Spawn(p *proc.Proc, body func()) {
	go func() {
		<-p.RunGate
		body()
		s.Exit(p)
	}()
	s.Ready(p)
}

// waitExited waits until every process is a zombie. A Spawn body returns —
// which is where these tests signal completion — before the scheduler's
// Exit gives the CPU back, so what is read straight after wg.Wait can
// still show the last process on its CPU.
func waitExited(t *testing.T, ps []*proc.Proc) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range ps {
		for p.State() != proc.SZomb {
			if time.Now().After(deadline) {
				t.Fatalf("process %d still %v after its body returned", p.PID, p.State())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestParallelismCappedAtNCPU(t *testing.T) {
	const ncpu = 2
	s, _ := newSched(ncpu, 100)
	var inside, maxSeen atomic.Int32
	var wg sync.WaitGroup
	var ps []*proc.Proc
	for i := 0; i < 8; i++ {
		p := mkProc(s, i+1)
		ps = append(ps, p)
		wg.Add(1)
		s.Spawn(p, func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				n := inside.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				inside.Add(-1)
				// Exhaust the slice so others run.
				p.SliceLeft.Store(0)
				s.Yield(p)
			}
		})
	}
	wg.Wait()
	waitExited(t, ps)
	if m := maxSeen.Load(); m > ncpu {
		t.Fatalf("observed %d simultaneous processes on %d CPUs", m, ncpu)
	}
	if s.IdleCPUs() != ncpu {
		t.Fatalf("idle = %d after all exit", s.IdleCPUs())
	}
}

func TestBlockReleasesCPU(t *testing.T) {
	s, _ := newSched(1, 1000)
	sem := klock.NewSema(0)
	first := mkProc(s, 1)
	second := mkProc(s, 2)
	order := make(chan int, 4)
	var wg sync.WaitGroup
	wg.Add(2)
	s.Spawn(first, func() {
		defer wg.Done()
		order <- 1
		sem.P(first, "wait for second") // must release the only CPU
		order <- 3
	})
	// Wait until first is sleeping before starting second, so the
	// dispatch order is deterministic.
	for first.State() != proc.SSleep {
		time.Sleep(time.Millisecond)
	}
	s.Spawn(second, func() {
		defer wg.Done()
		order <- 2
		sem.V()
	})
	wg.Wait()
	got := []int{<-order, <-order, <-order}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestPriorityDispatch(t *testing.T) {
	s, _ := newSched(1, 1000)
	gate := klock.NewSema(0)
	hog := mkProc(s, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	s.Spawn(hog, func() {
		defer wg.Done()
		gate.P(hog, "hold cpu until both contenders queued")
	})
	for hog.State() != proc.SSleep {
		time.Sleep(time.Millisecond)
	}
	// Re-grab the CPU with a spinner that yields only when told.
	release := make(chan struct{})
	spinner := mkProc(s, 2)
	wg.Add(1)
	s.Spawn(spinner, func() {
		defer wg.Done()
		gate.V() // let the hog finish; it queues behind us
		<-release
		spinner.SliceLeft.Store(0)
		s.Yield(spinner)
	})
	// Queue low then high priority.
	order := make(chan string, 2)
	low := mkProc(s, 3)
	low.Prio.Store(1)
	high := mkProc(s, 4)
	high.Prio.Store(5)
	wg.Add(2)
	s.Spawn(low, func() { defer wg.Done(); order <- "low" })
	s.Spawn(high, func() { defer wg.Done(); order <- "high" })
	for s.RunqLen() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	first := <-order
	if first != "high" {
		t.Fatalf("first dispatched = %q, want high", first)
	}
	wg.Wait()
}

func TestPreemptionHappens(t *testing.T) {
	s, _ := newSched(1, 50)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p := mkProc(s, i+1)
		wg.Add(1)
		s.Spawn(p, func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				if p.SliceLeft.Add(-20) <= 0 {
					s.Yield(p)
				}
			}
		})
	}
	wg.Wait()
	if s.Preemptions.Load() == 0 {
		t.Fatal("no preemptions despite slice exhaustion and contention")
	}
}

func TestYieldWithEmptyRunqKeepsCPU(t *testing.T) {
	s, _ := newSched(1, 50)
	p := mkProc(s, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	s.Spawn(p, func() {
		defer wg.Done()
		p.SliceLeft.Store(0)
		s.Yield(p) // nobody waiting: must not deadlock
		if p.SliceLeft.Load() != s.Slice() {
			t.Error("slice not replenished")
		}
	})
	wg.Wait()
	if s.Preemptions.Load() != 0 {
		t.Fatal("counted a preemption with empty runq")
	}
}

func TestGangAffinity(t *testing.T) {
	// Two CPUs. A member of group A holds CPU 0; when CPU 1 frees up
	// with both a group-B process and A's other member queued, gang
	// mode must pick the group-mate even though B queued first.
	s, _ := newSched(2, 1000)

	// The id field keeps the struct non-zero-sized so the two groups get
	// distinct addresses.
	type group struct {
		fakeShare
		id int
	}
	ga, gb := &group{id: 1}, &group{id: 2}

	holder := mkProc(s, 1)
	holder.SetShare(ga)
	var wg sync.WaitGroup
	wg.Add(1)
	releaseHolder := make(chan struct{})
	s.Spawn(holder, func() {
		defer wg.Done()
		<-releaseHolder
	})
	for holder.State() != proc.SRun {
		time.Sleep(time.Millisecond)
	}
	occupier := mkProc(s, 2)
	wg.Add(1)
	releaseOccupier := make(chan struct{})
	s.Spawn(occupier, func() {
		defer wg.Done()
		<-releaseOccupier
	})
	for occupier.State() != proc.SRun {
		time.Sleep(time.Millisecond)
	}
	order := make(chan string, 2)
	bMember := mkProc(s, 3)
	bMember.SetShare(gb)
	aMember := mkProc(s, 4)
	aMember.SetShare(ga)
	wg.Add(2)
	s.Spawn(bMember, func() { defer wg.Done(); order <- "b" })
	s.Spawn(aMember, func() { defer wg.Done(); order <- "a" })
	for s.RunqLen() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(releaseOccupier) // frees CPU 1 while holder (group A) still runs
	if first := <-order; first != "a" {
		t.Fatalf("gang dispatch picked %q first, want group-mate 'a'", first)
	}
	close(releaseHolder)
	wg.Wait()
}

type fakeShare struct{}

func (*fakeShare) SyncEntry(*proc.Proc) {}
func (*fakeShare) Leave(*proc.Proc)     {}
func (*fakeShare) Size() int            { return 2 }
func (*fakeShare) Gang() bool           { return true }

var fakeShareAcct = proc.NewCPUAcct()

func (*fakeShare) CPUAcct() *proc.CPUAcct { return fakeShareAcct }

func TestContextSwitchAccounting(t *testing.T) {
	s, m := newSched(1, 1000)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		p := mkProc(s, i+1)
		wg.Add(1)
		s.Spawn(p, func() { defer wg.Done() })
	}
	wg.Wait()
	if got := s.Dispatches.Load(); got < 4 {
		t.Fatalf("dispatches = %d, want >= 4", got)
	}
	if m.CPUs[0].Cycles.Load() < 4*m.Cost.ContextSwitch {
		t.Fatal("context switch cycles not charged")
	}
}

func TestRunningSnapshot(t *testing.T) {
	s, _ := newSched(2, 1000)
	gate := klock.NewSema(0)
	p := mkProc(s, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	s.Spawn(p, func() {
		defer wg.Done()
		gate.P(p, "hold")
	})
	for p.State() != proc.SSleep {
		time.Sleep(time.Millisecond)
	}
	snap := s.Running()
	if len(snap) != 2 || snap[0] != nil || snap[1] != nil {
		t.Fatalf("Running = %v, want both idle while p sleeps", snap)
	}
	gate.V()
	wg.Wait()
}
