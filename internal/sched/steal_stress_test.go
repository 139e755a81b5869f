package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/proc"
)

// TestStealingNeverLosesOrDuplicatesWork piles every process onto CPU 0's
// run queue (by faking their dispatch affinity) so the other CPUs can only
// obtain work by stealing, then checks that every body ran exactly once
// and the scheduler drained completely.
func TestStealingNeverLosesOrDuplicatesWork(t *testing.T) {
	const (
		ncpu  = 4
		procs = 64
	)
	s, _ := newSched(ncpu, 100)
	var ran [procs]atomic.Int32
	var wg sync.WaitGroup
	var ps []*proc.Proc
	for i := 0; i < procs; i++ {
		p := mkProc(s, i+1)
		ps = append(ps, p)
		p.LastCPU.Store(0) // skew every enqueue onto CPU 0's queue
		i := i
		wg.Add(1)
		s.Spawn(p, func() {
			defer wg.Done()
			ran[i].Add(1)
			// A couple of forced preemption points so processes re-enter
			// the queues mid-storm, not just at first dispatch.
			for j := 0; j < 3; j++ {
				p.SliceLeft.Store(0)
				s.Yield(p)
				p.LastCPU.Store(0) // keep the skew on re-entry
			}
		})
	}
	wg.Wait()
	waitExited(t, ps)

	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("process %d ran %d times, want 1", i+1, n)
		}
	}
	if s.Steals.Load() == 0 {
		t.Fatal("no steals despite every enqueue targeting CPU 0")
	}
	if got := s.RunqLen(); got != 0 {
		t.Fatalf("run queue length = %d after drain, want 0", got)
	}
	if got := s.IdleCPUs(); got != ncpu {
		t.Fatalf("idle CPUs = %d after drain, want %d", got, ncpu)
	}
	if got := s.Dispatches.Load(); got < procs {
		t.Fatalf("dispatches = %d, want >= %d", got, procs)
	}
}

// TestAgedWaiterIsNotStarved pins two chatty processes to one CPU's queue
// and parks a third on another queue whose owner never yields; the age
// bound must force the busy CPU to fetch the aged process.
func TestAgedWaiterIsNotStarved(t *testing.T) {
	s, _ := newSched(1, 100)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p := mkProc(s, i+1)
		i := i
		wg.Add(1)
		s.Spawn(p, func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				p.SliceLeft.Store(0)
				s.Yield(p)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	if len(order) != 3 {
		t.Fatalf("finished %d of 3", len(order))
	}
}
