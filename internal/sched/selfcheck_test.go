package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/proc"
)

// mustPanic runs f and requires a panic whose message contains every want.
func mustPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		for _, w := range want {
			if msg := fmt.Sprint(r); !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	f()
}

// TestSelfCheckBlock: only the process on a CPU may block, and only
// itself. A process that was never dispatched holds no CPU; its banked
// wake token would let an unchecked Block run straight through.
func TestSelfCheckBlock(t *testing.T) {
	s, _ := newSched(2, 1000)
	p := mkProc(s, 7)
	p.NotifyWake()
	mustPanic(t, func() { s.Block(p, "test") }, "Block", "pid 7", "CPU -1")
	if got := s.IdleCPUs(); got != 2 {
		t.Fatalf("refused Block disturbed the idle mask: %d of 2 idle", got)
	}
}

// TestSelfCheckEnqueueDispatch: a process is queued or dispatched only
// after it has given its CPU away. Readying a running process a second
// time must panic on both routes — dispatch while a CPU is idle, enqueue
// once none is. (A panicking scheduler is not reusable: each case boots
// its own.)
func TestSelfCheckEnqueueDispatch(t *testing.T) {
	// running boots ncpu CPUs and occupies CPU 0 with pid 7; no goroutine
	// stands behind the process, so it stays there.
	running := func(ncpu int) (*Sched, *proc.Proc) {
		s, _ := newSched(ncpu, 1000)
		p := mkProc(s, 7)
		s.Ready(p)
		if cpu := <-p.RunGate; cpu != 0 {
			t.Fatalf("first process dispatched onto CPU %d, want 0", cpu)
		}
		return s, p
	}
	t.Run("dispatch", func(t *testing.T) {
		s, p := running(2)
		mustPanic(t, func() { s.Ready(p) }, "dispatch", "pid 7", "still on CPU 0")
	})
	t.Run("enqueue", func(t *testing.T) {
		s, p := running(1)
		mustPanic(t, func() { s.Ready(p) }, "enqueue", "pid 7", "still on CPU 0")
		if got := s.RunqLen(); got != 0 {
			t.Fatalf("refused enqueue left %d queued", got)
		}
	})
	t.Run("slot", func(t *testing.T) {
		// Off its CPU by its own account, but the slot was never cleared.
		s, p := running(1)
		p.CPU.Store(-1)
		mustPanic(t, func() { s.Ready(p) }, "enqueue", "pid 7", "slot of CPU 0")
	})
	t.Run("owned", func(t *testing.T) {
		// A second process handed a CPU that the first still owns.
		s, _ := running(1)
		mustPanic(t, func() { s.dispatch(mkProc(s, 8), 0) }, "dispatch of pid 8", "CPU 0", "pid 7")
	})
}

// TestSpinQuiescentSelfCheck: a spin may skip polls only when no process on
// a CPU can store — something is queued and every CPU's holder is flagged.
// The preempted cases put a flagged spinner back on the queue and a queued
// process on its CPU, the way Yield does; the flag must be read through the
// slot, so the spinner's own flag never counts for a CPU it left.
func TestSpinQuiescentSelfCheck(t *testing.T) {
	const ncpu = 4
	for _, tc := range []struct {
		name        string
		idle, plain int  // CPUs left idle; holders (from CPU 0) not spinning
		queued      int  // processes queued behind the holders
		queuedSpin  bool // the queued processes carry the flag
		preempt     bool // CPU 0's holder is preempted for the first queued
		want        bool
	}{
		{name: "every CPU spins, one queued", queued: 1, want: true},
		{name: "empty queue"},
		{name: "an idle CPU", idle: 1, queued: 1},
		{name: "a holder not spinning", plain: 1, queued: 1},
		{name: "preempted spinner, a non-spinner on its CPU", queued: 1, preempt: true},
		{name: "preempted spinner, a spinner on its CPU", queued: 1, queuedSpin: true, preempt: true, want: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newSched(ncpu, 1000)
			pid := 0
			mk := func(spinning bool) *proc.Proc {
				pid++
				p := mkProc(s, pid)
				p.Spinning.Store(spinning)
				return p
			}
			for cpu := 0; cpu < ncpu-tc.idle; cpu++ {
				p := mk(cpu >= tc.plain)
				s.Ready(p)
				<-p.RunGate
			}
			for i := 0; i < tc.queued; i++ {
				s.enqueue(mk(tc.queuedSpin)) // not Ready: that would take the idle CPU
			}
			if tc.preempt {
				// Yield's preemption, without a goroutine parked on RunGate.
				p, next := s.cpuProc[0].Load(), s.pickNext(0)
				p.CPU.Store(-1)
				s.cpuProc[0].Store(nil)
				s.enqueue(p)
				s.dispatch(next, 0)
				<-next.RunGate
				if !p.Spinning.Load() || s.RunqLen() != tc.queued {
					t.Fatalf("setup: preempted spinner flagged=%v, %d queued", p.Spinning.Load(), s.RunqLen())
				}
			}
			if got := s.SpinQuiescent(); got != tc.want {
				t.Fatalf("SpinQuiescent() = %v, want %v", got, tc.want)
			}
		})
	}
}
