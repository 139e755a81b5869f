// Package trace is a bounded in-kernel event ring, in the spirit of the
// ktrace/par facilities that shipped with IRIX: subsystems append
// fixed-size events (process creation, dispatch, fault, shootdown, signal,
// share-group synchronization) and tools drain a consistent snapshot.
//
// The ring is sharded per CPU so recording never funnels every processor
// through one lock: each CPU appends to its own loss-counting ring (a CPU's
// shard is written only by code running there in the common case, so its
// lock is uncontended), a global atomic sequence number provides the total
// order, and Snapshot merges the shards back into one ordered stream at
// drain time. Events recorded off-CPU (cpu < 0) land in a dedicated
// overflow shard.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies an event.
type Kind uint8

const (
	EvNone      Kind = iota
	EvCreate         // process created (Arg: child pid, Aux: creation kind)
	EvExit           // process exited (Arg: status)
	EvDispatch       // process placed on a CPU (Arg: cpu)
	EvPreempt        // process preempted (Arg: cpu)
	EvFault          // page fault (Arg: virtual address)
	EvShootdown      // machine-wide TLB shootdown (Arg: address-space id)
	EvSignal         // signal delivered (Arg: signal number)
	EvSyscall        // selected system call (Arg: code, Aux: detail)
	EvPropagate      // shared-resource update pushed to the block (Arg: bits)
	EvSync           // member reconciled shared state on entry (Arg: bits)

	// Syscall gateway spans: every system call dispatched through the
	// kernel's descriptor table records an enter/exit pair carrying the
	// syscall number, with the errno of the completed call in the exit
	// event's Aux field.
	EvSyscallEnter // gateway entry (Arg: syscall number)
	EvSyscallExit  // gateway exit (Arg: syscall number, Aux: errno)

	// EvFaultInject records a deterministic injected fault (Arg: the
	// injection site's key — syscall number, pid, cpu —, Aux: site<<8|fault
	// in faultinject numbering).
	EvFaultInject

	// Sleep-wake spans: a process leaving the run queues for a kernel
	// sleep (blockproc, semaphore, wait list) and the wakeup that makes it
	// runnable again.
	EvBlock   // process blocked in the kernel (Arg: 0)
	EvUnblock // blocked process made runnable (Arg: 0)

	// EvLazyBreak records a first touch materializing a lazy COW
	// duplication (Arg: faulting virtual address, Aux: page-table slots
	// walked) — where the creation cost a DupLazy spawn deferred actually
	// landed.
	EvLazyBreak

	// Checkpoint/restore spans (DESIGN.md §17): one EvCkptPass per
	// snapshot pass over the group's regions (Arg: pages copied, Aux: pass
	// number; pass 0 is the full copy), one EvCkptSTW closing the
	// stop-the-world window (Arg: pages copied frozen, Aux: members
	// parked), and one EvRestore per rebuilt group (Arg: members
	// respawned).
	EvCkptPass
	EvCkptSTW
	EvRestore
)

var kindNames = [...]string{
	"none", "create", "exit", "dispatch", "preempt", "fault",
	"shootdown", "signal", "syscall", "propagate", "sync",
	"sysenter", "sysexit", "faultinj", "block", "unblock",
	"lazybreak", "ckptpass", "ckptstw", "restore",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Creation kinds for EvCreate's Aux field.
const (
	CreateFork uint32 = iota + 1
	CreateSproc
	CreateThread
	CreateExec
)

// Event is one fixed-size trace record.
type Event struct {
	Seq  uint64 // monotonically increasing sequence number
	Kind Kind
	PID  int32  // the process the event concerns
	CPU  int32  // CPU it happened on, -1 if not applicable
	Arg  uint64 // kind-specific payload
	Aux  uint32 // kind-specific secondary payload
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %-9s pid=%-3d cpu=%-2d arg=%#x aux=%d",
		e.Seq, e.Kind, e.PID, e.CPU, e.Arg, e.Aux)
}

// shard is one CPU's private ring: a bounded buffer that overwrites the
// oldest events when full and counts what it lost.
type shard struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	dropped atomic.Uint64
	_       [64]byte // keep neighbouring shards off the same cache line
}

// Ring is the sharded event buffer. A nil *Ring is a valid, disabled ring:
// every method is a cheap no-op, so instrumentation sites need no guards.
type Ring struct {
	shards  []shard // shards[0..n-1] per CPU, shards[n] for cpu < 0
	seq     atomic.Uint64
	enabled atomic.Bool
}

// New creates a single-CPU ring holding up to size events per shard,
// enabled. Use NewMP for a multiprocessor ring.
func New(size int) *Ring { return NewMP(size, 1) }

// NewMP creates a ring with one shard per CPU plus an overflow shard for
// events recorded with no CPU context. Each shard holds up to size events.
func NewMP(size, ncpu int) *Ring {
	if size <= 0 {
		size = 4096
	}
	if ncpu < 1 {
		ncpu = 1
	}
	r := &Ring{shards: make([]shard, ncpu+1)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, size)
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled turns recording on or off (draining stays possible).
func (r *Ring) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether the ring records.
func (r *Ring) Enabled() bool { return r != nil && r.enabled.Load() }

// Record appends an event to the shard of the CPU it happened on. Safe on a
// nil or disabled ring.
func (r *Ring) Record(kind Kind, pid int32, cpu int32, arg uint64, aux uint32) {
	if r == nil || !r.enabled.Load() {
		return
	}
	seq := r.seq.Add(1)
	i := int(cpu)
	if i < 0 || i >= len(r.shards)-1 {
		i = len(r.shards) - 1
	}
	s := &r.shards[i]
	s.mu.Lock()
	if s.wrapped {
		s.dropped.Add(1)
	}
	s.buf[s.next] = Event{Seq: seq, Kind: kind, PID: pid, CPU: cpu, Arg: arg, Aux: aux}
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.wrapped = true
	}
	s.mu.Unlock()
}

// Snapshot returns the buffered events merged across all shards in
// sequence order, and the total count of events lost to wrap-around.
// Shards are read one at a time, so events recorded concurrently with the
// drain may or may not be included — each is either present or counted
// dropped, never silently lost.
func (r *Ring) Snapshot() (events []Event, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.wrapped {
			events = append(events, s.buf[s.next:]...)
		}
		events = append(events, s.buf[:s.next]...)
		s.mu.Unlock()
		dropped += s.dropped.Load()
	}
	sort.Slice(events, func(a, b int) bool { return events[a].Seq < events[b].Seq })
	return events, dropped
}

// DropsByCPU returns the per-shard drop counts: index i is CPU i's shard,
// the last entry is the overflow shard for events with no CPU context.
func (r *Ring) DropsByCPU() []uint64 {
	if r == nil {
		return nil
	}
	out := make([]uint64, len(r.shards))
	for i := range r.shards {
		out[i] = r.shards[i].dropped.Load()
	}
	return out
}

// Len returns the number of buffered events across all shards.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.wrapped {
			n += len(s.buf)
		} else {
			n += s.next
		}
		s.mu.Unlock()
	}
	return n
}

// CountKind counts buffered events of the given kind.
func (r *Ring) CountKind(kind Kind) int {
	events, _ := r.Snapshot()
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
