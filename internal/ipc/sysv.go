package ipc

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/klock"
	"repro/internal/vm"
)

// System V IPC errors.
var (
	ErrNoEntry  = errors.New("ipc: no such identifier")    // EINVAL/EIDRM
	ErrTooBig   = errors.New("ipc: message too long")      // EINVAL
	ErrAgainIPC = errors.New("ipc: operation interrupted") // EINTR
	ErrExists   = errors.New("ipc: key exists")            // EEXIST
)

// MsgMax is the largest single message; MsgQueueCap bounds a queue's total
// bytes (msgmnb).
const (
	MsgMax      = 8192
	MsgQueueCap = 16384
)

// Msg is one System V message.
type Msg struct {
	Type int64
	Data []byte
}

// MsgQueue is a System V message queue: typed messages, blocking send on a
// full queue, blocking receive by type.
type MsgQueue struct {
	ID int

	mu    sync.Mutex
	msgs  []Msg
	bytes int
	rwait klock.WaitList
	swait klock.WaitList
	fi    *faultinject.Plan

	Sends atomic.Int64
	Recvs atomic.Int64
}

func newMsgQueue(id int, fi *faultinject.Plan) *MsgQueue {
	return &MsgQueue{ID: id, fi: fi}
}

// Send enqueues m, sleeping while the queue is full (msgsnd).
func (q *MsgQueue) Send(t klock.Thread, m Msg) error {
	if len(m.Data) > MsgMax || m.Type <= 0 {
		return ErrTooBig
	}
	q.mu.Lock()
	for q.bytes+len(m.Data) > MsgQueueCap {
		if err := sleepOn(q.fi, &q.mu, &q.swait, t, "msgsnd: queue full"); err != nil {
			q.mu.Unlock()
			return err
		}
	}
	data := make([]byte, len(m.Data))
	copy(data, m.Data)
	q.msgs = append(q.msgs, Msg{Type: m.Type, Data: data})
	q.bytes += len(m.Data)
	q.rwait.WakeAll()
	q.mu.Unlock()
	q.Sends.Add(1)
	return nil
}

// Recv dequeues the first message of the given type (0 matches any),
// sleeping while none is available (msgrcv).
func (q *MsgQueue) Recv(t klock.Thread, typ int64) (Msg, error) {
	q.mu.Lock()
	for {
		for i, m := range q.msgs {
			if typ == 0 || m.Type == typ {
				q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
				q.bytes -= len(m.Data)
				q.swait.WakeAll()
				q.mu.Unlock()
				q.Recvs.Add(1)
				return m, nil
			}
		}
		if err := sleepOn(q.fi, &q.mu, &q.rwait, t, "msgrcv: queue empty"); err != nil {
			q.mu.Unlock()
			return Msg{}, err
		}
	}
}

// Len returns the number of queued messages.
func (q *MsgQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}

// SemSet is a System V semaphore set. Operations with negative deltas
// sleep until the value can absorb them — synchronization that always
// costs kernel interaction, the System V weakness of paper §2.
type SemSet struct {
	ID int

	mu      sync.Mutex
	vals    []int
	waiters klock.WaitList
	fi      *faultinject.Plan

	Ops atomic.Int64
}

func newSemSet(id, n int, fi *faultinject.Plan) *SemSet {
	return &SemSet{ID: id, vals: make([]int, n), fi: fi}
}

// Op applies delta to semaphore idx (semop): a negative delta sleeps until
// the value stays non-negative; a positive delta wakes every sleeper to
// re-evaluate its own condition. Waiters on different indices share the
// wait list, so each wake is addressed: a waiter whose condition is still
// false simply re-registers, and nobody's wakeup can be stolen.
func (s *SemSet) Op(t klock.Thread, idx, delta int) error {
	if idx < 0 || idx >= len(s.vals) {
		return ErrNoEntry
	}
	s.Ops.Add(1)
	s.mu.Lock()
	for s.vals[idx]+delta < 0 {
		if err := sleepOn(s.fi, &s.mu, &s.waiters, t, "semop: would go negative"); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.vals[idx] += delta
	if delta > 0 {
		s.waiters.WakeAll()
	}
	s.mu.Unlock()
	return nil
}

// shmSeg is a System V shared-memory segment: a region attachable into any
// address space. The registry holds one region attachment so the segment
// survives while detached from every process.
type shmSeg struct {
	ID  int
	Key int
	Reg *vm.Region
}

// Registry is the kernel's System V IPC namespace.
type Registry struct {
	mu     sync.Mutex
	fi     *faultinject.Plan
	nextID int
	msgqs  map[int]*MsgQueue
	msgKey map[int]int
	sems   map[int]*SemSet
	semKey map[int]int
	shms   map[int]*shmSeg
	shmKey map[int]int
}

// NewRegistry creates an empty IPC namespace.
func NewRegistry() *Registry {
	return &Registry{
		msgqs: map[int]*MsgQueue{}, msgKey: map[int]int{},
		sems: map[int]*SemSet{}, semKey: map[int]int{},
		shms: map[int]*shmSeg{}, shmKey: map[int]int{},
	}
}

// SetFault arms the namespace with a fault plan; queues and semaphore
// sets created afterwards inherit it. Call at boot, before user code runs.
func (r *Registry) SetFault(fi *faultinject.Plan) {
	r.mu.Lock()
	r.fi = fi
	r.mu.Unlock()
}

// Msgget returns the id of the queue with the given key, creating it if
// absent (key 0 always creates a fresh private queue).
func (r *Registry) Msgget(key int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if key != 0 {
		if id, ok := r.msgKey[key]; ok {
			return id
		}
	}
	r.nextID++
	q := newMsgQueue(r.nextID, r.fi)
	r.msgqs[q.ID] = q
	if key != 0 {
		r.msgKey[key] = q.ID
	}
	return q.ID
}

// Msgq looks up a queue by id.
func (r *Registry) Msgq(id int) (*MsgQueue, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.msgqs[id]
	if !ok {
		return nil, ErrNoEntry
	}
	return q, nil
}

// Semget returns the id of the semaphore set with the given key, creating
// an n-semaphore set if absent.
func (r *Registry) Semget(key, n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if key != 0 {
		if id, ok := r.semKey[key]; ok {
			return id
		}
	}
	r.nextID++
	s := newSemSet(r.nextID, n, r.fi)
	r.sems[s.ID] = s
	if key != 0 {
		r.semKey[key] = s.ID
	}
	return s.ID
}

// Sem looks up a semaphore set by id.
func (r *Registry) Sem(id int) (*SemSet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sems[id]
	if !ok {
		return nil, ErrNoEntry
	}
	return s, nil
}

// Shmget returns the id of the shared segment with the given key,
// creating a pages-sized segment if absent. mem is the machine memory the
// region allocates from.
func (r *Registry) Shmget(key, pages int, newRegion func(pages int) *vm.Region) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if key != 0 {
		if id, ok := r.shmKey[key]; ok {
			return id
		}
	}
	r.nextID++
	seg := &shmSeg{ID: r.nextID, Key: key, Reg: newRegion(pages)}
	r.shms[seg.ID] = seg
	if key != 0 {
		r.shmKey[key] = seg.ID
	}
	return seg.ID
}

// ShmAttach looks up segment id and attaches its region for the caller, both
// under the registry lock: a remove between the two could make the last
// detach, after which vm.NewRegion may mint the region for someone else.
func (r *Registry) ShmAttach(id int) (*vm.Region, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.shms[id]
	if !ok {
		return nil, ErrNoEntry
	}
	s.Reg.Attach()
	return s.Reg, nil
}

// ShmResident sums the resident pages of the registered segments: the
// frames an idle system may still hold (System.WaitIdle).
func (r *Registry) ShmResident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, seg := range r.shms {
		n += seg.Reg.Resident()
	}
	return n
}

// ShmRemove deletes the segment id (shmctl IPC_RMID); its region is
// detached from the registry's hold, so memory dies with the last
// detachment.
func (r *Registry) ShmRemove(id int) error {
	r.mu.Lock()
	seg, ok := r.shms[id]
	if !ok {
		r.mu.Unlock()
		return ErrNoEntry
	}
	delete(r.shms, id)
	if seg.Key != 0 {
		delete(r.shmKey, seg.Key)
	}
	r.mu.Unlock()
	seg.Reg.Detach()
	return nil
}
