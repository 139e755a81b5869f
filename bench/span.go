package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Layers are the repo's packages; "bench" is the harness and the workload
// programs' own Go code.
const (
	lBench  = "bench"
	lProc   = "proc"
	lVM     = "vm"
	lIPC    = "ipc"
	lFS     = "fs"
	lKernel = "kernel"
	lCore   = "core"
	lUspin  = "uspin"
	lCkpt   = "ckpt"
)

// spanLayers are the layers that get span_* metrics, in report order.
var spanLayers = []string{lProc, lVM, lIPC, lFS, lKernel, lCore, lUspin, lCkpt}

// spanRec is one finished span as written to the trace file. Times are host
// nanoseconds since the rep's tracer started; SimCyc is the calling
// process's own cycle delta (P.Cycles) across the span.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	PID    int    `json:"pid"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SimCyc int64  `json:"simcyc"`
}

// spanAgg accumulates every span of one name. Self = duration minus the
// part covered by child spans.
type spanAgg struct {
	Layer    string `json:"layer"`
	Calls    int64  `json:"calls"`
	TotalNs  int64  `json:"total_ns"`
	SelfNs   int64  `json:"self_ns"`
	TotalCyc int64  `json:"total_simcyc"`
	SelfCyc  int64  `json:"self_simcyc"`
}

type frame struct {
	name, layer       string
	id                uint64
	op                int64
	inOp              bool
	start, cyc0       int64
	childNs, childCyc int64
	rawStart          int // len(shard.raw) at begin, for retag
}

// shard holds one simulated process's spans. Only that process's goroutine
// touches it until the rep is over, so it needs no lock.
type shard struct {
	tr    *tracer
	idx   uint64
	pid   int
	seq   uint64
	stack []frame
	inOp  map[string]*spanAgg // spans under an op segment
	other map[string]*spanAgg // set-up, tear-down and harness phases
	raw   []spanRec
}

// tracer owns the shards of one traced rep. Aggregates cover every span;
// raw spans are kept until rawLeft runs out, which bounds the trace file on
// workloads with a million ops per rep.
type tracer struct {
	epoch   time.Time
	rawLeft atomic.Int64
	mu      sync.Mutex
	shards  []*shard
}

const rawSpanCap = 20000

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.rawLeft.Store(rawSpanCap)
	return t
}

func (t *tracer) newShard(pid int) *shard {
	s := &shard{tr: t, pid: pid, inOp: map[string]*spanAgg{}, other: map[string]*spanAgg{}}
	t.mu.Lock()
	s.idx = uint64(len(t.shards))
	t.shards = append(t.shards, s)
	t.mu.Unlock()
	return s
}

// begin opens a span under the shard's innermost open span. op != 0 starts
// an op segment: every span below it carries that id.
func (s *shard) begin(name, layer string, op int64, cyc int64) {
	s.seq++
	f := frame{name: name, layer: layer, id: s.idx<<40 | s.seq, op: op, cyc0: cyc}
	if n := len(s.stack); n > 0 {
		parent := &s.stack[n-1]
		f.inOp = parent.inOp
		if op == 0 {
			f.op = parent.op
		}
	}
	if op != 0 {
		f.inOp = true
	}
	f.rawStart = len(s.raw)
	f.start = int64(time.Since(s.tr.epoch))
	s.stack = append(s.stack, f)
}

// retag gives the innermost open op segment its real id once the process
// has learnt it (a server knows which request it holds only after reading
// it), and carries the id back to the spans already closed under it.
func (s *shard) retag(op int64) {
	f := &s.stack[len(s.stack)-1]
	f.op = op
	for i := f.rawStart; i < len(s.raw); i++ {
		s.raw[i].Op = op
	}
}

func (s *shard) end(cyc int64) {
	now := int64(time.Since(s.tr.epoch))
	n := len(s.stack) - 1
	f := s.stack[n]
	s.stack = s.stack[:n]
	dur, dcyc := now-f.start, cyc-f.cyc0
	var parent uint64
	if n > 0 {
		p := &s.stack[n-1]
		p.childNs += dur
		p.childCyc += dcyc
		parent = p.id
	}
	m := s.other
	if f.inOp {
		m = s.inOp
	}
	a := m[f.name]
	if a == nil {
		a = &spanAgg{Layer: f.layer}
		m[f.name] = a
	}
	a.Calls++
	a.TotalNs += dur
	a.SelfNs += dur - f.childNs
	a.TotalCyc += dcyc
	a.SelfCyc += dcyc - f.childCyc
	if s.tr.rawLeft.Add(-1) >= 0 {
		s.raw = append(s.raw, spanRec{ID: f.id, Parent: parent, Op: f.op, Name: f.name,
			Layer: f.layer, PID: s.pid, Start: f.start, End: now, SimCyc: dcyc})
	}
}

// merged folds every shard's aggregates together. Call after the rep's
// processes have all exited.
func (t *tracer) merged() (inOp, other map[string]*spanAgg, raw []spanRec) {
	inOp, other = map[string]*spanAgg{}, map[string]*spanAgg{}
	fold := func(dst, src map[string]*spanAgg) {
		for name, a := range src {
			d := dst[name]
			if d == nil {
				d = &spanAgg{Layer: a.Layer}
				dst[name] = d
			}
			d.Calls += a.Calls
			d.TotalNs += a.TotalNs
			d.SelfNs += a.SelfNs
			d.TotalCyc += a.TotalCyc
			d.SelfCyc += a.SelfCyc
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shards {
		fold(inOp, s.inOp)
		fold(other, s.other)
		raw = append(raw, s.raw...)
	}
	return inOp, other, raw
}
