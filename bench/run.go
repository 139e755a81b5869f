package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to exec as Go code gets; setup_s counts from it.
var processStart = time.Now()

const (
	outDir        = "out" // relative to the bench directory, the working directory
	setupsPerRun  = 3     // set-ups per run; setup_s is their median
	warmupTimeout = 60 * time.Second
	minRepTimeout = 30 * time.Second
	exitWedged    = 3
)

// runOpts is one child invocation: one workload, traced or not.
type runOpts struct {
	seed    uint64
	scale   float64
	reps    int     // measured reps; ignored when seconds > 0
	seconds float64 // measure for this long instead of a rep count
	trace   bool
}

// metricOut is one metric of one run: its catalogue row and its samples.
type metricOut struct {
	Unit  string  `json:"unit"`
	Meter string  `json:"meter"`
	Kind  string  `json:"kind"`
	Bound float64 `json:"bound,omitempty"`
	dist
}

// runResult is everything one child run measured. Traced and untraced runs
// are separate results and are never mixed.
type runResult struct {
	Workload   string               `json:"workload"`
	Why        string               `json:"why"`
	Seed       uint64               `json:"seed"`
	Scale      float64              `json:"scale"`
	Traced     bool                 `json:"traced"`
	OpsPerRep  int64                `json:"ops_per_rep"`
	Reps       int                  `json:"reps"`
	TracedReps int                  `json:"traced_reps"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Correct    bool                 `json:"correct"`
	Wedged     bool                 `json:"wedged"`
	Failures   []string             `json:"failures,omitempty"`
	Host       hostInfo             `json:"host"`
	Metrics    map[string]metricOut `json:"metrics"`
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// pinHost sets GOMAXPROCS = min(nproc, 4): the simulated machine has four
// CPUs, and the sim meter depends on how many host threads carry them.
func pinHost() hostInfo {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return hostInfo{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: n}
}

// runner carries one child run's accumulating state, so the watchdog can
// still report what was measured when a rep wedges.
type runner struct {
	w       *workload
	opts    runOpts
	res     *runResult
	samples map[string][]float64
	traces  []traceRep
	lastRaw []spanRec
}

// runWorkload is the child: measure, then report. It returns the process's
// exit code.
func runWorkload(w *workload, opts runOpts) int {
	rn := newRunner(w, opts)
	if hung := rn.measure(); hung != nil {
		rn.dumpWedge(hung)
		rn.report()
		return exitWedged
	}
	return rn.report()
}

func newRunner(w *workload, opts runOpts) *runner {
	return &runner{w: w, opts: opts, samples: map[string][]float64{},
		res: &runResult{Workload: w.name, Why: w.why, Seed: opts.seed, Scale: opts.scale,
			Traced: opts.trace, OpsPerRep: w.ops(opts.scale), Host: pinHost(), Correct: true,
			Metrics: map[string]metricOut{}}}
}

// measure runs the set-ups (each a generation plus one discarded warm-up
// rep), the measured reps, and in a traced run the traced reps and the probe
// phase. It returns the rep that wedged, or nil.
func (rn *runner) measure() (hung *rep) {
	w, opts := rn.w, rn.opts
	// The first set-up sample counts from process start.
	var in any
	var warm time.Duration
	for i := 0; i < setupsPerRun; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		in = w.gen(opts.seed, opts.scale)
		if r, ok := rn.runRep(in, false, warmupTimeout); !ok {
			return r
		}
		d := time.Since(t0)
		rn.samples["setup_s"] = append(rn.samples["setup_s"], d.Seconds())
		if d > warm {
			warm = d
		}
	}
	deadline := 20 * warm
	if deadline < minRepTimeout {
		deadline = minRepTimeout
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if opts.seconds > 0 {
			if i >= 3 && time.Since(start) >= budget {
				break
			}
		} else if i >= opts.reps {
			break
		}
		r, ok := rn.runRep(in, false, deadline)
		if !ok {
			return r
		}
		rn.record(r)
		rn.res.Reps++
		if !opts.trace {
			continue
		}
		tr, ok := rn.runRep(in, true, deadline)
		if !ok {
			return tr
		}
		rn.recordTraced(r, tr)
		rn.res.TracedReps++
	}
	if opts.trace {
		for name, s := range runProbes(opts.scale) {
			rn.samples[name] = s
		}
	}
	rn.samples["peak_rss_mb"] = []float64{peakRSSMiB()}
	return nil
}

// runRep runs one rep under the wedge watchdog. A rep that does not finish
// by the deadline is abandoned where it hangs; ok is false.
func (rn *runner) runRep(in any, traced bool, deadline time.Duration) (r *rep, ok bool) {
	r = &rep{in: in}
	if traced {
		r.tr = newTracer()
		r.hs = r.tr.newShard(0)
	}
	// Every rep starts from a collected heap, so none pays for its
	// predecessor's garbage and the runtime is in the same state each time.
	runtime.GC()
	done := make(chan struct{})
	go func() {
		rn.w.run(r)
		close(done)
	}()
	select {
	case <-done:
		return r, true
	case <-time.After(deadline):
		return r, false
	}
}

// record adds one untraced rep's sample of every end-to-end and counter
// metric.
func (rn *runner) record(r *rep) {
	rn.res.Attempted += r.ops
	failed := r.failed.Load()
	if failed > r.ops {
		failed = r.ops
	}
	rn.res.Failed += failed
	rn.noteFailures(r)
	for name, v := range r.values() {
		if strings.HasPrefix(name, "trace.") {
			continue // the ring is off in an untraced rep
		}
		rn.samples[name] = append(rn.samples[name], v)
	}
}

// traceRep is one traced rep in the trace file.
type traceRep struct {
	Ops       int64               `json:"ops"`
	WallNs    int64               `json:"wall_ns"`
	InOp      map[string]*spanAgg `json:"in_op"`
	Other     map[string]*spanAgg `json:"other"`
	RingKinds map[string]int      `json:"ring_kinds"`
}

// recordTraced adds the span, ring and overhead metrics of one traced rep,
// paired with the untraced rep that ran just before it.
func (rn *runner) recordTraced(plain, r *rep) {
	inOp, other, raw := r.tr.merged()
	ops := float64(r.ops)
	add := func(name string, v float64) { rn.samples[name] = append(rn.samples[name], v) }

	type layerSum struct{ ns, cyc, calls int64 }
	layers := map[string]*layerSum{}
	var layerNs int64 // self time inside the eight reported layers
	for name, a := range inOp {
		if name == "op" || a.Layer == lBench {
			continue
		}
		l := layers[a.Layer]
		if l == nil {
			l = &layerSum{}
			layers[a.Layer] = l
		}
		l.ns += a.SelfNs
		l.cyc += a.SelfCyc
		l.calls += a.Calls
		layerNs += a.SelfNs
	}
	for _, l := range spanLayers {
		s := layers[l]
		if s == nil {
			s = &layerSum{}
		}
		add(l+".span_host_us_per_op", ratio(float64(s.ns)/1e3, ops))
		add(l+".span_simcyc_per_op", ratio(float64(s.cyc), ops))
		add(l+".span_calls_per_op", ratio(float64(s.calls), ops))
	}
	// What the op segments cover that no layer's span does: the programs'
	// own Go code, harness work inside an op, and the tracer itself. Self
	// times must add back up to the op segments exactly.
	var unattributed int64
	if op := inOp["op"]; op != nil {
		unattributed = op.TotalNs - layerNs
		if sum := sumSelf(inOp); sum != op.TotalNs {
			rn.res.Correct = false
			rn.res.Failures = append(rn.res.Failures,
				fmt.Sprintf("span self times (%d ns) do not add up to the op segments (%d ns)", sum, op.TotalNs))
		}
	}
	add("bench.unattributed_host_us_per_op", ratio(float64(unattributed)/1e3, ops))

	v := r.values()
	add("trace.ring_events_per_op", v["trace.ring_events_per_op"])
	add("trace.ring_drop_ratio", v["trace.ring_drop_ratio"])
	add("trace.overhead_ratio", ratio(float64(r.wallNs), float64(plain.wallNs)))

	kinds := map[string]int{}
	if s := r.sys.Load(); s != nil {
		events, _ := s.Machine.Trace.Snapshot()
		for _, e := range events {
			kinds[e.Kind.String()]++
		}
	}
	rn.traces = append(rn.traces, traceRep{Ops: r.ops, WallNs: r.wallNs, InOp: inOp, Other: other, RingKinds: kinds})
	rn.lastRaw = raw
	if r.failed.Load() > 0 {
		rn.res.Correct = false // a traced rep's ops are not counted, its failures are
		rn.noteFailures(r)
	}
}

// noteFailures keeps the first few failure messages of the run.
func (rn *runner) noteFailures(r *rep) {
	for _, f := range r.fails {
		if len(rn.res.Failures) < 8 {
			rn.res.Failures = append(rn.res.Failures, f)
		}
	}
}

func sumSelf(m map[string]*spanAgg) int64 {
	var n int64
	for _, a := range m {
		n += a.SelfNs
	}
	return n
}

// dumpWedge is the watchdog's report: every goroutine's stack and the
// kernel's counters go to a file, and the hung rep's ops count as failed.
func (rn *runner) dumpWedge(r *rep) {
	rn.res.Wedged = true
	rn.res.Attempted += rn.res.OpsPerRep
	rn.res.Failed += rn.res.OpsPerRep
	path := filepath.Join(outDir, "wedge_"+rn.w.name+".txt")
	rn.res.Failures = append(rn.res.Failures, "a rep ran past its deadline; see "+path)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s wedged: a rep ran past its deadline\n\n", rn.w.name)
	pprof.Lookup("goroutine").WriteTo(f, 2)
	// Stats takes kernel locks a wedged system may hold; give up on it
	// rather than hang the watchdog too.
	stats := make(chan string, 1)
	go func() {
		if s := r.sys.Load(); s != nil {
			stats <- fmt.Sprintf("\nStats: %+v\n", s.Stats())
		} else {
			stats <- "\nno system booted\n"
		}
	}()
	select {
	case s := <-stats:
		f.WriteString(s)
	case <-time.After(2 * time.Second):
		f.WriteString("\nStats() did not return\n")
	}
}

// summarise turns the samples into distributions, one per catalogue metric
// that was measured.
func (rn *runner) summarise() {
	res := rn.res
	if res.Failed > 0 || res.Wedged {
		res.Correct = false
	}
	defs := append(append([]metricDef{}, endToEnd...), perLayer...)
	defs = append(defs, metricDef{"fail_share", "ratio", "count", "e2e", 0})
	for _, d := range defs {
		s, ok := rn.samples[d.name]
		if !ok {
			continue
		}
		if d.kind == "e2e" {
			d.bound = boundFor(d.name, rn.w)
		}
		res.Metrics[d.name] = metricOut{Unit: d.unit, Meter: d.meter, Kind: d.kind, Bound: d.bound, dist: newDist(s)}
	}
	if m, ok := res.Metrics["core.updater_simcyc_per_op"]; ok && rn.w.name == "attr_sync" {
		// The §6.3 claim metric is end-to-end on this workload only.
		m.Kind, m.Bound = "e2e", boundFor("updater_simcyc_per_op", rn.w)
		res.Metrics["updater_simcyc_per_op"] = m
	}
}

// contractLine is the one-line result BENCHMARK.json's driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one, each as its median.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *runResult) contractLine() contractLine {
	want := endToEnd
	if res.Traced {
		want = perLayer
	}
	line := contractLine{res.Correct, res.Attempted, res.Failed, map[string]contractValue{}}
	for _, d := range want {
		line.Metrics[d.name] = contractValue{res.Metrics[d.name].Median, d.unit}
	}
	return line
}

// report writes the detail (and trace) files, prints every metric, and ends
// with the one-line JSON result. It returns the exit code.
func (rn *runner) report() int {
	rn.summarise()
	code := 0
	if err := rn.writeFiles(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	printRun(rn.res)
	out, _ := json.Marshal(rn.res.contractLine())
	fmt.Println(string(out))
	if !rn.res.Correct {
		code = 1
	}
	return code
}

func detailPath(workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, t))
}

func (rn *runner) writeFiles() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(detailPath(rn.w.name, rn.opts.trace), rn.res); err != nil {
		return err
	}
	if !rn.opts.trace {
		return nil
	}
	return writeJSON(filepath.Join(outDir, "trace_"+rn.w.name+".json"), struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Note     string     `json:"note"`
		Reps     []traceRep `json:"reps"`
		Spans    []spanRec  `json:"spans"`
	}{rn.w.name, rn.opts.seed,
		fmt.Sprintf("aggregates cover every span of each traced rep; spans holds the first %d of the last one", rawSpanCap),
		rn.traces, rn.lastRaw})
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRun prints every metric of one run by name, with its unit.
func printRun(res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s) seed=%d scale=%g reps=%d ops/rep=%d attempted=%d failed=%d correct=%v\n",
		res.Workload, mode, res.Seed, res.Scale, res.Reps, res.OpsPerRep, res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Println("   FAIL:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := res.Metrics[names[i]], res.Metrics[names[j]]
		if (a.Kind == "e2e") != (b.Kind == "e2e") {
			return a.Kind == "e2e"
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := res.Metrics[n]
		bound := ""
		if m.Kind == "e2e" {
			bound = fmt.Sprintf(" bound=%.3g%%", m.Bound*100)
		}
		fmt.Printf("%-40s %14.6g %-11s [q1 %.6g q3 %.6g n=%d] %s/%s%s\n",
			n, m.Median, m.Unit, m.Q1, m.Q3, m.N, m.Meter, m.Kind, bound)
	}
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
