// Command bench is the repo's benchmark: five share-group workloads on two
// meters (simulated cycles and host time), with per-layer counters, spans
// and probes. See README.md in this directory.
//
// With no -workload it runs everything: each workload in its own child
// process untraced, then traced (which also runs the layer probes), prints
// every metric and writes out/result.json. With -workload it is one such
// child. With -compare it judges one result file against another.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
		seed         = flag.Uint64("seed", 1988, "input seed (7 is held out for later claims)")
		reps         = flag.Int("reps", 15, "measured reps per untraced run")
		scale        = flag.Float64("scale", 1, "multiply every op count (the smoke test uses 0.01)")
		traceFlag    = flag.Int("trace", -1, "0: untraced run only, 1: traced run (with probes); default both, or 0 with -workload")
		seconds      = flag.Float64("seconds", 0, "with -workload: measure for this many seconds instead of -reps reps")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		outPath      = flag.String("out", filepath.Join(outDir, "result.json"), "where the full run writes its result")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		os.Exit(runWorkload(w, runOpts{seed: *seed, scale: *scale, reps: *reps, seconds: *seconds, trace: *traceFlag == 1}))
	default:
		os.Exit(runAll(*seed, *reps, *scale, *traceFlag, *outPath))
	}
}

// fullResult is out/result.json: provenance, and per workload the untraced
// run (the end-to-end numbers) kept apart from the traced one.
type fullResult struct {
	Commit     string                  `json:"commit"`
	Started    string                  `json:"started"`
	Host       hostInfo                `json:"host"`
	Seed       uint64                  `json:"seed"`
	Reps       int                     `json:"reps"`
	TracedReps int                     `json:"traced_reps"`
	Scale      float64                 `json:"scale"`
	Model      string                  `json:"model"`
	Workloads  map[string]*workloadRun `json:"workloads"`
}

type workloadRun struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced,omitempty"`
}

const tracedRepsFull = 3

// runAll is the one command: every workload untraced in its own child (so
// set-up time and peak memory are per workload), then traced.
func runAll(seed uint64, reps int, scale float64, traceFlag int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	full := &fullResult{Commit: gitCommit(), Started: time.Now().UTC().Format(time.RFC3339),
		Host: pinHost(), Seed: seed, Reps: reps, TracedReps: tracedRepsFull, Scale: scale,
		Model:     "unvalidated: the repo holds no hardware reference results, so no error figure is given",
		Workloads: map[string]*workloadRun{}}
	code := 0
	child := func(w *workload, traced bool, n int) *runResult {
		t := "0"
		if traced {
			t = "1"
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-reps", fmt.Sprint(n), "-scale", fmt.Sprint(scale), "-trace", t)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (trace %s): %v\n", w.name, t, err)
			code = 1
		}
		var res runResult
		if err := readJSON(detailPath(w.name, traced), &res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			return nil
		}
		return &res
	}
	for _, w := range workloads {
		full.Workloads[w.name] = &workloadRun{}
		if traceFlag != 1 {
			full.Workloads[w.name].Untraced = child(w, false, reps)
		}
	}
	if traceFlag != 0 {
		for _, w := range workloads {
			full.Workloads[w.name].Traced = child(w, true, tracedRepsFull)
		}
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
		err = writeJSON(outPath, full)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	printSummary(full)
	fmt.Println("wrote", outPath)
	return code
}

// printSummary is the end-to-end table of a full run.
func printSummary(full *fullResult) {
	fmt.Printf("\n== end to end (seed %d, %d reps, GOMAXPROCS %d of %d, commit %s; model unvalidated)\n",
		full.Seed, full.Reps, full.Host.GOMAXPROCS, full.Host.NProc, full.Commit)
	for _, w := range workloads {
		run := full.Workloads[w.name]
		if run == nil || run.Untraced == nil {
			continue
		}
		for _, name := range compared(w) {
			m, ok := run.Untraced.Metrics[name]
			if !ok {
				continue
			}
			fmt.Printf("%-13s %-22s %14.6g %-10s [q1 %.6g q3 %.6g n=%d] %s\n",
				w.name, name, m.Median, m.Unit, m.Q1, m.Q3, m.N, m.Meter)
		}
		if t := run.Traced; t != nil {
			m := t.Metrics["trace.overhead_ratio"]
			fmt.Printf("%-13s %-22s %14.6g %-10s [n=%d] traced/untraced host time\n", w.name, "trace.overhead_ratio", m.Median, m.Unit, m.N)
		}
	}
}

// compared lists the end-to-end metrics of one workload, in report order.
func compared(w *workload) []string {
	names := []string{"setup_s", "host_us_per_op", "simcyc_per_op"}
	if w.name == "attr_sync" {
		names = append(names, "updater_simcyc_per_op")
	}
	return append(names, "fail_share", "peak_rss_mb")
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
