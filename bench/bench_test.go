package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest is the part of BENCHMARK.json the smoke test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Reported by every run beside what BENCHMARK.json declares: fail_share is
// 0 on a healthy tree (the manifest carries it as attempted/failed), and
// updater_simcyc_per_op is attr_sync's end-to-end view of
// core.updater_simcyc_per_op.
var undeclared = map[string]bool{"fail_share": true, "updater_simcyc_per_op": true}

// TestSmoke runs every workload and every probe at 1 % scale, one measured
// rep untraced and one traced, under the same watchdog as a real run, and
// holds the output to BENCHMARK.json: every declared workload and metric
// must be reported, with the declared unit, and nothing undeclared may be.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, d := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("BENCHMARK.json: bad metric name %q", d.Name)
		}
		declared[d.Name] = d.Unit
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}

	for _, mw := range m.Workloads {
		w := findWorkload(mw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", mw.Name)
			continue
		}
		if !nameRE.MatchString(mw.Name) {
			t.Errorf("bad workload name %q", mw.Name)
		}
		for _, traced := range []bool{false, true} {
			rn := newRunner(w, runOpts{seed: 1988, scale: 0.01, reps: 1, trace: traced})
			if hung := rn.measure(); hung != nil {
				rn.dumpWedge(hung)
				t.Fatalf("%s (traced=%v) wedged: %v", w.name, traced, rn.res.Failures)
			}
			rn.summarise()
			res := rn.res
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d: %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			// The contract line carries exactly the declared set for its mode.
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			line := res.contractLine()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): result line has %d metrics, BENCHMARK.json declares %d",
					w.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): %s is declared but not in the result line", w.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, got.Unit, d.Unit)
				case res.Metrics[d.Name].N == 0:
					t.Errorf("%s (traced=%v): %s was never measured", w.name, traced, d.Name)
				}
			}
			// The detail may hold no metric the manifest does not know.
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: bad metric name %q", w.name, name)
				}
				if _, ok := declared[name]; !ok && !undeclared[name] {
					t.Errorf("%s (traced=%v): reports %s, which BENCHMARK.json does not declare", w.name, traced, name)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	flat := func(v float64, n int) dist {
		s := make([]float64, n)
		for i := range s {
			s[i] = v + float64(i%3)*v*0.001
		}
		return newDist(s)
	}
	noisy := newDist([]float64{60, 140, 80, 120, 100, 90, 110, 70, 130, 100})
	for _, c := range []struct {
		name  string
		a, b  dist
		bound float64
		want  string
	}{
		{"same", flat(100, 15), flat(100, 15), 0.10, "ok"},
		{"within bound", flat(100, 15), flat(108, 15), 0.10, "ok"},
		{"beyond bound", flat(100, 15), flat(115, 15), 0.10, "worse"},
		{"better", flat(100, 15), flat(50, 15), 0.10, "ok"},
		{"too noisy to tell", noisy, noisy, 0.10, "unresolved"},
		{"new failures", newDist([]float64{0, 0, 0}), newDist([]float64{0, 0.1, 0.1}), 0, "worse"},
		{"no failures", newDist([]float64{0, 0, 0}), newDist([]float64{0, 0, 0}), 0, "ok"},
	} {
		if got, _ := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
