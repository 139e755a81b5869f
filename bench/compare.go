package main

import (
	"fmt"
	"os"
)

// runCompare judges result file B against baseline A, one row per workload
// and end-to-end metric. Every metric is lower-is-better. Verdicts:
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  the medians' own uncertainty (their standard-error bands,
//	            median ± 0.93·IQR/√n over the rep samples) is wider than the
//	            bound and the two bands overlap, so this pair cannot tell
//
// It exits non-zero on any "worse", and refuses files that were not measured
// the same way.
func runCompare(pathA, pathB string) int {
	var a, b fullResult
	if err := readJSON(pathA, &a); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := readJSON(pathB, &b); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if msg := mismatch(&a, &b); msg != "" {
		fmt.Fprintln(os.Stderr, "bench: refusing to compare:", msg)
		return 2
	}
	fmt.Printf("A = %s (commit %s)\nB = %s (commit %s)\nseed %d, GOMAXPROCS %d of %d\n\n",
		pathA, a.Commit, pathB, b.Commit, a.Seed, a.Host.GOMAXPROCS, a.Host.NProc)
	fmt.Printf("%-13s %-22s %12s %25s %12s %25s %8s %7s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil || ra.Untraced == nil || rb.Untraced == nil {
			continue
		}
		for _, name := range compared(w) {
			ma, okA := ra.Untraced.Metrics[name]
			mb, okB := rb.Untraced.Metrics[name]
			if !okA || !okB {
				continue
			}
			bound := boundFor(name, w)
			v, change := verdict(ma.dist, mb.dist, bound)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-13s %-22s %12.6g %25s %12.6g %25s %+7.2f%% %6.1f%%  %s\n",
				w.name, name, ma.Median, fmt.Sprintf("[%.5g, %.5g]", ma.Q1, ma.Q3),
				mb.Median, fmt.Sprintf("[%.5g, %.5g]", mb.Q1, mb.Q3), change*100, bound*100, v)
		}
	}
	fmt.Printf("\n%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

// verdict compares two distributions of a lower-is-better metric. change is
// B's median relative to A's (positive = worse).
func verdict(a, b dist, bound float64) (string, float64) {
	if a.Median == 0 {
		// fail_share on a healthy tree: any increase is a regression.
		if b.Median > 0 {
			return "worse", 0
		}
		return "ok", 0
	}
	change := (b.Median - a.Median) / a.Median
	aLo, aHi, okA := a.medianBand()
	bLo, bHi, okB := b.medianBand()
	if okA && okB {
		spread := (aHi - aLo) / a.Median
		if s := (bHi - bLo) / b.Median; s > spread {
			spread = s
		}
		if spread > bound && aLo <= bHi && bLo <= aHi {
			return "unresolved", change
		}
	}
	if change > bound {
		return "worse", change
	}
	return "ok", change
}

// mismatch names the first way two result files were measured differently.
func mismatch(a, b *fullResult) string {
	switch {
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	case a.Host.NProc != b.Host.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.Host.NProc, b.Host.NProc)
	case a.Scale != b.Scale:
		return fmt.Sprintf("scale %g vs %g", a.Scale, b.Scale)
	}
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if (ra == nil || ra.Untraced == nil) != (rb == nil || rb.Untraced == nil) {
			return w.name + " is in only one file"
		}
		if ra == nil || ra.Untraced == nil {
			continue
		}
		if x, y := ra.Untraced.OpsPerRep, rb.Untraced.OpsPerRep; x != y {
			return fmt.Sprintf("%s ops per rep %d vs %d", w.name, x, y)
		}
	}
	return ""
}
