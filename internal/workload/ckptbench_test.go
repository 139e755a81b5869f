package workload

import "testing"

// The S10 claim in unit form: against the decaying dirtier, the final
// stop-the-world delta must shrink monotonically as pre-copy passes are
// added — the whole resident set with no passes, a tail of a few pages
// after one, nothing once the passes outlast the churn.
//
// How far the dirtiers get while the initiator copies is decided by the
// host scheduler (the simulated CPUs share no clock), so a single run's
// tail is a handful of pages either way — 0 after two passes and 1 after
// four happens a few runs in a hundred on two cores, and with more host
// parallelism the churn is still cooling at the fourth pass. The claim is
// about the expectation and the order of magnitude, so the order is
// asserted on totals over several trials, with one page per member per
// trial of slack between neighbouring tails, and the last total must be
// under a tenth of the naive snapshot's. What is deterministic is asserted
// on every trial.
func TestCkptPrecopyMonotone(t *testing.T) {
	const trials, members, pagesEach = 8, 4, 64
	passes := []int{0, 1, 2, 4}
	first, prev := 0, 0
	for i, p := range passes {
		pre, stw := 0, 0
		for k := 0; k < trials; k++ {
			info, err := CkptPrecopy(DefaultConfig(), members, pagesEach, p)
			if err != nil {
				t.Fatalf("passes=%d: %v", p, err)
			}
			if p == 0 && info.STWPages < members*pagesEach {
				t.Errorf("naive snapshot copied %d pages stopped, want the whole %d-page set", info.STWPages, members*pagesEach)
			}
			if p > 0 && info.PrePages == 0 {
				t.Errorf("passes=%d copied nothing live", p)
			}
			pre += info.PrePages
			stw += info.STWPages
		}
		t.Logf("passes=%d over %d trials: pre=%d stw=%d", p, trials, pre, stw)
		if i == 0 {
			first = stw
		} else if stw > prev+trials*members {
			t.Errorf("STW delta grew from %d to %d pages (over %d trials) when passes went from %d to %d",
				prev, stw, trials, passes[i-1], p)
		}
		prev = stw
	}
	if prev*10 >= first {
		t.Errorf("STW delta after %d passes is %d pages (over %d trials), not under a tenth of the naive snapshot's %d",
			passes[len(passes)-1], prev, trials, first)
	}
}
