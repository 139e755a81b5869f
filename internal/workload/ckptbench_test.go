package workload

import "testing"

// The S10 claim in unit form: against the decaying dirtier, the final
// stop-the-world delta must shrink monotonically as pre-copy passes are
// added — the whole resident set with no passes, a tail of a few pages
// after one, nothing once the passes outlast the churn.
func TestCkptPrecopyMonotone(t *testing.T) {
	passes := []int{0, 1, 2, 4}
	prev := -1
	for i, p := range passes {
		info, err := CkptPrecopy(DefaultConfig(), 4, 64, p)
		if err != nil {
			t.Fatalf("passes=%d: %v", p, err)
		}
		t.Logf("passes=%d: pre=%d stw=%d stwcyc=%d image=%dB",
			p, info.PrePages, info.STWPages, info.STWCycles, info.ImageBytes)
		if i == 0 {
			if info.STWPages < 4*64 {
				t.Errorf("naive snapshot copied %d pages stopped, want the whole %d-page set", info.STWPages, 4*64)
			}
		} else if info.STWPages > prev {
			t.Errorf("STW delta grew from %d to %d pages when passes went from %d to %d",
				prev, info.STWPages, passes[i-1], p)
		}
		if p > 0 && info.PrePages == 0 {
			t.Errorf("passes=%d copied nothing live", p)
		}
		prev = info.STWPages
	}
}
