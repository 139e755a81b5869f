package main

import (
	"math"
	"sort"
)

// dist summarises the per-rep (or per-batch) samples of one metric. The
// metric's value is the median; the raw samples stay in the JSON so a later
// comparison can recompute anything.
type dist struct {
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func newDist(samples []float64) dist {
	d := dist{N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Median = quantile(s, 0.5)
	d.Q1 = quantile(s, 0.25)
	d.Q3 = quantile(s, 0.75)
	return d
}

// quantile interpolates linearly between order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianBand returns the median's one-standard-error band: median ±
// 0.93·IQR/√n (the standard error of a sample median, with the spread
// estimated robustly from the quartiles). With fewer than six samples the
// spread cannot be estimated and ok is false.
func (d dist) medianBand() (lo, hi float64, ok bool) {
	if d.N < 6 {
		return d.Median, d.Median, false
	}
	se := 0.93 * (d.Q3 - d.Q1) / math.Sqrt(float64(d.N))
	return d.Median - se, d.Median + se, true
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rng is splitmix64: tiny, seedable, and identical on every Go release, so
// a seed names the same inputs forever.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes s in place (Fisher–Yates).
func shuffle[T any](r *rng, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
