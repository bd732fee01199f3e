package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
// The ladder stops at p99 because every tail metric is named _p99 and the
// workloads are sized so that p99 is always reachable.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank index of percentile p in n sorted
// samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tail applies the reporting rule for tails: the highest percentile on
// tailLadder that has at least ten samples beyond it. ok is false when
// not even the median has ten samples beyond it.
func tail(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, sorted[rank(p, n)-1], true
		}
	}
	return 0, math.NaN(), false
}

// dist is one distribution of samples, in microseconds unless the caller
// says otherwise; the percentile methods sort it in place.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64)            { d.v = append(d.v, x); d.sorted = false }
func (d *dist) addDur(x time.Duration)   { d.add(float64(x) / float64(time.Microsecond)) }
func (d *dist) n() int                   { return len(d.v) }
func (d *dist) p50() float64             { d.sort(); return percentile(d.v, 50) }
func (d *dist) tail() (float64, float64) { d.sort(); p, v, _ := tail(d.v); return p, v }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
}

// medianOf returns the median of a few repeated measurements.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
