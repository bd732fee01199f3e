package main

import (
	"math"
	"time"
)

// probe is a fixed reference computation that the benchmark times
// between the operations it measures: the rl workloads' frames and every
// workload's set-ups. A shared host runs faster or slower
// from one second to the next (a busy neighbour on the same core, a clock
// that moves), and that moves every frame time with it; the probe moves
// the same way, so a time rescaled by the probe's recent time reads
// the program's cost rather than the host's state. The probe is the
// benchmark's own code and calls nothing in the repository, so a change
// to the program never moves it.
//
// The probe is a 24x24 matrix product and 1000 map lookups: arithmetic
// like the kernels' and pointer chasing like the runtime's. It is more
// sensitive to the host's state than a frame is, so a frame time is
// scaled by (probeNominal / probe time) to the power probeExponent. On a
// 2-vCPU Xeon whose speed moved between states up to ~2x apart, the
// spread (IQR/median) of ten runs' frame medians, over three such sets,
// was 0.12-0.39 as measured, 0.02-0.11 with the exponent 2/3 and
// 0.05-0.18 with the exponent 1 (perfbench/README.md has the table).
type probe struct {
	a, b, c []float64
	m       map[int]float64
	sink    float64

	every, since time.Duration // measured time between probes, and since the last
	ring         [probeRing]time.Duration
	n            int
	scale        float64 // (probeNominal / median of ring) ^ probeExponent
	all          dist    // every probe time, for reporting
}

const (
	probeN       = 24
	probeLookups = 1000
	probeRing    = 5 // the scale follows the median of this many recent probes
	// probeNominal is the probe time the scaled frame times are read at:
	// about what one probe takes on the host above in its fast state.
	probeNominal  = 20 * time.Microsecond
	probeExponent = 2.0 / 3
)

func newProbe(every time.Duration) *probe {
	p := &probe{
		a: make([]float64, probeN*probeN), b: make([]float64, probeN*probeN), c: make([]float64, probeN*probeN),
		m: make(map[int]float64, 1024), every: every,
	}
	for i := range p.a {
		p.a[i] = float64(i%7) - 3
		p.b[i] = float64(i%5) - 2
	}
	for i := 0; i < 1024; i++ {
		p.m[i] = float64(i)
	}
	p.refresh()
	return p
}

// sample runs the probe twice and records the second run: the first
// brings its data back into cache, so that what the measured work left
// there does not decide the probe's time.
func (p *probe) sample() {
	p.run()
	s := time.Now()
	p.run()
	d := time.Since(s)
	p.all.addDur(d)
	p.ring[p.n%probeRing] = d
	p.n++
	p.rescale()
}

func (p *probe) run() {
	for i := 0; i < probeN; i++ {
		for j := 0; j < probeN; j++ {
			sum := 0.0
			for k := 0; k < probeN; k++ {
				sum += p.a[i*probeN+k] * p.b[k*probeN+j]
			}
			p.c[i*probeN+j] = sum
		}
	}
	sum := 0.0
	for i := 0; i < probeLookups; i++ {
		sum += p.m[(i*7919)&1023]
	}
	p.sink += sum
}

// rescale sets the scale from the median of the recent probes, so that
// one probe a preemption stretched does not move it.
func (p *probe) rescale() {
	p.scale = math.Pow(float64(probeNominal)/float64(ringMedian(p.ring)), probeExponent)
}

// refresh replaces the recent probes with fresh ones.
func (p *probe) refresh() {
	for i := 0; i < probeRing; i++ {
		p.sample()
	}
}

// after accounts d of measured time and probes once every p.every of it,
// between two measured operations, never inside one.
func (p *probe) after(d time.Duration) {
	p.since += d
	if p.since >= p.every {
		p.since = 0
		p.sample()
	}
}

// norm rescales a measured time to a host on which the probe takes
// probeNominal.
func (p *probe) norm(d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.scale)
}

// ringMedian returns the median of the ring without sorting it in place.
func ringMedian(r [probeRing]time.Duration) time.Duration {
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j] < r[j-1]; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
	return r[len(r)/2]
}
