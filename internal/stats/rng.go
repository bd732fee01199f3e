package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). Every stochastic component of Autonomizer — weight
// initialization, epsilon-greedy exploration, synthetic workload
// generation — draws from an explicitly seeded RNG so that experiments
// replay bit-for-bit. We deliberately avoid math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Split derives an independent child generator. The child's stream is
// decorrelated from the parent's by mixing in a large odd constant, which
// lets subsystems (e.g. each game environment and each network layer)
// own private generators derived from one experiment seed.
func (r *RNG) Split() *RNG {
	s := r.Uint64()*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	return NewRNG(s)
}

// SplitN derives n independent child generators in one draw sequence —
// the per-episode stream fan-out for parallel rollouts. Stream i is the
// i-th Split of r regardless of how many goroutines later consume them,
// so results reduced in stream order are independent of scheduling.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// State exposes the generator's internal state word so that durable
// training checkpoints can capture the exact stream position; a stream
// restored with SetState continues bit-for-bit where the original left
// off (the WAL-backed fit-resume contract relies on this).
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds or fast-forwards the generator to a state previously
// returned by State. A zero state is remapped like a zero seed.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0, mirroring math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Range returns a uniformly distributed value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
