package phylip

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// Base indices: A=0, C=1, G=2, T=3. Transitions are A↔G and C↔T.

// EvolveConfig parameterizes the sequence-evolution simulator that
// generates workloads with known ground truth (the substitute for the
// paper's real alignment datasets).
type EvolveConfig struct {
	// Taxa is the number of leaf sequences (default 8).
	Taxa int
	// SeqLen is the sequence length (default 300).
	SeqLen int
	// Kappa is the true transition/transversion rate ratio of the
	// generating Kimura two-parameter process (default 2).
	Kappa float64
	// GammaAlpha is the shape of the gamma-distributed per-site rate
	// heterogeneity; larger means more uniform (default 10, near-
	// homogeneous).
	GammaAlpha float64
	// MeanBranch is the expected branch length in substitutions/site
	// (default 0.08).
	MeanBranch float64
}

func (c *EvolveConfig) fillDefaults() {
	if c.Taxa == 0 {
		c.Taxa = 8
	}
	if c.SeqLen == 0 {
		c.SeqLen = 300
	}
	if c.Kappa == 0 {
		c.Kappa = 2
	}
	if c.GammaAlpha == 0 {
		c.GammaAlpha = 10
	}
	if c.MeanBranch == 0 {
		c.MeanBranch = 0.08
	}
}

// Dataset is one generated phylogenetics workload.
type Dataset struct {
	// Seqs holds one base-index sequence per taxon.
	Seqs [][]byte
	// TrueTree is the generating topology.
	TrueTree *Tree
	// Config records the generating parameters (the hidden quantities
	// the target variables should adapt to).
	Config EvolveConfig
}

// Evolve generates a random binary tree over cfg.Taxa leaves and evolves
// sequences down it under K2P(kappa) with gamma rate heterogeneity.
func Evolve(rng *stats.RNG, cfg EvolveConfig) *Dataset {
	cfg.fillDefaults()
	n := cfg.Taxa

	// Random topology by sequential addition: start from a 3-leaf star,
	// attach each new leaf to a random existing edge.
	tree := NewTree(n)
	internal := n // next internal node id
	type edge struct {
		a, b int
		len  float64
	}
	branch := func() float64 { return cfg.MeanBranch * (0.25 + float64(1.5*rng.Float64())) }
	edges := []edge{}
	if n < 3 {
		if n == 2 {
			edges = append(edges, edge{0, 1, branch()})
		}
	} else {
		c := internal
		internal++
		edges = append(edges, edge{0, c, branch()}, edge{1, c, branch()}, edge{2, c, branch()})
		for leaf := 3; leaf < n; leaf++ {
			i := rng.Intn(len(edges))
			e := edges[i]
			mid := internal
			internal++
			// Split e at mid, hang leaf off mid.
			edges[i] = edge{e.a, mid, e.len / 2}
			edges = append(edges,
				edge{mid, e.b, e.len / 2},
				edge{leaf, mid, branch()})
		}
	}
	for _, e := range edges {
		tree.AddEdge(e.a, e.b, e.len)
	}

	// Per-site rates from a gamma(alpha, 1/alpha) distribution (mean 1).
	rates := make([]float64, cfg.SeqLen)
	for i := range rates {
		rates[i] = gammaSample(rng, cfg.GammaAlpha) / cfg.GammaAlpha
	}

	// Root an arbitrary internal node, evolve down.
	root := n
	if tree.NodeCount() == 0 {
		root = 0
	} else if _, ok := tree.Adj[root]; !ok {
		root = 0
	}
	rootSeq := make([]byte, cfg.SeqLen)
	for i := range rootSeq {
		rootSeq[i] = byte(rng.Intn(4))
	}
	seqs := make([][]byte, n)
	var walk func(node, parent int, seq []byte)
	walk = func(node, parent int, seq []byte) {
		if node < n {
			seqs[node] = seq
		}
		for _, e := range tree.Adj[node] {
			if e.To == parent {
				continue
			}
			child := make([]byte, len(seq))
			for i, b := range seq {
				child[i] = evolveBase(rng, b, e.Length*rates[i], cfg.Kappa)
			}
			walk(e.To, node, child)
		}
	}
	walk(root, -1, rootSeq)

	return &Dataset{Seqs: seqs, TrueTree: tree, Config: cfg}
}

// evolveBase mutates one base over branch length t under K2P(kappa),
// using the exact K2P transition probabilities.
func evolveBase(rng *stats.RNG, base byte, t, kappa float64) byte {
	// K2P rates: transition rate = kappa*beta, each transversion type =
	// beta, normalized so total substitution rate = 1 per unit t:
	// kappa*beta + 2*beta = 1.
	beta := 1 / (kappa + 2)
	alpha := float64(kappa * beta)
	// Probabilities after time t (standard K2P solution):
	e1 := math.Exp(-4 * beta * t)                            // controls transversions
	e2 := math.Exp(-2 * (alpha + beta) * t)                  // controls transitions
	pTransversionEach := float64(0.25 * (1 - e1))            // to each of 2 transversion targets
	pTransition := 0.25 + float64(0.25*e1) - float64(0.5*e2) // to the transition target
	pSame := 1 - pTransition - 2*pTransversionEach

	u := rng.Float64()
	switch {
	case u < pSame:
		return base
	case u < pSame+pTransition:
		return transitionPartner(base)
	case u < pSame+pTransition+pTransversionEach:
		return transversionPartners(base)[0]
	default:
		return transversionPartners(base)[1]
	}
}

func transitionPartner(b byte) byte {
	switch b {
	case 0:
		return 2 // A→G
	case 2:
		return 0 // G→A
	case 1:
		return 3 // C→T
	default:
		return 1 // T→C
	}
}

func transversionPartners(b byte) [2]byte {
	switch b {
	case 0, 2: // purines → pyrimidines
		return [2]byte{1, 3}
	default: // pyrimidines → purines
		return [2]byte{0, 2}
	}
}

// gammaSample draws from gamma(shape, 1) via Marsaglia & Tsang for
// shape >= 1 and the boost trick for shape < 1.
func gammaSample(rng *stats.RNG, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
