package phylip

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Params are the distance-estimation target variables, mirroring
// PHYLIP dnadist's user-supplied settings.
type Params struct {
	// Kappa is the assumed transition/transversion rate ratio. When it
	// matches the generating process the corrected distances are
	// (nearly) additive; a mismatch distorts long branches.
	Kappa float64
	// GammaAlpha is the assumed gamma rate-heterogeneity shape used in
	// the distance correction (-ln x becomes alpha·(x^(-1/alpha)-1)).
	GammaAlpha float64
	// MaxDist caps saturated distances (pairs whose correction formula
	// diverges). Too low collapses deep structure; too high lets noise
	// dominate.
	MaxDist float64
}

// DefaultParams mirrors dnadist's stock settings: ttratio 2.0, no rate
// heterogeneity (large alpha), generous saturation cap.
func DefaultParams() Params { return Params{Kappa: 2, GammaAlpha: 50, MaxDist: 3} }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Kappa <= 0 || p.Kappa > 50 {
		return fmt.Errorf("phylip: kappa %v out of (0, 50]", p.Kappa)
	}
	if p.GammaAlpha <= 0 || p.GammaAlpha > 1000 {
		return fmt.Errorf("phylip: gamma alpha %v out of (0, 1000]", p.GammaAlpha)
	}
	if p.MaxDist <= 0 || p.MaxDist > 20 {
		return fmt.Errorf("phylip: maxDist %v out of (0, 20]", p.MaxDist)
	}
	return nil
}

// Clamp coerces parameters into range.
func (p Params) Clamp() Params {
	p.Kappa = stats.Clamp(p.Kappa, 0.5, 50)
	p.GammaAlpha = stats.Clamp(p.GammaAlpha, 0.1, 1000)
	p.MaxDist = stats.Clamp(p.MaxDist, 0.5, 20)
	return p
}

// Trace captures the internal statistics of one distance computation —
// the candidate feature variables.
type Trace struct {
	// TsTvRatio is the mean observed transition/transversion ratio over
	// all pairs — the Min feature for kappa.
	TsTvRatio float64
	// MeanDiff and VarDiff summarize pairwise divergence — features for
	// maxDist and gammaAlpha.
	MeanDiff, VarDiff float64
	// SiteRateDispersion is the variance/mean ratio of per-site
	// difference counts, which rises with rate heterogeneity — the Min
	// feature for gammaAlpha.
	SiteRateDispersion float64
	// Saturated counts pairs that hit the MaxDist cap.
	Saturated int
	// RawPairStats flattens per-pair (P, Q) observations — the Raw
	// feature encoding.
	RawPairStats []float64
}

// Distances computes the pairwise corrected distance matrix under the
// assumed parameters, optionally recording dependence events and
// internal statistics.
func Distances(seqs [][]byte, p Params, g *dep.Graph, tr *Trace) ([][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(seqs) < 2 {
		return nil, fmt.Errorf("phylip: need at least 2 sequences, got %d", len(seqs))
	}
	if g != nil {
		recordDeps(g)
	}
	n := len(seqs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}

	var tsSum, tvSum float64
	var diffs []float64
	var perSiteDiffCounts []float64
	if len(seqs[0]) > 0 {
		perSiteDiffCounts = make([]float64, len(seqs[0]))
	}

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if len(seqs[i]) != len(seqs[j]) {
				return nil, fmt.Errorf("phylip: sequences %d and %d differ in length", i, j)
			}
			length := float64(len(seqs[i]))
			var ts, tv float64
			for k := range seqs[i] {
				a, b := seqs[i][k], seqs[j][k]
				if a == b {
					continue
				}
				perSiteDiffCounts[k]++
				if transitionPartner(a) == b {
					ts++
				} else {
					tv++
				}
			}
			bigP := ts / length // observed transition proportion
			bigQ := tv / length // observed transversion proportion
			tsSum += ts
			tvSum += tv
			diffs = append(diffs, bigP+bigQ)
			if tr != nil {
				tr.RawPairStats = append(tr.RawPairStats, bigP, bigQ)
			}

			dist, saturated := correctedDistance(bigP, bigQ, p)
			if saturated && tr != nil {
				tr.Saturated++
			}
			d[i][j] = dist
			d[j][i] = dist
		}
	}
	if tr != nil {
		if tvSum > 0 {
			tr.TsTvRatio = tsSum / tvSum
		} else {
			tr.TsTvRatio = 10 // all-transition degenerate case
		}
		tr.MeanDiff = stats.Mean(diffs)
		tr.VarDiff = stats.Variance(diffs)
		m := stats.Mean(perSiteDiffCounts)
		if m > 0 {
			tr.SiteRateDispersion = stats.Variance(perSiteDiffCounts) / m
		}
	}
	return d, nil
}

// correctedDistance maps observed (P, Q) to an evolutionary distance
// using the assumed kappa to apportion the total difference, the gamma
// correction for rate heterogeneity, and the saturation cap.
func correctedDistance(bigP, bigQ float64, p Params) (float64, bool) {
	// Re-apportion the observed total difference according to the
	// assumed kappa (the dnadist-style use of the Ttratio setting):
	// under K2P the expected transition:transversion split of new
	// substitutions is kappa : 2.
	total := bigP + bigQ
	estP := total * p.Kappa / (p.Kappa + 2)
	estQ := total * 2 / (p.Kappa + 2)

	// K2P correction with gamma heterogeneity: -ln(x) generalizes to
	// alpha·(x^(-1/alpha) - 1).
	x1 := 1 - 2*estP - estQ
	x2 := 1 - 2*estQ
	if x1 <= 0 || x2 <= 0 {
		return p.MaxDist, true
	}
	gammaLog := func(x float64) float64 {
		return p.GammaAlpha * (math.Pow(x, -1/p.GammaAlpha) - 1)
	}
	dist := float64(0.5*gammaLog(x1)) + float64(0.25*gammaLog(x2))
	if dist > p.MaxDist || math.IsNaN(dist) || math.IsInf(dist, 0) {
		return p.MaxDist, true
	}
	if dist < 0 {
		dist = 0
	}
	return dist, false
}

// recordDeps emits the dependence structure of one inference run.
func recordDeps(g *dep.Graph) {
	g.MarkInput("seqs")
	g.Def("pairDiffs", "seqs")
	g.Def("tsCount", "pairDiffs")
	g.Def("tvCount", "pairDiffs")
	g.Def("bigP", "tsCount")
	g.Def("bigQ", "tvCount")
	g.Def("tsTvRatio", "tsCount", "tvCount")
	g.Def("meanDiff", "bigP", "bigQ")
	g.Def("varDiff", "bigP", "bigQ")
	g.Def("siteCounts", "pairDiffs")
	g.Def("dispersion", "siteCounts")
	g.Def("estP", "bigP", "bigQ", "kappa")
	g.Def("estQ", "bigP", "bigQ", "kappa")
	g.Def("corrArg1", "estP", "estQ")
	g.Def("corrArg2", "estQ")
	g.Def("gammaTerm", "corrArg1", "corrArg2", "gammaAlpha")
	g.Def("distMatrix", "gammaTerm", "maxDist")
	g.Def("njQ", "distMatrix")
	g.Def("njPair", "njQ")
	g.Def("tree", "njPair", "distMatrix")
	g.Def("rfScore", "tree")
	for _, v := range []string{"seqs", "pairDiffs", "tsCount", "tvCount", "bigP", "bigQ"} {
		g.Use("countDiffs", v)
	}
	for _, v := range []string{"kappa", "gammaAlpha", "maxDist", "estP", "estQ", "gammaTerm", "distMatrix"} {
		g.Use("correct", v)
	}
	for _, v := range []string{"distMatrix", "njQ", "njPair", "tree"} {
		g.Use("neighborJoin", v)
	}
}

// Inputs returns the program-input set for Algorithm 1.
func Inputs() []string { return []string{"seqs"} }

// Targets returns the target variables (Table 1: 3).
func Targets() []string { return []string{"kappa", "gammaAlpha", "maxDist"} }
