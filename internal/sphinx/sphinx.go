package sphinx

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Params are the recognizer's target variables.
type Params struct {
	// VadThreshold is the voice-activity energy threshold as a fraction
	// of the maximum frame energy (0, 1). Its ideal value rises with the
	// utterance's noise floor.
	VadThreshold float64
	// WarpBand is the DTW Sakoe-Chiba band half-width in frames. Its
	// ideal value rises with speaking-rate variation; too wide admits
	// spurious matches, too narrow rejects stretched words.
	WarpBand int
}

// DefaultParams is the fixed baseline configuration.
func DefaultParams() Params { return Params{VadThreshold: 0.10, WarpBand: 3} }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.VadThreshold <= 0 || p.VadThreshold >= 1 {
		return fmt.Errorf("sphinx: vad threshold %v out of (0, 1)", p.VadThreshold)
	}
	if p.WarpBand < 1 || p.WarpBand > 64 {
		return fmt.Errorf("sphinx: warp band %d out of [1, 64]", p.WarpBand)
	}
	return nil
}

// Clamp coerces parameters into range.
func (p Params) Clamp() Params {
	p.VadThreshold = stats.Clamp(p.VadThreshold, 0.01, 0.95)
	if p.WarpBand < 1 {
		p.WarpBand = 1
	}
	if p.WarpBand > 64 {
		p.WarpBand = 64
	}
	return p
}

// Trace captures the internal variables of one recognition run.
type Trace struct {
	// Samples is the raw waveform (Raw feature).
	Samples []float64
	// FrameEnergies is the per-frame energy sequence (Med feature).
	FrameEnergies []float64
	// EnergyHist is the 16-bin histogram of frame energies (Min
	// feature for the VAD threshold).
	EnergyHist []float64
	// SegLenVar is the variance of detected segment lengths (Min
	// feature for the warp band).
	SegLenVar float64
	// Segments counts detected speech segments.
	Segments int
}

// frame is one analysis frame's band-energy vector.
type frame [NumBands]float64

// Recognize decodes the utterance into a keyword sequence, optionally
// recording dependence events and internal values.
func Recognize(samples []float64, p Params, g *dep.Graph, tr *Trace) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(samples) < FrameLen {
		return nil, fmt.Errorf("sphinx: utterance too short (%d samples)", len(samples))
	}
	if g != nil {
		recordDeps(g)
	}
	if tr != nil {
		tr.Samples = append([]float64(nil), samples...)
	}

	// Stage 1: framing with band energies (Goertzel-style projections).
	frames, energies := analyze(samples)
	if tr != nil {
		tr.FrameEnergies = append([]float64(nil), energies...)
		tr.EnergyHist = energyHistogram(energies)
	}

	// Stage 2: VAD segmentation.
	maxE, _ := stats.Max(energies)
	if maxE == 0 {
		maxE = 1
	}
	threshold := p.VadThreshold * maxE
	segments := segment(energies, threshold)
	if tr != nil {
		tr.Segments = len(segments)
		var lens []float64
		for _, s := range segments {
			lens = append(lens, float64(s[1]-s[0]))
		}
		tr.SegLenVar = stats.Variance(lens)
	}

	// Stage 3: DTW template matching per segment.
	var words []int
	for _, seg := range segments {
		segFrames := frames[seg[0]:seg[1]]
		if len(segFrames) < phonesPerWord {
			continue // too short to be a word
		}
		best, bestCost := -1, math.Inf(1)
		for w := 0; w < VocabSize; w++ {
			cost := dtw(segFrames, template(w), p.WarpBand)
			if cost < bestCost {
				bestCost = cost
				best = w
			}
		}
		if best >= 0 {
			words = append(words, best)
		}
	}
	return words, nil
}

// analyze splits samples into frames and computes band energies plus
// total energy per frame.
func analyze(samples []float64) ([]frame, []float64) {
	n := len(samples) / FrameLen
	frames := make([]frame, n)
	energies := make([]float64, n)
	for f := 0; f < n; f++ {
		chunk := samples[f*FrameLen : (f+1)*FrameLen]
		var total float64
		for b := 0; b < NumBands; b++ {
			// Projection onto the band's sin/cos pair.
			var sinSum, cosSum float64
			for i, s := range chunk {
				sinSum += float64(s * math.Sin(bandFreqs[b]*float64(i)))
				cosSum += float64(s * math.Cos(bandFreqs[b]*float64(i)))
			}
			e := float64((float64(sinSum*sinSum) + float64(cosSum*cosSum)) / float64(FrameLen))
			frames[f][b] = e
			total += e
		}
		energies[f] = total
	}
	return frames, energies
}

// energyHistogram is the 16-bin histogram of frame energies scaled to
// the observed maximum — the Min-distance feature for the VAD target.
func energyHistogram(energies []float64) []float64 {
	maxE, _ := stats.Max(energies)
	if maxE <= 0 {
		maxE = 1
	}
	return stats.Histogram(energies, 16, 0, float64(maxE*(1+1e-9)))
}

// segment returns [start, end) frame ranges whose energy exceeds the
// threshold, closing gaps of one frame.
func segment(energies []float64, threshold float64) [][2]int {
	var out [][2]int
	start := -1
	gap := 0
	for i, e := range energies {
		if e >= threshold {
			if start < 0 {
				start = i
			}
			gap = 0
			continue
		}
		if start >= 0 {
			gap++
			if gap > 1 {
				out = append(out, [2]int{start, i - gap + 1})
				start = -1
				gap = 0
			}
		}
	}
	if start >= 0 {
		out = append(out, [2]int{start, len(energies) - gap})
	}
	return out
}

// template renders the canonical frame sequence of a keyword at nominal
// rate: phonesPerWord segments of 4 frames each, energy 1 in the phone's
// band.
func template(word int) []frame {
	var out []frame
	for _, band := range wordPhones[word] {
		for i := 0; i < baseSegLen/FrameLen; i++ {
			var f frame
			f[band] = 1
			out = append(out, f)
		}
	}
	return out
}

// dtw computes the band-normalized dynamic-time-warping cost between a
// segment and a template within the Sakoe-Chiba band.
func dtw(a, b []frame, band int) float64 {
	n, m := len(a), len(b)
	// Normalize each frame to unit total energy so amplitude cancels.
	norm := func(f frame) frame {
		var sum float64
		for _, v := range f {
			sum += v
		}
		if sum == 0 {
			return f
		}
		for i := range f {
			f[i] /= sum
		}
		return f
	}
	na := make([]frame, n)
	for i := range a {
		na[i] = norm(a[i])
	}
	nb := make([]frame, m)
	for i := range b {
		nb[i] = norm(b[i])
	}
	dist := func(x, y frame) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += float64(d * d)
		}
		return s
	}
	const inf = math.MaxFloat64 / 4
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		// Sakoe-Chiba band around the diagonal (scaled for unequal
		// lengths).
		center := i * m / n
		lo := center - band
		if lo < 1 {
			lo = 1
		}
		hi := center + band
		if hi > m {
			hi = m
		}
		for j := lo; j <= hi; j++ {
			c := dist(na[i-1], nb[j-1])
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if best >= inf {
				continue
			}
			cur[j] = c + best
		}
		prev, cur = cur, prev
	}
	total := prev[m]
	if total >= inf {
		return inf
	}
	return total / float64(n+m)
}

// recordDeps emits the dependence structure of one recognition run.
// Sphinx is the largest SL subject (Table 1: 107 candidates); the
// instrumentation records a correspondingly richer variable set.
func recordDeps(g *dep.Graph) {
	g.MarkInput("samples")
	g.Def("frames", "samples")
	for b := 0; b < NumBands; b++ {
		g.Def(fmt.Sprintf("bandE%d", b), "frames")
		g.Def(fmt.Sprintf("bandNorm%d", b), fmt.Sprintf("bandE%d", b))
		g.Use("analyze", fmt.Sprintf("bandE%d", b))
	}
	g.Def("frameEnergy", "bandE0", "bandE1", "bandE2", "bandE3")
	g.Def("energyHist", "frameEnergy")
	g.Def("maxEnergy", "frameEnergy")
	g.Def("threshold", "vadThreshold", "maxEnergy")
	g.Def("speechMask", "frameEnergy", "threshold")
	g.Def("segments", "speechMask")
	g.Def("segLens", "segments")
	g.Def("segLenVar", "segLens")
	g.Def("segFrames", "segments", "frames")
	g.Def("dtwCost", "segFrames", "warpBand")
	g.Def("bestWord", "dtwCost")
	g.Def("result", "bestWord")
	for _, v := range []string{"samples", "frames", "frameEnergy"} {
		g.Use("analyze", v)
	}
	for _, v := range []string{"energyHist", "maxEnergy", "vadThreshold", "threshold", "speechMask", "segments"} {
		g.Use("vad", v)
	}
	for _, v := range []string{"segFrames", "warpBand", "dtwCost", "bestWord", "result", "segLens", "segLenVar"} {
		g.Use("decode", v)
	}
}

// Inputs returns the program-input set for Algorithm 1.
func Inputs() []string { return []string{"samples"} }

// Targets returns the target variables (Table 1: 2).
func Targets() []string { return []string{"vadThreshold", "warpBand"} }

// Score returns word accuracy: the fraction of ground-truth words
// recovered in order (longest-common-subsequence over the hypothesis),
// penalized for insertions. Higher is better.
func Score(hyp, truth []int) float64 {
	if len(truth) == 0 {
		if len(hyp) == 0 {
			return 1
		}
		return 0
	}
	l := lcs(hyp, truth)
	correct := float64(l)
	insertions := float64(len(hyp) - l)
	acc := (correct - float64(0.5*insertions)) / float64(len(truth))
	return stats.Clamp(acc, 0, 1)
}

func lcs(a, b []int) int {
	dp := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		prev := 0
		for j := 1; j <= len(b); j++ {
			cur := dp[j]
			if a[i-1] == b[j-1] {
				dp[j] = prev + 1
			} else if dp[j-1] > dp[j] {
				dp[j] = dp[j-1]
			}
			prev = cur
		}
	}
	return dp[len(b)]
}

// Oracle grid-searches for per-utterance ideal parameters.
func Oracle(u *Utterance) (Params, float64) {
	best := DefaultParams()
	bestScore := -1.0
	for _, vad := range []float64{0.03, 0.06, 0.12, 0.2, 0.35, 0.5} {
		for _, warp := range []int{1, 2, 4, 8, 16} {
			p := Params{VadThreshold: vad, WarpBand: warp}
			hyp, err := Recognize(u.Samples, p, nil, nil)
			if err != nil {
				continue
			}
			if s := Score(hyp, u.Words); s > bestScore {
				bestScore = s
				best = p
			}
		}
	}
	return best, bestScore
}

// ParamsToVector normalizes parameters into model-output space.
func ParamsToVector(p Params) []float64 {
	return []float64{p.VadThreshold, float64(p.WarpBand) / 32}
}

// VectorToParams inverts ParamsToVector with clamping.
func VectorToParams(v []float64) Params {
	return Params{VadThreshold: v[0], WarpBand: int(float64(v[1]*32) + 0.5)}.Clamp()
}

// FeatureVector returns the Min feature encoding: the energy histogram
// plus segment-length variance and count.
func (tr *Trace) FeatureVector() []float64 {
	out := append([]float64(nil), tr.EnergyHist...)
	return append(out, tr.SegLenVar, float64(tr.Segments))
}

// MedFeatureVector returns the Med encoding: frame energies padded or
// truncated to width.
func (tr *Trace) MedFeatureVector(width int) []float64 {
	out := make([]float64, width)
	copy(out, tr.FrameEnergies)
	return out
}

// RawFeatureVector returns the Raw encoding: downsampled waveform of
// the given width.
func (tr *Trace) RawFeatureVector(width int) []float64 {
	out := make([]float64, width)
	if len(tr.Samples) == 0 {
		return out
	}
	for i := range out {
		out[i] = tr.Samples[i*len(tr.Samples)/width]
	}
	return out
}
