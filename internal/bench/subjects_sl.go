package bench

import (
	"github.com/autonomizer/autonomizer/internal/canny"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/phylip"
	"github.com/autonomizer/autonomizer/internal/rothwell"
	"github.com/autonomizer/autonomizer/internal/sphinx"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// sceneSize is the synthetic image edge length for the edge-detection
// subjects (scaled down from the paper's 250×250 for harness speed).
const sceneSize = 32

// rawImageDim is the downsampling factor applied to raw images for the
// Raw feature encoding.
const rawImageDown = 2

// CannySubject adapts the Canny detector to the SL harness.
type CannySubject struct{}

// Name implements SLSubject.
func (CannySubject) Name() string { return "Canny" }

// HigherBetter implements SLSubject (SSIM: higher is better).
func (CannySubject) HigherBetter() bool { return true }

// Workloads implements SLSubject. The wide noise range is the point:
// no single parameter configuration handles both clean and very noisy
// scenes, which is the paper's motivating observation for Canny.
func (CannySubject) Workloads(seed uint64, n int) []SLWorkload {
	scenes := imaging.GenerateCorpus(seed, n, imaging.SceneConfig{
		W: sceneSize, H: sceneSize, MaxNoise: 55,
	})
	out := make([]SLWorkload, n)
	for i, s := range scenes {
		out[i] = s
	}
	return out
}

// cannyToLabel normalizes params into the model's (0,1) output space.
func cannyToLabel(p canny.Params) []float64 {
	return []float64{p.Sigma / 4, p.Lo, p.Hi}
}

func cannyFromLabel(v []float64) canny.Params {
	return canny.Params{Sigma: v[0] * 4, Lo: v[1], Hi: v[2]}.Clamp()
}

// OracleLabel implements SLSubject.
func (CannySubject) OracleLabel(w SLWorkload) []float64 {
	p, _ := canny.Oracle(w.(*imaging.Scene))
	return cannyToLabel(p)
}

// Features implements SLSubject, following Fig. 9's distance ranking:
// Min = magnitude histogram (distance 1), Med = the gradient-magnitude
// image (distance 2, the median band), Raw = input pixels (distance 4).
func (CannySubject) Features(w SLWorkload, pick FeaturePick) []float64 {
	sc := w.(*imaging.Scene)
	var tr canny.Trace
	if _, err := canny.Detect(sc.Img, canny.DefaultParams(), nil, &tr); err != nil {
		return nil
	}
	switch pick {
	case PickMin:
		return stats.Normalize(tr.Hist)
	case PickMed:
		img := &imaging.Image{W: sceneSize, H: sceneSize, Pix: tr.Mag}
		down := imaging.Downsample(img, rawImageDown).Pix
		out := make([]float64, len(down))
		for i, v := range down {
			out[i] = v / (tr.MaxMag + 1e-9)
		}
		return out
	default:
		// Raw takes the full-resolution pixels, as the paper's Raw
		// models do (62500 inputs there, 1024 here) — the model must
		// digest far more, lower-level data for the same budget.
		return scalePixels(tr.Image)
	}
}

// BaselineScore implements SLSubject.
func (CannySubject) BaselineScore(w SLWorkload) float64 {
	sc := w.(*imaging.Scene)
	res, err := canny.Detect(sc.Img, canny.DefaultParams(), nil, nil)
	if err != nil {
		return 0
	}
	return canny.Score(res, sc.Truth)
}

// ScoreWithLabel implements SLSubject.
func (CannySubject) ScoreWithLabel(w SLWorkload, label []float64) float64 {
	sc := w.(*imaging.Scene)
	res, err := canny.Detect(sc.Img, cannyFromLabel(label), nil, nil)
	if err != nil {
		return 0
	}
	return canny.Score(res, sc.Truth)
}

// RothwellSubject adapts the Rothwell detector.
type RothwellSubject struct{}

// Name implements SLSubject.
func (RothwellSubject) Name() string { return "Rothwell" }

// HigherBetter implements SLSubject.
func (RothwellSubject) HigherBetter() bool { return true }

// Workloads implements SLSubject. A different scene distribution (more
// noise) keeps the two edge detectors' corpora distinct.
func (RothwellSubject) Workloads(seed uint64, n int) []SLWorkload {
	scenes := imaging.GenerateCorpus(seed+77, n, imaging.SceneConfig{
		W: sceneSize, H: sceneSize, MaxNoise: 32,
	})
	out := make([]SLWorkload, n)
	for i, s := range scenes {
		out[i] = s
	}
	return out
}

func rothwellToLabel(p rothwell.Params) []float64 {
	return []float64{p.Sigma / 4, p.Alpha, float64(p.MinLen) / 16}
}

func rothwellFromLabel(v []float64) rothwell.Params {
	return rothwell.Params{Sigma: v[0] * 4, Alpha: v[1], MinLen: int(float64(v[2]*16) + 0.5)}.Clamp()
}

// OracleLabel implements SLSubject.
func (RothwellSubject) OracleLabel(w SLWorkload) []float64 {
	p, _ := rothwell.Oracle(w.(*imaging.Scene))
	return rothwellToLabel(p)
}

// Features implements SLSubject: Min = gradient statistics, Med =
// 6-feature stats + coarse image, Raw = input pixels.
func (RothwellSubject) Features(w SLWorkload, pick FeaturePick) []float64 {
	sc := w.(*imaging.Scene)
	var tr rothwell.Trace
	if _, err := rothwell.Detect(sc.Img, rothwell.DefaultParams(), nil, &tr); err != nil {
		return nil
	}
	switch pick {
	case PickMin:
		out := append([]float64(nil), tr.GradStats...)
		// Scale the unbounded entries into sane ranges.
		out[0] /= 256
		out[1] /= 65536
		out[2] /= 256
		out[3] /= 256
		out[4] /= 1024
		return out
	case PickMed:
		img := &imaging.Image{W: sceneSize, H: sceneSize, Pix: tr.Image}
		smooth := imaging.GaussianSmooth(img, 1)
		return scalePixels(imaging.Downsample(smooth, rawImageDown).Pix)
	default:
		img := &imaging.Image{W: sceneSize, H: sceneSize, Pix: tr.Image}
		return scalePixels(imaging.Downsample(img, rawImageDown).Pix)
	}
}

// BaselineScore implements SLSubject.
func (RothwellSubject) BaselineScore(w SLWorkload) float64 {
	sc := w.(*imaging.Scene)
	res, err := rothwell.Detect(sc.Img, rothwell.DefaultParams(), nil, nil)
	if err != nil {
		return 0
	}
	return rothwell.Score(res, sc.Truth)
}

// ScoreWithLabel implements SLSubject.
func (RothwellSubject) ScoreWithLabel(w SLWorkload, label []float64) float64 {
	sc := w.(*imaging.Scene)
	res, err := rothwell.Detect(sc.Img, rothwellFromLabel(label), nil, nil)
	if err != nil {
		return 0
	}
	return rothwell.Score(res, sc.Truth)
}

// PhylipSubject adapts the phylogeny-inference pipeline. Note the
// score direction: Robinson-Foulds distance, lower is better (the ↓
// mark in Table 3).
type PhylipSubject struct{}

// Name implements SLSubject.
func (PhylipSubject) Name() string { return "Phylip" }

// HigherBetter implements SLSubject.
func (PhylipSubject) HigherBetter() bool { return false }

// phylipWorkloadTaxa and related constants size the datasets.
const (
	phylipTaxa   = 10
	phylipSeqLen = 200
)

// Workloads implements SLSubject: datasets vary in true kappa, rate
// heterogeneity and divergence, so the ideal distance parameters vary.
func (PhylipSubject) Workloads(seed uint64, n int) []SLWorkload {
	rng := stats.NewRNG(seed + 555)
	out := make([]SLWorkload, n)
	for i := range out {
		// High divergence and wide kappa/heterogeneity ranges are what
		// make the default distance settings visibly suboptimal.
		cfg := phylip.EvolveConfig{
			Taxa:       phylipTaxa,
			SeqLen:     phylipSeqLen,
			Kappa:      []float64{1, 8, 20}[rng.Intn(3)],
			GammaAlpha: []float64{0.4, 2, 50}[rng.Intn(3)],
			MeanBranch: rng.Range(0.2, 0.45),
		}
		out[i] = phylip.Evolve(rng.Split(), cfg)
	}
	return out
}

// OracleLabel implements SLSubject.
func (PhylipSubject) OracleLabel(w SLWorkload) []float64 {
	p, _ := phylip.Oracle(w.(*phylip.Dataset))
	return phylip.ParamsToVector(p)
}

// Features implements SLSubject: Min = compact divergence statistics,
// Med = per-pair (P,Q) matrix, Raw = base-composition encoding of the
// raw sequences.
func (PhylipSubject) Features(w SLWorkload, pick FeaturePick) []float64 {
	ds := w.(*phylip.Dataset)
	var tr phylip.Trace
	if _, err := phylip.Distances(ds.Seqs, phylip.DefaultParams(), nil, &tr); err != nil {
		return nil
	}
	switch pick {
	case PickMin:
		fv := tr.FeatureVector()
		fv[0] /= 10 // ts/tv ratio into ~[0,1]
		fv[4] /= float64(phylipTaxa * phylipTaxa)
		return fv
	case PickMed:
		return tr.RawFeatureVector(phylipTaxa * (phylipTaxa - 1))
	default:
		// Raw: per-sequence sliding base encoding (length-preserving
		// compression of the alignment).
		const width = 16
		out := make([]float64, 0, len(ds.Seqs)*width)
		for _, seq := range ds.Seqs {
			window := len(seq) / width
			for b := 0; b < width; b++ {
				sum := 0.0
				for i := b * window; i < (b+1)*window && i < len(seq); i++ {
					sum += float64(seq[i])
				}
				out = append(out, sum/float64(window)/3)
			}
		}
		return out
	}
}

// BaselineScore implements SLSubject.
func (PhylipSubject) BaselineScore(w SLWorkload) float64 {
	ds := w.(*phylip.Dataset)
	tree, err := phylip.InferTree(ds.Seqs, phylip.DefaultParams(), nil, nil)
	if err != nil {
		return 1
	}
	return phylip.Score(tree, ds)
}

// ScoreWithLabel implements SLSubject.
func (PhylipSubject) ScoreWithLabel(w SLWorkload, label []float64) float64 {
	ds := w.(*phylip.Dataset)
	tree, err := phylip.InferTree(ds.Seqs, phylip.VectorToParams(label), nil, nil)
	if err != nil {
		return 1
	}
	return phylip.Score(tree, ds)
}

// SphinxSubject adapts the keyword recognizer.
type SphinxSubject struct{}

// Name implements SLSubject.
func (SphinxSubject) Name() string { return "Sphinx" }

// HigherBetter implements SLSubject (word accuracy).
func (SphinxSubject) HigherBetter() bool { return true }

// Workloads implements SLSubject.
func (SphinxSubject) Workloads(seed uint64, n int) []SLWorkload {
	// Heavy noise floors (up to ~2x the signal amplitude) are what make
	// the fixed VAD threshold fail; the rate jitter stresses the warp
	// band the same way.
	utts := sphinx.GenerateCorpus(seed+999, n, sphinx.GenConfig{
		MaxNoise: 2.2, MaxRateJitter: 0.6,
	})
	out := make([]SLWorkload, n)
	for i, u := range utts {
		out[i] = u
	}
	return out
}

// OracleLabel implements SLSubject.
func (SphinxSubject) OracleLabel(w SLWorkload) []float64 {
	p, _ := sphinx.Oracle(w.(*sphinx.Utterance))
	return sphinx.ParamsToVector(p)
}

// sphinxMedWidth and sphinxRawWidth fix the encodings' sizes.
const (
	sphinxMedWidth = 64
	sphinxRawWidth = 256
)

// Features implements SLSubject: Min = energy histogram + segment
// stats, Med = frame energies, Raw = downsampled waveform.
func (SphinxSubject) Features(w SLWorkload, pick FeaturePick) []float64 {
	u := w.(*sphinx.Utterance)
	var tr sphinx.Trace
	if _, err := sphinx.Recognize(u.Samples, sphinx.DefaultParams(), nil, &tr); err != nil {
		return nil
	}
	switch pick {
	case PickMin:
		fv := tr.FeatureVector()
		// Normalize: histogram to distribution, variance and count into
		// ~[0,1].
		hist := stats.Normalize(fv[:16])
		return append(hist, fv[16]/100, fv[17]/10)
	case PickMed:
		fv := tr.MedFeatureVector(sphinxMedWidth)
		return stats.MinMaxScale(fv)
	default:
		return tr.RawFeatureVector(sphinxRawWidth)
	}
}

// BaselineScore implements SLSubject.
func (SphinxSubject) BaselineScore(w SLWorkload) float64 {
	u := w.(*sphinx.Utterance)
	hyp, err := sphinx.Recognize(u.Samples, sphinx.DefaultParams(), nil, nil)
	if err != nil {
		return 0
	}
	return sphinx.Score(hyp, u.Words)
}

// ScoreWithLabel implements SLSubject.
func (SphinxSubject) ScoreWithLabel(w SLWorkload, label []float64) float64 {
	u := w.(*sphinx.Utterance)
	hyp, err := sphinx.Recognize(u.Samples, sphinx.VectorToParams(label), nil, nil)
	if err != nil {
		return 0
	}
	return sphinx.Score(hyp, u.Words)
}

// AllSLSubjects lists the four supervised subjects in Table 1/3 order.
func AllSLSubjects() []SLSubject {
	return []SLSubject{CannySubject{}, RothwellSubject{}, PhylipSubject{}, SphinxSubject{}}
}

// scalePixels maps [0,255] pixels to [0,1].
func scalePixels(pix []float64) []float64 {
	out := make([]float64, len(pix))
	for i, v := range pix {
		out[i] = v / 255
	}
	return out
}
