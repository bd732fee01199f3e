// Package canny implements the Canny edge detector (Canny 1986) — the
// paper's flagship supervised-learning subject. The pipeline is the
// classic four stages:
//
//  1. Gaussian smoothing with parameter sigma            (sImg)
//  2. Sobel gradient magnitude and direction             (mag, dir)
//  3. Non-maximum suppression                            (nms)
//  4. Hysteresis thresholding with parameters lo and hi  (result)
//
// The three parameters (sigma, lo, hi) are the target variables the
// paper autonomizes: their ideal values vary per input image, and the
// gradient-magnitude histogram computed inside hysteresis (hist) is the
// minimum-distance feature variable that Algorithm 1 discovers (Fig. 9).
//
// Detect optionally records its dynamic dependence structure into a
// dep.Graph and its intermediate values into a Trace, standing in for
// the paper's Valgrind-based instrumentation.
package canny

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// HistBins is the size of the gradient-magnitude histogram feature (the
// paper's Canny annotation extracts a histogram; ours is 32 bins wide,
// scaled down from the paper's 32767 to match our 64×64 scenes).
const HistBins = 32

// Params are the tunable detector parameters — the target variables.
// Lo and Hi are hysteresis thresholds expressed as fractions of the
// maximum gradient magnitude (0 < Lo ≤ Hi ≤ 1); Sigma is the Gaussian
// smoothing width in pixels.
type Params struct {
	Sigma float64
	Lo    float64
	Hi    float64
}

// DefaultParams returns the stock configuration a non-autonomized run
// uses for every image — the paper's "baseline" setting. The values are
// what a user would pick by tuning once on a clean reference image
// (light smoothing, permissive thresholds); they degrade badly on noisy
// inputs, which is exactly the paper's motivating observation.
func DefaultParams() Params {
	return Params{Sigma: 0.8, Lo: 0.05, Hi: 0.15}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Sigma <= 0 || p.Sigma > 8 {
		return fmt.Errorf("canny: sigma %v out of (0, 8]", p.Sigma)
	}
	if p.Lo <= 0 || p.Hi > 1 || p.Lo > p.Hi {
		return fmt.Errorf("canny: thresholds lo=%v hi=%v invalid", p.Lo, p.Hi)
	}
	return nil
}

// Clamp coerces the parameters into their valid ranges, used when a
// model's raw prediction strays slightly outside.
func (p Params) Clamp() Params {
	p.Sigma = stats.Clamp(p.Sigma, 0.3, 8)
	p.Lo = stats.Clamp(p.Lo, 0.01, 0.98)
	p.Hi = stats.Clamp(p.Hi, p.Lo+0.01, 1)
	return p
}

// Trace captures the intermediate program variables of one run — the
// values the Autonomizer runtime extracts as candidate features.
type Trace struct {
	// Image is the raw input (the Raw feature, distance 4).
	Image []float64
	// SImg is the smoothed image (the Med feature, distance 3).
	SImg []float64
	// Mag is the gradient magnitude (distance 2).
	Mag []float64
	// Hist is the magnitude histogram (the Min feature, distance 1).
	Hist []float64
	// MaxMag is the maximum gradient magnitude.
	MaxMag float64
	// EdgePixels counts pixels marked as edges in the result.
	EdgePixels int
}

// Detect runs the full pipeline. If g is non-nil the dynamic dependence
// events are recorded into it; if tr is non-nil the intermediate values
// are captured.
func Detect(img *imaging.Image, p Params, g *dep.Graph, tr *Trace) (*imaging.Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g != nil {
		recordDeps(g)
	}
	if tr != nil {
		tr.Image = append([]float64(nil), img.Pix...)
	}

	// Stage 1: Gaussian smoothing.
	sImg := imaging.GaussianSmooth(img, p.Sigma)
	if tr != nil {
		tr.SImg = append([]float64(nil), sImg.Pix...)
	}

	// Stage 2: gradients.
	mag, dir := imaging.Sobel(sImg)
	if tr != nil {
		tr.Mag = append([]float64(nil), mag.Pix...)
	}

	// Stage 3: non-maximum suppression.
	nms := nonMaxSuppress(mag, dir)

	// Stage 4: hysteresis. The histogram is computed here, exactly where
	// the paper's annotation extracts it (hysteresis() in Fig. 11).
	maxMag, _ := stats.Max(nms.Pix)
	if maxMag == 0 {
		maxMag = 1
	}
	hist := stats.Histogram(nms.Pix, HistBins, 0, float64(maxMag*(1+1e-9)))
	if tr != nil {
		tr.Hist = append([]float64(nil), hist...)
		tr.MaxMag = maxMag
	}
	result := hysteresis(nms, p.Lo*maxMag, p.Hi*maxMag)
	if tr != nil {
		for _, v := range result.Pix {
			if v > 0 {
				tr.EdgePixels++
			}
		}
	}
	return result, nil
}

// nonMaxSuppress keeps only local maxima along the gradient direction.
func nonMaxSuppress(mag *imaging.Image, dir []int) *imaging.Image {
	out := imaging.NewImage(mag.W, mag.H)
	for y := 0; y < mag.H; y++ {
		for x := 0; x < mag.W; x++ {
			m := mag.At(x, y)
			var a, b float64
			switch dir[y*mag.W+x] {
			case 0: // horizontal gradient: compare left/right
				a, b = mag.At(x-1, y), mag.At(x+1, y)
			case 1: // 45°
				a, b = mag.At(x-1, y-1), mag.At(x+1, y+1)
			case 2: // vertical gradient: compare up/down
				a, b = mag.At(x, y-1), mag.At(x, y+1)
			default: // 135°
				a, b = mag.At(x+1, y-1), mag.At(x-1, y+1)
			}
			if m >= a && m >= b {
				out.Set(x, y, m)
			}
		}
	}
	return out
}

// hysteresis performs double-threshold edge linking: pixels above hi
// are strong seeds; pixels above lo survive only if connected (8-way)
// to a strong pixel.
func hysteresis(nms *imaging.Image, lo, hi float64) *imaging.Image {
	w, h := nms.W, nms.H
	out := imaging.NewImage(w, h)
	var stack [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if nms.At(x, y) >= hi && out.At(x, y) == 0 {
				out.Set(x, y, 255)
				stack = append(stack, [2]int{x, y})
			}
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := p[0]+dx, p[1]+dy
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				if out.At(nx, ny) == 0 && nms.At(nx, ny) >= lo {
					out.Set(nx, ny, 255)
					stack = append(stack, [2]int{nx, ny})
				}
			}
		}
	}
	return out
}

// recordDeps emits the dynamic dependence events of one Detect run —
// the def/use structure the paper's Valgrind tracer would observe. The
// variable names match Fig. 9/11.
func recordDeps(g *dep.Graph) {
	g.MarkInput("image")
	// canny(): smoothing.
	g.Def("gaussKernel", "sigma")
	g.Def("sImg", "image", "gaussKernel")
	g.Use("canny", "image")
	g.Use("canny", "sigma")
	g.Use("canny", "sImg")
	// magnitude(): gradients.
	g.Def("gx", "sImg")
	g.Def("gy", "sImg")
	g.Def("mag", "gx", "gy")
	g.Def("dir", "gx", "gy")
	g.Use("magnitude", "sImg")
	g.Use("magnitude", "mag")
	g.Use("magnitude", "dir")
	// non-max suppression.
	g.Def("nms", "mag", "dir")
	g.Use("suppress", "nms")
	// hysteresis(): histogram + thresholds + linking.
	g.Def("maxMag", "nms")
	g.Def("hist", "nms")
	g.Def("loThresh", "lo", "maxMag")
	g.Def("hiThresh", "hi", "maxMag")
	g.Def("strong", "nms", "hiThresh")
	g.Def("weak", "nms", "loThresh")
	g.Def("result", "hist", "strong", "weak")
	for _, v := range []string{"nms", "hist", "lo", "hi", "loThresh", "hiThresh", "strong", "weak", "result"} {
		g.Use("hysteresis", v)
	}
	// Image statistics the detector also derives (extra candidates that
	// Table 1 counts and the ranking must sift through).
	g.Def("meanImg", "image")
	g.Def("varImg", "image", "meanImg")
	g.Def("meanS", "sImg")
	g.Def("varS", "sImg", "meanS")
	g.Def("histCum", "hist")
	g.Def("edgeCount", "result")
	g.Def("edgeRatio", "edgeCount")
	g.Use("statistics", "meanImg")
	g.Use("statistics", "varImg")
}

// Inputs returns the program-input variable set for Algorithm 1.
func Inputs() []string { return []string{"image"} }

// Targets returns the target variable set (Table 1: 3 target vars).
func Targets() []string { return []string{"sigma", "lo", "hi"} }

// Score grades a detection against ground truth with SSIM, the paper's
// Canny metric (higher is better).
func Score(result, truth *imaging.Image) float64 {
	return imaging.SSIM(result, truth)
}

// Oracle grid-searches the parameter space for the best-scoring
// configuration on one scene — the autotuning stand-in that produces
// training labels (the paper trains against datasets with known ground
// truth). The search is coarse deliberately: labels need to be good,
// not perfect.
func Oracle(sc *imaging.Scene) (Params, float64) {
	best := DefaultParams()
	bestScore := -2.0
	for _, sigma := range []float64{0.6, 1.0, 1.6, 2.4, 3.2} {
		for _, lo := range []float64{0.05, 0.10, 0.18, 0.28} {
			for _, hiMul := range []float64{1.5, 2.5, 4.0} {
				p := Params{Sigma: sigma, Lo: lo, Hi: lo * hiMul}
				if p.Hi > 1 {
					continue
				}
				result, err := Detect(sc.Img, p, nil, nil)
				if err != nil {
					continue
				}
				if s := Score(result, sc.Truth); s > bestScore {
					bestScore = s
					best = p
				}
			}
		}
	}
	return best, bestScore
}
