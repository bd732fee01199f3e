package imaging

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// Scene is one synthetic test image with exact ground truth — the
// substitute for the paper's expert-annotated edge-detection datasets
// (Heath et al. / BSDS). The generator draws simple geometric content,
// then perturbs it with scene-specific contrast and noise. Because the
// ideal detector thresholds depend on that contrast and noise — and both
// are recoverable from the image (and especially its gradient
// histogram) — the generated corpus has exactly the property the
// paper's SL autonomization exploits: no single parameter configuration
// is optimal for every input, but a model can predict a good one from
// internal features.
type Scene struct {
	// Img is the rendered grayscale input image.
	Img *Image
	// Truth is the ground-truth edge map (255 on edges, 0 elsewhere).
	Truth *Image
	// Contrast is the foreground/background separation used (0-1).
	Contrast float64
	// Noise is the additive Gaussian noise sigma in pixel units.
	Noise float64
}

// SceneConfig bounds the generator's randomness.
type SceneConfig struct {
	// W, H are the image dimensions (default 64×64).
	W, H int
	// MinShapes/MaxShapes bound the number of shapes (default 2-5).
	MinShapes, MaxShapes int
	// MaxNoise bounds the additive noise sigma (default 24).
	MaxNoise float64
}

func (c *SceneConfig) fillDefaults() {
	if c.W == 0 {
		c.W = 64
	}
	if c.H == 0 {
		c.H = 64
	}
	if c.MinShapes == 0 {
		c.MinShapes = 2
	}
	if c.MaxShapes == 0 {
		c.MaxShapes = 5
	}
	if c.MaxNoise == 0 {
		c.MaxNoise = 24
	}
}

// GenerateScene renders one random scene from rng.
func GenerateScene(rng *stats.RNG, cfg SceneConfig) *Scene {
	cfg.fillDefaults()
	img := NewImage(cfg.W, cfg.H)
	truth := NewImage(cfg.W, cfg.H)

	background := rng.Range(30, 90)
	contrast := rng.Range(0.25, 1.0)
	fgDelta := contrast * 140
	for i := range img.Pix {
		img.Pix[i] = background
	}

	nShapes := cfg.MinShapes + rng.Intn(cfg.MaxShapes-cfg.MinShapes+1)
	for s := 0; s < nShapes; s++ {
		level := background + float64(fgDelta*rng.Range(0.6, 1.0))
		switch rng.Intn(3) {
		case 0:
			drawRect(img, truth, rng, level)
		case 1:
			drawDisc(img, truth, rng, level)
		default:
			drawBar(img, truth, rng, level)
		}
	}

	noise := rng.Range(1, cfg.MaxNoise)
	for i := range img.Pix {
		img.Pix[i] += float64(rng.NormFloat64() * noise)
	}
	img.Clamp255()

	return &Scene{Img: img, Truth: truth, Contrast: contrast, Noise: noise}
}

func drawRect(img, truth *Image, rng *stats.RNG, level float64) {
	w, h := img.W, img.H
	x0 := rng.Intn(w - 8)
	y0 := rng.Intn(h - 8)
	rw := 6 + rng.Intn(w/2)
	rh := 6 + rng.Intn(h/2)
	x1, y1 := min(x0+rw, w-1), min(y0+rh, h-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			img.Set(x, y, level)
		}
	}
	for x := x0; x <= x1; x++ {
		truth.Set(x, y0, 255)
		truth.Set(x, y1, 255)
	}
	for y := y0; y <= y1; y++ {
		truth.Set(x0, y, 255)
		truth.Set(x1, y, 255)
	}
}

func drawDisc(img, truth *Image, rng *stats.RNG, level float64) {
	w, h := img.W, img.H
	cx := float64(4 + rng.Intn(w-8))
	cy := float64(4 + rng.Intn(h-8))
	r := float64(4 + rng.Intn(min(w, h)/4))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			if d <= r {
				img.Set(x, y, level)
			}
			if math.Abs(d-r) < 0.7 {
				truth.Set(x, y, 255)
			}
		}
	}
}

func drawBar(img, truth *Image, rng *stats.RNG, level float64) {
	w, h := img.W, img.H
	if rng.Bool(0.5) {
		// Vertical bar.
		x0 := rng.Intn(w - 4)
		bw := 3 + rng.Intn(6)
		x1 := min(x0+bw, w-1)
		for y := 0; y < h; y++ {
			for x := x0; x <= x1; x++ {
				img.Set(x, y, level)
			}
			truth.Set(x0, y, 255)
			truth.Set(x1, y, 255)
		}
	} else {
		y0 := rng.Intn(h - 4)
		bh := 3 + rng.Intn(6)
		y1 := min(y0+bh, h-1)
		for x := 0; x < w; x++ {
			for y := y0; y <= y1; y++ {
				img.Set(x, y, level)
			}
			truth.Set(x, y0, 255)
			truth.Set(x, y1, 255)
		}
	}
}

// GenerateCorpus produces n scenes from a seed, the workload generator
// for the Canny/Rothwell experiments (Fig. 12's "10 datasets" are 10
// held-out scenes).
func GenerateCorpus(seed uint64, n int, cfg SceneConfig) []*Scene {
	rng := stats.NewRNG(seed)
	out := make([]*Scene, n)
	for i := range out {
		out[i] = GenerateScene(rng.Split(), cfg)
	}
	return out
}
