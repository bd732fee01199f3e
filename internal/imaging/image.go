// Package imaging provides the image substrate for the supervised-
// learning subjects: grayscale images, the synthetic scene generator
// that replaces the paper's edge-detection datasets (which shipped with
// expert-drawn ground truth we do not have), histograms, and the SSIM
// quality score (Wang et al. 2004) that the paper uses to grade Canny
// output against ground truth.
package imaging

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// Image is a grayscale image with float64 pixels, row-major. Pixel
// values are nominally in [0, 255] but operations tolerate any range.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage allocates a zero (black) image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y); coordinates clamp to the border,
// which gives convolution kernels replicate-padding semantics.
func (im *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set stores v at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := NewImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Clamp255 limits every pixel to [0, 255] in place and returns im.
func (im *Image) Clamp255() *Image {
	for i, v := range im.Pix {
		im.Pix[i] = stats.Clamp(v, 0, 255)
	}
	return im
}

// Mean returns the average pixel value.
func (im *Image) Mean() float64 { return stats.Mean(im.Pix) }

// Histogram bins pixel values into n buckets over [0, 255]. The Canny
// subject extracts its gradient-magnitude histogram this way; in the
// paper it is the flagship minimum-distance feature variable.
func (im *Image) Histogram(n int) []float64 {
	return stats.Histogram(im.Pix, n, 0, 256)
}

// GaussianKernel returns a normalized 1-D Gaussian kernel for the given
// sigma; the radius is ceil(3*sigma) as in canonical Canny
// implementations. Sigma must be positive.
func GaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		panic(fmt.Sprintf("imaging: sigma must be positive, got %v", sigma))
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianSmooth applies separable Gaussian smoothing, returning a new
// image. This is Canny's first stage (the "sImg" variable of Fig. 9).
func GaussianSmooth(im *Image, sigma float64) *Image {
	k := GaussianKernel(sigma)
	radius := len(k) / 2
	tmp := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			sum := 0.0
			for i, kv := range k {
				sum += float64(kv * im.At(x+i-radius, y))
			}
			tmp.Pix[y*im.W+x] = sum
		}
	}
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			sum := 0.0
			for i, kv := range k {
				sum += float64(kv * tmp.At(x, y+i-radius))
			}
			out.Pix[y*im.W+x] = sum
		}
	}
	return out
}

// Sobel computes gradient magnitude and quantized direction (0-3 for
// 0°, 45°, 90°, 135°) with the Sobel operator — Canny's "mag" stage.
func Sobel(im *Image) (mag *Image, dir []int) {
	mag = NewImage(im.W, im.H)
	dir = make([]int, im.W*im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			gx := -im.At(x-1, y-1) - 2*im.At(x-1, y) - im.At(x-1, y+1) +
				im.At(x+1, y-1) + 2*im.At(x+1, y) + im.At(x+1, y+1)
			gy := -im.At(x-1, y-1) - 2*im.At(x, y-1) - im.At(x+1, y-1) +
				im.At(x-1, y+1) + 2*im.At(x, y+1) + im.At(x+1, y+1)
			m := math.Hypot(gx, gy)
			mag.Pix[y*im.W+x] = m
			angle := math.Atan2(gy, gx) * 180 / math.Pi
			if angle < 0 {
				angle += 180
			}
			switch {
			case angle < 22.5 || angle >= 157.5:
				dir[y*im.W+x] = 0 // horizontal gradient → vertical edge
			case angle < 67.5:
				dir[y*im.W+x] = 1
			case angle < 112.5:
				dir[y*im.W+x] = 2
			default:
				dir[y*im.W+x] = 3
			}
		}
	}
	return mag, dir
}

// Downsample reduces the image by integer factor using box averaging —
// the preprocessing step Raw models apply before feeding screens to the
// CNN (the paper's 84x84 DeepMind-style inputs).
func Downsample(im *Image, factor int) *Image {
	if factor <= 0 {
		panic("imaging: downsample factor must be positive")
	}
	w, h := im.W/factor, im.H/factor
	if w == 0 || h == 0 {
		panic(fmt.Sprintf("imaging: factor %d too large for %dx%d", factor, im.W, im.H))
	}
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0.0
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					sum += im.At(x*factor+dx, y*factor+dy)
				}
			}
			out.Pix[y*w+x] = sum / float64(factor*factor)
		}
	}
	return out
}
