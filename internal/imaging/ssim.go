package imaging

import "fmt"

// SSIM computes the mean structural-similarity index between two images
// of identical size (Wang, Bovik, Sheikh, Simoncelli 2004), the score
// the paper uses for Canny output quality. It slides an 8×8 window with
// stride 4 and averages the per-window SSIM with the standard constants
// C1=(0.01·255)², C2=(0.03·255)². The result is in [-1, 1]; 1 means
// identical images.
func SSIM(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("imaging: SSIM size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	const (
		win    = 8
		stride = 4
		c1     = (0.01 * 255) * (0.01 * 255)
		c2     = (0.03 * 255) * (0.03 * 255)
	)
	total, count := 0.0, 0
	for y := 0; y+win <= a.H; y += stride {
		for x := 0; x+win <= a.W; x += stride {
			total += windowSSIM(a, b, x, y, win, c1, c2)
			count++
		}
	}
	if count == 0 {
		// Image smaller than a window: single whole-image window.
		return windowSSIM(a, b, 0, 0, min(a.W, a.H), c1, c2)
	}
	return total / float64(count)
}

func windowSSIM(a, b *Image, x0, y0, win int, c1, c2 float64) float64 {
	n := float64(win * win)
	var sumA, sumB float64
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			sumA += a.At(x, y)
			sumB += b.At(x, y)
		}
	}
	muA, muB := sumA/n, sumB/n
	var varA, varB, cov float64
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			da := a.At(x, y) - muA
			db := b.At(x, y) - muB
			varA += float64(da * da)
			varB += float64(db * db)
			cov += float64(da * db)
		}
	}
	varA /= n - 1
	varB /= n - 1
	cov /= n - 1
	return (float64(2*muA*muB) + c1) * (float64(2*cov) + c2) /
		((float64(muA*muA) + float64(muB*muB) + c1) * (varA + varB + c2))
}

// EdgeF1 scores a binary edge map against ground truth with the F1
// measure over a 1-pixel tolerance — a sharper complement to SSIM used
// by the harness to verify score orderings are not an SSIM artifact.
func EdgeF1(pred, truth *Image) float64 {
	if pred.W != truth.W || pred.H != truth.H {
		panic("imaging: EdgeF1 size mismatch")
	}
	near := func(im *Image, x, y int) bool {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if im.At(x+dx, y+dy) > 127 {
					return true
				}
			}
		}
		return false
	}
	var tp, fp, fn float64
	for y := 0; y < pred.H; y++ {
		for x := 0; x < pred.W; x++ {
			p := pred.At(x, y) > 127
			tr := truth.At(x, y) > 127
			switch {
			case p && near(truth, x, y):
				tp++
			case p && !near(truth, x, y):
				fp++
			case !p && tr && !near(pred, x, y):
				fn++
			}
		}
	}
	if tp == 0 {
		return 0
	}
	precision := tp / (tp + fp)
	recall := tp / (tp + fn)
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
