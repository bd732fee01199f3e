package nn

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Loss scores a prediction against a target and produces the gradient of
// the loss with respect to the prediction. Losses are row-wise: a
// rank-2 (B, F) prediction is B examples of F outputs, anything else one
// example. Loss sums the per-example losses in ascending order (callers
// divide by B for the batch mean), so Grad is each example's own
// gradient.
type Loss interface {
	// Loss returns the sum over examples of each example's loss.
	Loss(pred, target *tensor.Tensor) float64
	// Grad returns d loss / d pred.
	Grad(pred, target *tensor.Tensor) *tensor.Tensor
	// Name identifies the loss for logging.
	Name() string
}

// GradIntoLoss is the destination-passing refinement of Loss: GradInto
// writes d loss / d pred into the caller-owned dst (same size as pred)
// and returns it. The Network training paths use it with a reused scratch
// tensor so the steady-state loss gradient allocates nothing; losses not
// implementing it fall back to Grad.
type GradIntoLoss interface {
	Loss
	GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor
}

// rowsOf splits a prediction into examples: a rank-2 (B, F) tensor is B
// rows of F, anything else a single row.
func rowsOf(t *tensor.Tensor) (rows, width int) {
	if s := t.Shape(); len(s) == 2 {
		return s[0], s[1]
	}
	return 1, t.Size()
}

// sumRows is the row-wise loss fold: each example sums term over its
// (prediction, target) pairs from zero — divided by its output count
// when mean — and the examples' losses are summed in order.
func sumRows(pred, target *tensor.Tensor, mean bool, term func(p, t float64) float64) float64 {
	checkSameSize(pred, target)
	rows, n := rowsOf(pred)
	p, t := pred.Data(), target.Data()
	total := 0.0
	for r := 0; r < rows; r++ {
		sum := 0.0
		for i := r * n; i < (r+1)*n; i++ {
			sum += term(p[i], t[i])
		}
		if mean {
			sum /= float64(n)
		}
		total += sum
	}
	return total
}

// MSE is the mean-squared-error loss used for the supervised parameter
// regression models (predicting lo/hi/sigma etc.).
type MSE struct{}

// Loss returns Σ over examples of mean((pred-target)²).
func (MSE) Loss(pred, target *tensor.Tensor) float64 {
	return sumRows(pred, target, true, func(p, t float64) float64 {
		d := p - t
		return d * d
	})
}

// Grad returns 2(pred-target)/n per example of n outputs.
func (m MSE) Grad(pred, target *tensor.Tensor) *tensor.Tensor {
	return m.GradInto(tensor.New(pred.Shape()...), pred, target)
}

// GradInto writes 2(pred-target)/n into dst.
func (MSE) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	checkSameSize(pred, target)
	checkSameSize(dst, pred)
	_, w := rowsOf(pred)
	n := float64(w)
	od := dst.Data()
	td := target.Data()
	for i, p := range pred.Data() {
		od[i] = 2 * (p - td[i]) / n
	}
	return dst
}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Huber is the smooth-L1 loss used for Q-learning targets; it behaves
// quadratically near zero and linearly beyond Delta, which keeps
// bootstrapped TD errors from destabilizing training.
type Huber struct {
	// Delta is the quadratic/linear crossover point; zero means 1.0.
	Delta float64
}

func (h Huber) delta() float64 {
	if h.Delta <= 0 {
		return 1
	}
	return h.Delta
}

// Loss returns Σ over examples of the example's mean Huber loss.
func (h Huber) Loss(pred, target *tensor.Tensor) float64 {
	d := h.delta()
	return sumRows(pred, target, true, func(p, t float64) float64 {
		e := math.Abs(p - t)
		if e <= d {
			return 0.5 * e * e
		}
		return d * (e - float64(0.5*d))
	})
}

// Grad returns the elementwise Huber gradient divided by the example's
// output count n.
func (h Huber) Grad(pred, target *tensor.Tensor) *tensor.Tensor {
	return h.GradInto(tensor.New(pred.Shape()...), pred, target)
}

// GradInto writes the elementwise Huber gradient divided by n into dst.
func (h Huber) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	checkSameSize(pred, target)
	checkSameSize(dst, pred)
	d := h.delta()
	_, w := rowsOf(pred)
	n := float64(w)
	od := dst.Data()
	td := target.Data()
	for i, p := range pred.Data() {
		e := p - td[i]
		switch {
		case e > d:
			od[i] = d / n
		case e < -d:
			od[i] = -d / n
		default:
			od[i] = e / n
		}
	}
	return dst
}

// Name implements Loss.
func (h Huber) Name() string { return "huber" }

// CrossEntropy is the categorical cross-entropy loss over a softmax
// output; the target must be a one-hot (or soft) distribution. Its Grad
// is (pred - target), matching the Softmax layer's pass-through backward.
type CrossEntropy struct{}

// Loss returns Σ over examples of -Σ target·log(pred).
func (CrossEntropy) Loss(pred, target *tensor.Tensor) float64 {
	return sumRows(pred, target, false, func(p, t float64) float64 {
		if t == 0 {
			return 0
		}
		return -(t * math.Log(math.Max(p, 1e-12)))
	})
}

// Grad returns pred - target (the combined softmax+CE gradient).
func (c CrossEntropy) Grad(pred, target *tensor.Tensor) *tensor.Tensor {
	return c.GradInto(tensor.New(pred.Shape()...), pred, target)
}

// GradInto writes pred - target into dst.
func (CrossEntropy) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	checkSameSize(pred, target)
	checkSameSize(dst, pred)
	od := dst.Data()
	td := target.Data()
	for i, p := range pred.Data() {
		od[i] = p - td[i]
	}
	return dst
}

// Name implements Loss.
func (CrossEntropy) Name() string { return "cross-entropy" }

func checkSameSize(a, b *tensor.Tensor) {
	if a.Size() != b.Size() {
		auerr.Failf("nn: loss size mismatch %d vs %d", a.Size(), b.Size())
	}
}
