package nn

import (
	"math"
	"math/bits"

	"github.com/autonomizer/autonomizer/internal/auerr"

	"github.com/autonomizer/autonomizer/internal/tensor"
)

// The activation layers are elementwise (Softmax row-wise), so they take
// any batch shape unchanged. They hold their output and gradient in arena
// buffers (see buf): returned tensors are valid until the next call on
// the same layer or Network.Release; callers needing longer lifetimes
// must Clone.

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	paramless
	outGrad
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := r.out.get(in.Shape()...)
	od := out.Data()
	for i, x := range in.Data() {
		od[i] = relu(x)
	}
	return out
}

// infBits is the bit pattern of +Inf.
const infBits = 0x7FF0000000000000

// positiveMask is all ones when x > 0 and zero otherwise (NaN, ±0 and
// negatives), computed without a branch: x > 0 exactly when its bits,
// read as an unsigned integer, lie in (0, +Inf], i.e. when bits-1 is
// below infBits. On the random signs of a layer's activations a compare
// and branch mispredicts about every other element, which made ReLU the
// largest single cost of a batched update.
func positiveMask(x float64) uint64 {
	_, borrow := bits.Sub64(math.Float64bits(x)-1, infBits, 0)
	return -borrow
}

// relu is x when x > 0, else +0 (NaN included) — the x > 0 ? x : 0
// formula of every ReLU in this package, branch-free.
func relu(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) & positiveMask(x))
}

// Backward zeroes the gradient where the input was non-positive. The
// output is the mask: it is positive exactly where the input was (NaN
// inputs map to 0, like every non-positive one).
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(r.out.t) || r.out.t.Size() != gradOut.Size() {
		auerr.Failf("nn: ReLU Backward shape mismatch or called before Forward")
	}
	y := r.out.t.Data()
	out := r.grad.get(gradOut.Shape()...)
	od := out.Data()
	for i, g := range gradOut.Data() {
		od[i] = math.Float64frombits(math.Float64bits(g) & positiveMask(y[i]))
	}
	return out
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Sigmoid is the logistic activation 1/(1+e^-x), used for outputs
// constrained to (0,1) such as normalized parameter predictions.
type Sigmoid struct {
	paramless
	outGrad
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function elementwise.
func (s *Sigmoid) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := s.out.get(in.Shape()...)
	od := out.Data()
	for i, x := range in.Data() {
		od[i] = 1 / (1 + math.Exp(-x))
	}
	return out
}

// Backward multiplies by the sigmoid derivative y(1-y).
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(s.out.t) || s.out.t.Size() != gradOut.Size() {
		auerr.Failf("nn: Sigmoid Backward shape mismatch or called before Forward")
	}
	y := s.out.t.Data()
	out := s.grad.get(gradOut.Shape()...)
	od := out.Data()
	for i, g := range gradOut.Data() {
		od[i] = g * y[i] * (1 - y[i])
	}
	return out
}

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	paramless
	outGrad
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := t.out.get(in.Shape()...)
	od := out.Data()
	for i, x := range in.Data() {
		od[i] = math.Tanh(x)
	}
	return out
}

// Backward multiplies by 1 - y².
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(t.out.t) || t.out.t.Size() != gradOut.Size() {
		auerr.Failf("nn: Tanh Backward shape mismatch or called before Forward")
	}
	y := t.out.t.Data()
	out := t.grad.get(gradOut.Shape()...)
	od := out.Data()
	for i, g := range gradOut.Data() {
		od[i] = g * (1 - float64(y[i]*y[i]))
	}
	return out
}

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Flatten reshapes each example to a vector; it sits between
// convolutional and dense stages in the CNN models. A (B,C,H,W) batch
// becomes (B, C·H·W) and a (C,H,W) image a vector; rank-1 and rank-2
// inputs are already flat and pass through.
type Flatten struct {
	paramless
	lastShape []int
	fwdView   *tensor.Tensor
	bwdView   *tensor.Tensor
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens each example to a vector view.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	f.lastShape = append(f.lastShape[:0], s...)
	switch {
	case len(s) == 2:
		f.fwdView = tensor.ViewOf(f.fwdView, in.Data(), s[0], s[1])
	case len(s) >= 4:
		f.fwdView = tensor.ViewOf(f.fwdView, in.Data(), s[0], in.Size()/max(s[0], 1))
	default:
		f.fwdView = tensor.ViewOf(f.fwdView, in.Data(), in.Size())
	}
	return f.fwdView
}

// Backward restores the gradient to the pre-flatten shape.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		auerr.Failf("nn: Flatten Backward before Forward")
	}
	f.bwdView = tensor.View(f.bwdView, gradOut, f.lastShape...)
	return f.bwdView
}

// release drops the views, which point into neighbouring layers'
// released buffers.
func (f *Flatten) release() {
	clearView(f.fwdView)
	clearView(f.bwdView)
}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Softmax converts logits to a probability distribution, one per row of
// a (B, F) batch (a vector is one row). Its backward pass assumes it is
// paired with a cross-entropy loss whose gradient is already
// (p - onehot); in that arrangement Backward is the identity.
type Softmax struct {
	paramless
	out buf
}

// NewSoftmax returns a softmax output layer.
func NewSoftmax() *Softmax { return &Softmax{} }

// Forward computes the numerically stable softmax of each row.
func (s *Softmax) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := s.out.get(in.Shape()...)
	rows, n := rowsOf(in)
	for r := 0; r < rows; r++ {
		softmaxRow(out.Data()[r*n:(r+1)*n], in.Data()[r*n:(r+1)*n])
	}
	return out
}

// softmaxRow writes the softmax of x into od.
func softmaxRow(od, x []float64) {
	max := math.Inf(-1)
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - max)
		od[i] = e
		sum += e
	}
	if sum == 0 {
		auerr.Failf("nn: softmax sum underflowed to zero")
	}
	inv := 1 / sum
	for i := range od {
		od[i] *= inv
	}
}

// Backward passes the gradient through unchanged; see the type comment.
func (s *Softmax) Backward(gradOut *tensor.Tensor) *tensor.Tensor { return gradOut }

func (s *Softmax) release() { s.out.release() }

// Name implements Layer.
func (s *Softmax) Name() string { return "softmax" }
