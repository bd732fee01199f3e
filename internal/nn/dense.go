package nn

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Dense is a fully connected layer computing out = W·in + b, the building
// block of the paper's DNN model type (e.g. the two hidden layers with
// 256 and 64 neurons configured for the Mario subject).
type Dense struct {
	InSize, OutSize int

	weights *tensor.Tensor // (OutSize, InSize)
	bias    *tensor.Tensor // (OutSize)
	gradW   *tensor.Tensor
	gradB   *tensor.Tensor

	// x is an allocation-free (B, InSize) view of the current input,
	// kept for the backward pass (the caller must not mutate the input in
	// between); inShape is that input's shape, which the input gradient
	// takes. out and gradIn are arena buffers (see buf), valid until the
	// next call on this layer or Network.Release; o2, g2, p2 and gi2 are
	// rank-2 GEMM views of the output, the output gradient, the
	// weight-gradient product and the input gradient.
	x, o2, g2, p2, gi2 *tensor.Tensor
	inShape            []int
	out, gradIn        buf
}

// NewDense constructs a fully connected layer with He-initialized weights
// drawn from rng, appropriate for the ReLU activations used throughout.
func NewDense(inSize, outSize int, rng *stats.RNG) *Dense {
	if inSize <= 0 || outSize <= 0 {
		auerr.Failf("nn: invalid Dense dimensions %dx%d", inSize, outSize)
	}
	d := &Dense{
		InSize:  inSize,
		OutSize: outSize,
		weights: tensor.New(outSize, inSize),
		bias:    tensor.New(outSize),
		gradW:   tensor.New(outSize, inSize),
		gradB:   tensor.New(outSize),
	}
	scale := math.Sqrt(2.0 / float64(inSize))
	for i := range d.weights.Data() {
		d.weights.Data()[i] = rng.NormFloat64() * scale
	}
	return d
}

// Forward computes X·Wᵀ + b for a batch of examples (one GEMM), each
// output row folding its terms ascending-k with math.FMA from zero, then
// adding the bias. A rank-1 input is one example and yields a rank-1
// output; otherwise the output is (B, OutSize).
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	rows, batched := denseRows(in, d.InSize, "Dense")
	d.inShape = append(d.inShape[:0], in.Shape()...)
	d.x = tensor.ViewOf(d.x, in.Data(), rows, d.InSize)
	out := d.out.getRows(batched, rows, d.OutSize)
	d.o2 = tensor.ViewOf(d.o2, out.Data(), rows, d.OutSize)
	tensor.MatMulABTInto(d.o2, d.x, d.weights)
	od := out.Data()
	bd := d.bias.Data()
	for r := 0; r < rows; r++ {
		row := od[r*d.OutSize : (r+1)*d.OutSize]
		for o, b := range bd {
			row[o] += b
		}
	}
	return out
}

// Backward accumulates dL/dW += Gᵀ·X and dL/db += Σ rows of G, and
// returns dL/dX = G·W — one GEMM each. The weight-gradient GEMM's k-loop
// runs over the examples in ascending order; its product is formed from
// zero and then added to the accumulator, like Conv2D's. No zero
// multiplier is skipped: 0×Inf and 0×NaN are NaN and must reach the
// input gradient.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(d.x) {
		auerr.Failf("nn: Dense Backward before Forward")
	}
	rows := d.x.Shape()[0]
	if gradOut.Size() != rows*d.OutSize {
		auerr.Failf("nn: Dense backward expects %d grads, got %d", rows*d.OutSize, gradOut.Size())
	}
	d.g2 = tensor.ViewOf(d.g2, gradOut.Data(), rows, d.OutSize)
	pw := tensor.Scratch.Get(d.gradW.Size())
	d.p2 = tensor.ViewOf(d.p2, *pw, d.OutSize, d.InSize)
	tensor.MatMulATBInto(d.p2, d.g2, d.x)
	d.gradW.AddInPlace(d.p2)
	tensor.Scratch.Put(pw)
	clearView(d.p2)
	g := gradOut.Data()
	gb := d.gradB.Data()
	for r := 0; r < rows; r++ {
		for o, v := range g[r*d.OutSize : (r+1)*d.OutSize] {
			gb[o] += v
		}
	}
	gradIn := d.gradIn.get(d.inShape...)
	d.gi2 = tensor.ViewOf(d.gi2, gradIn.Data(), rows, d.InSize)
	tensor.MatMulInto(d.gi2, d.g2, d.weights)
	return gradIn
}

func (d *Dense) release() {
	d.out.release()
	d.gradIn.release()
	for _, v := range [...]*tensor.Tensor{d.x, d.o2, d.g2, d.gi2} {
		clearView(v)
	}
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.weights, d.bias} }

// Grads returns the accumulated gradient tensors.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gradW, d.gradB} }

// ZeroGrads clears the accumulated gradients.
func (d *Dense) ZeroGrads() {
	d.gradW.Fill(0)
	d.gradB.Fill(0)
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.InSize, d.OutSize) }
