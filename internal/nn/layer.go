// Package nn is Autonomizer's from-scratch neural-network substrate,
// standing in for the TensorFlow backend used by the paper. It provides
// the two model families the framework supports by default — fully
// connected networks (DNN) and convolutional networks (CNN) — together
// with the Adam optimizer the paper names for supervised learning and the
// plumbing the Q-learning package builds on.
//
// The package follows a conventional layer/optimizer decomposition:
// layers implement Forward/Backward over tensors and expose their
// parameters and gradients; a Network chains layers; optimizers update
// parameter tensors in place from accumulated gradients.
//
// Training is batch-major: every layer takes a leading batch dimension.
// A rank-2 (B, F) or rank-4 (B, C, H, W) input is a minibatch of B
// examples; a rank-1 vector or a rank-3 (C, H, W) image is a batch of
// one. Examples never mix in a layer's output or input gradient, so each
// row is bit-identical to running that example alone; parameter
// gradients sum the examples in ascending order. Dense runs each pass as
// one GEMM over the whole batch (DESIGN.md §5a).
package nn

import (
	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes an
// input tensor and produces the activation; Backward consumes the
// gradient of the loss with respect to the layer's output and returns the
// gradient with respect to its input, accumulating parameter gradients
// internally along the way.
//
// Layers are stateful across a Forward/Backward pair (they cache the
// values needed by the backward pass) and are not goroutine-safe.
type Layer interface {
	// Forward computes the layer's output for the given input.
	Forward(in *tensor.Tensor) *tensor.Tensor
	// Backward propagates gradOut (d loss / d output) back through the
	// layer, returning d loss / d input and accumulating parameter
	// gradients.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameter tensors, possibly
	// empty. The optimizer mutates these in place.
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors aligned 1:1 with Params.
	Grads() []*tensor.Tensor
	// ZeroGrads clears all accumulated gradients.
	ZeroGrads()
	// Name identifies the layer kind for serialization and debugging.
	Name() string
	// lower compiles the layer for a serving plan at the given
	// per-example input shape, returning the shared compile result (nil
	// for an identity layer) and the output shape (compile.go). Being
	// unexported, it seals the Layer set: only this package's kinds
	// exist, and each one compiles.
	lower(shape []int) (compiledLayer, []int, error)
}

// ParamCount reports the total number of scalar parameters in a layer.
func ParamCount(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.Size()
	}
	return n
}

// paramless supplies the Layer parameter methods of a layer without
// parameters.
type paramless struct{}

// Params implements Layer: there are none.
func (paramless) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (paramless) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (paramless) ZeroGrads() {}

// outGrad is an elementwise activation's output and input-gradient
// buffers.
type outGrad struct {
	out, grad buf
}

func (a *outGrad) release() {
	a.out.release()
	a.grad.release()
}

// releaser is implemented by layers whose activation and gradient
// buffers come from the scratch arena; Network.Release calls it.
type releaser interface {
	release()
}

// buf is a layer-owned activation or gradient buffer drawn from
// tensor.Scratch (DESIGN.md §5e). It is held across calls — Resize keeps
// it while the size class is unchanged, so the steady state allocates
// nothing and makes no arena traffic — and handed back by release, which
// Network.Release runs after every minibatch update so no batch-sized
// memory stays pinned between updates.
type buf struct {
	p *[]float64
	t *tensor.Tensor
}

// get returns the buffer resized to shape (contents unspecified).
func (b *buf) get(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	b.p = tensor.Scratch.Resize(b.p, n)
	b.t = tensor.ViewOf(b.t, *b.p, shape...)
	return b.t
}

// getRows returns the buffer shaped for rows examples of the given
// per-example dims: (rows, dims...) when batched, plain dims for the
// single-example form.
func (b *buf) getRows(batched bool, rows int, dims ...int) *tensor.Tensor {
	if !batched {
		return b.get(dims...)
	}
	var s [5]int
	if len(dims) >= len(s) {
		auerr.Failf("nn: example rank %d too large", len(dims))
	}
	s[0] = rows
	return b.get(s[:1+copy(s[1:], dims)]...)
}

// release returns the buffer to the arena; the view header is kept
// (emptied) so the next get allocates nothing.
func (b *buf) release() {
	tensor.Scratch.Put(b.p)
	b.p = nil
	clearView(b.t)
}

// clearView empties a cached view header (nil-safe) so that nothing
// reads memory a release handed back; live reports whether a view still
// holds data.
func clearView(t *tensor.Tensor) {
	if t != nil {
		tensor.ViewOf(t, nil, 0)
	}
}

func live(t *tensor.Tensor) bool { return t != nil && t.Size() > 0 }

// denseRows resolves how many examples in holds for a layer consuming
// feat features per example: a tensor of exactly feat elements is one
// example, otherwise the leading dimension is the batch. batched reports
// whether the output carries a batch dimension (every input but a
// rank-1 vector).
func denseRows(in *tensor.Tensor, feat int, layer string) (rows int, batched bool) {
	s := in.Shape()
	switch {
	case in.Size() == feat:
		return 1, len(s) != 1
	case len(s) >= 2 && s[0]*feat == in.Size():
		return s[0], true
	}
	auerr.Failf("nn: %s expects %d inputs per example, got shape %v", layer, feat, s)
	return 0, false
}

// imageRows resolves the batch of a (C,H,W) or (B,C,H,W) input for the
// spatial layers, returning the example count, whether the input is
// batched, and the per-example (C,H,W) dims.
func imageRows(in *tensor.Tensor, layer string) (rows int, batched bool, chw []int) {
	switch s := in.Shape(); len(s) {
	case 3:
		return 1, false, s
	case 4:
		return s[0], true, s[1:]
	default:
		auerr.Failf("nn: %s expects (C,H,W) or (B,C,H,W) input, got %v", layer, s)
		return 0, false, nil
	}
}
