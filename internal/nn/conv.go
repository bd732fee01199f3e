package nn

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Conv2D is a 2-D convolution layer over (channels, height, width)
// inputs, executed by the implicit-GEMM kernel (tensor.ConvKernel): the
// im2col column matrix is never materialized — receptive-field columns
// are gathered tile-by-tile inside the GEMM's panel packing, for both
// the forward product and the two backward products. The paper's "Raw"
// configurations use three of these (each followed by max pooling) to
// digest raw screen pixels, mirroring the DeepMind Atari architecture.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	weights     *tensor.Tensor
	bias        *tensor.Tensor
	gradW       *tensor.Tensor
	gradB       *tensor.Tensor

	// kern is the implicit-GEMM execution state, built lazily on the
	// first Forward and rebuilt when the input extent changes.
	kern *tensor.ConvKernel

	// lastIn is the input tensor passed to Forward; Backward re-gathers
	// receptive fields from it for the weight gradient, so the caller
	// must not mutate the input between Forward and the matching
	// Backward (the same contract as Dense's saved input view). This
	// replaces the materialized im2col cache, which was the layer's
	// largest buffer.
	lastIn *tensor.Tensor

	// The output and the input gradient are arena buffers (see buf),
	// valid until the next call on this layer or Network.Release;
	// gradWProd views arena scratch for the minibatch's gradW product.
	out, gradIn buf
	gradWProd   *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He initialization.
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *stats.RNG) *Conv2D {
	if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		auerr.Failf("nn: invalid Conv2D params inC=%d outC=%d k=%dx%d stride=%d pad=%d",
			inC, outC, kh, kw, stride, pad)
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		weights: tensor.New(outC, inC*kh*kw),
		bias:    tensor.New(outC),
		gradW:   tensor.New(outC, inC*kh*kw),
		gradB:   tensor.New(outC),
	}
	scale := math.Sqrt(2.0 / float64(inC*kh*kw))
	for i := range c.weights.Data() {
		c.weights.Data()[i] = rng.NormFloat64() * scale
	}
	return c
}

// Forward convolves a (InC, H, W) image to (OutC, outH, outW), or a
// (B, InC, H, W) batch to (B, OutC, outH, outW) as one implicit GEMM
// (tensor.ConvKernel). The input must stay unchanged until the matching
// Backward (see lastIn).
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	rows, batched, chw := imageRows(in, "Conv2D")
	if chw[0] != c.InC {
		auerr.Failf("nn: Conv2D expects (%d,H,W) input, got %v", c.InC, in.Shape())
	}
	if g := c.geom(); c.kern == nil || g.InH != chw[1] || g.InW != chw[2] {
		c.kern = tensor.NewConvKernel(tensor.NewConvGeom(
			c.InC, chw[1], chw[2], c.KH, c.KW, c.Stride, c.Pad, c.OutC))
	}
	g := c.geom()
	n := g.OutH * g.OutW
	c.lastIn = in
	out := c.out.getRows(batched, rows, c.OutC, g.OutH, g.OutW)
	od := out.Data()
	c.kern.Forward(od, in.Data(), c.weights.Data())
	// Add per-output-channel bias after the product, exactly like the
	// im2col reference (bias never enters the FMA fold).
	bd := c.bias.Data()
	for r := 0; r < rows*c.OutC; r++ {
		b := bd[r%c.OutC]
		row := od[r*n : (r+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

// geom returns the current kernel geometry (zero before the first
// Forward).
func (c *Conv2D) geom() tensor.ConvGeom {
	if c.kern == nil {
		return tensor.ConvGeom{}
	}
	return c.kern.Geom()
}

// Backward accumulates weight/bias gradients and returns the input
// gradient via the fused implicit-GEMM adjoints (no column matrix, no
// column-gradient matrix), one product per pass over the whole batch.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(c.lastIn) {
		auerr.Failf("nn: Conv2D Backward before Forward")
	}
	g := c.geom()
	n := g.OutH * g.OutW
	rows := c.lastIn.Size() / (c.InC * g.InH * g.InW)
	if gradOut.Size() != rows*c.OutC*n {
		auerr.Failf("nn: Conv2D Backward expects %d grads, got %d", rows*c.OutC*n, gradOut.Size())
	}
	gd := gradOut.Data()
	gradIn := c.gradIn.get(c.lastIn.Shape()...)
	// dL/dW += g × im2col(in)ᵀ, gathered implicitly: one fold per
	// element over the batch's columns (position-major, image-minor),
	// formed from zero and then added to the accumulator. dL/dinput =
	// col2im(Wᵀ × g), scattered directly from the kernel's stripes.
	pw := tensor.Scratch.Get(c.gradW.Size())
	c.gradWProd = tensor.ViewOf(c.gradWProd, *pw, c.OutC, c.InC*c.KH*c.KW)
	c.kern.Backward(c.gradWProd.Data(), gradIn.Data(), c.lastIn.Data(), c.weights.Data(), gd)
	c.gradW.AddInPlace(c.gradWProd)
	tensor.Scratch.Put(pw)
	clearView(c.gradWProd)
	// dL/db = row sums of g, image by image in ascending order.
	gb := c.gradB.Data()
	for r := 0; r < rows*c.OutC; r++ {
		sum := 0.0
		for _, v := range gd[r*n : (r+1)*n] {
			sum += v
		}
		gb[r%c.OutC] += sum
	}
	return gradIn
}

func (c *Conv2D) release() {
	c.out.release()
	c.gradIn.release()
	c.lastIn = nil
}

// Params returns the kernel and bias tensors.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weights, c.bias} }

// Grads returns the accumulated gradients.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// ZeroGrads clears the accumulated gradients.
func (c *Conv2D) ZeroGrads() {
	c.gradW.Fill(0)
	c.gradB.Fill(0)
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%d->%d,%dx%d,s%d,p%d)", c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
}

// MaxPool2D performs non-overlapping spatial max pooling. The paper's
// DeepMind-style Raw models follow each convolution with one of these.
type MaxPool2D struct {
	paramless
	Size int
	// lastIn is the input of the last Forward: Backward re-finds each
	// window's maximum in it rather than keeping an argmax table. out and
	// gradIn are arena buffers (see buf).
	lastIn      *tensor.Tensor
	out, gradIn buf
}

// NewMaxPool2D constructs a pooling layer with a square window.
func NewMaxPool2D(size int) *MaxPool2D {
	if size <= 0 {
		auerr.Failf("nn: MaxPool2D size must be positive")
	}
	return &MaxPool2D{Size: size}
}

// pooledDims validates a (C,H,W) image against the window and returns
// the pooled extent.
func (m *MaxPool2D) pooledDims(chw []int) (oh, ow int) {
	oh, ow = chw[1]/m.Size, chw[2]/m.Size
	if oh == 0 || ow == 0 {
		auerr.Failf("nn: MaxPool2D window %d too large for %dx%d input", m.Size, chw[1], chw[2])
	}
	return oh, ow
}

// Forward max-pools each channel of each image with a size×size window
// and stride equal to the window size. Ragged edges truncate.
func (m *MaxPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	rows, batched, chw := imageRows(in, "MaxPool2D")
	c, h, w := chw[0], chw[1], chw[2]
	oh, ow := m.pooledDims(chw)
	m.lastIn = in
	out := m.out.getRows(batched, rows, c, oh, ow)
	maxPool(in.Data(), out.Data(), nil, rows*c, h, w, m.Size)
	return out
}

// Backward routes each output gradient to the input position that won the
// max. A window nothing won (all NaN or -Inf) passes no gradient.
func (m *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(m.lastIn) {
		auerr.Failf("nn: MaxPool2D Backward before Forward")
	}
	s := m.lastIn.Shape()
	chw := s[len(s)-3:]
	h, w := chw[1], chw[2]
	oh, ow := m.pooledDims(chw)
	planes := m.lastIn.Size() / (h * w)
	if gradOut.Size() != planes*oh*ow {
		auerr.Failf("nn: MaxPool2D Backward shape mismatch")
	}
	gradIn := m.gradIn.get(s...)
	gradIn.Fill(0)
	maxPool(m.lastIn.Data(), gradOut.Data(), gradIn.Data(), planes, h, w, m.Size)
	return gradIn
}

// maxPool is the one max-pooling routine, shared by MaxPool2D and the
// compiled plan. It visits the size×size windows (stride size, ragged
// edges truncated) of planes h×w planes of in in output order and picks
// each window's first element strictly greater than a -Inf start,
// scanning row by row — so NaN never wins, and a window of only NaN or
// -Inf has no winner and a -Inf maximum. With route nil it stores each
// maximum in out. Otherwise out holds the output gradient, and each
// window adds its element to route at the winner's position (nothing
// for a window without one): the backward pass, re-finding the winners
// instead of keeping an argmax table.
func maxPool(in, out, route []float64, planes, h, w, size int) {
	oh, ow := h/size, w/size
	o := 0
	for p := 0; p < planes; p++ {
		plane := in[p*h*w : (p+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox, o = ox+1, o+1 {
				best, idx := math.Inf(-1), -1
				if i := oy*size*w + ox*size; size == 2 {
					// The dominant CNN case, unrolled in the same order.
					best, idx = poolStep(best, idx, plane, i)
					best, idx = poolStep(best, idx, plane, i+1)
					best, idx = poolStep(best, idx, plane, i+w)
					best, idx = poolStep(best, idx, plane, i+w+1)
				} else {
					for dy := 0; dy < size; dy, i = dy+1, i+w {
						for dx := 0; dx < size; dx++ {
							best, idx = poolStep(best, idx, plane, i+dx)
						}
					}
				}
				switch {
				case route == nil:
					out[o] = best
				case idx >= 0:
					route[p*h*w+idx] += out[o]
				}
			}
		}
	}
}

func (m *MaxPool2D) release() {
	m.out.release()
	m.gradIn.release()
	m.lastIn = nil
}

// poolStep is one comparison of maxPool's scan: plane[i] replaces the
// running maximum only when strictly greater (never when NaN).
func poolStep(best float64, idx int, plane []float64, i int) (float64, int) {
	if v := plane[i]; v > best {
		return v, i
	}
	return best, idx
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%d)", m.Size) }
