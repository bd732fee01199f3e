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
	// first Forward (Replicate leaves it nil) and rebuilt when the input
	// extent changes.
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
	// gradWProd views arena scratch for the per-image gradW product.
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

// Forward convolves a (InC, H, W) image to (OutC, outH, outW), or each
// image of a (B, InC, H, W) batch in ascending order to
// (B, OutC, outH, outW). The input must stay unchanged until the
// matching Backward (see lastIn).
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
	inPer, outPer := c.InC*g.InH*g.InW, c.OutC*n
	c.lastIn = in
	out := c.out.getRows(batched, rows, c.OutC, g.OutH, g.OutW)
	od, id := out.Data(), in.Data()
	bd := c.bias.Data()
	for r := 0; r < rows; r++ {
		o := od[r*outPer : (r+1)*outPer]
		c.kern.Forward(o, id[r*inPer:(r+1)*inPer], c.weights.Data()) // (OutC, outH*outW)
		// Add per-output-channel bias after the product, exactly like
		// the im2col reference (bias never enters the FMA fold).
		for oc := 0; oc < c.OutC; oc++ {
			b := bd[oc]
			row := o[oc*n : (oc+1)*n]
			for i := range row {
				row[i] += b
			}
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
// column-gradient matrix), one image at a time in ascending order.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(c.lastIn) {
		auerr.Failf("nn: Conv2D Backward before Forward")
	}
	g := c.geom()
	n := g.OutH * g.OutW
	inPer, outPer := c.InC*g.InH*g.InW, c.OutC*n
	rows := c.lastIn.Size() / inPer
	if gradOut.Size() != rows*outPer {
		auerr.Failf("nn: Conv2D Backward expects %d grads, got %d", rows*outPer, gradOut.Size())
	}
	gd := gradOut.Data()
	id := c.lastIn.Data()
	gradIn := c.gradIn.get(c.lastIn.Shape()...)
	gi := gradIn.Data()
	// Per image: dL/dW += g × im2col(in)ᵀ, gathered implicitly. The
	// per-image product is formed from zero and then added (not chained
	// through the accumulator), so the fold does not depend on the batch
	// size. dL/dinput = col2im(Wᵀ × g), scattered directly from the
	// kernel's per-channel stripes.
	pw := tensor.Scratch.Get(c.gradW.Size())
	c.gradWProd = tensor.ViewOf(c.gradWProd, *pw, c.OutC, c.InC*c.KH*c.KW)
	prod := c.gradWProd
	gb := c.gradB.Data()
	for r := 0; r < rows; r++ {
		gr := gd[r*outPer : (r+1)*outPer]
		c.kern.Backward(prod.Data(), gi[r*inPer:(r+1)*inPer], id[r*inPer:(r+1)*inPer], c.weights.Data(), gr)
		c.gradW.AddInPlace(prod)
		// dL/db = row sums of g
		for oc := 0; oc < c.OutC; oc++ {
			sum := 0.0
			for _, v := range gr[oc*n : (oc+1)*n] {
				sum += v
			}
			gb[oc] += sum
		}
	}
	tensor.Scratch.Put(pw)
	clearView(c.gradWProd)
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

// window returns the maximum of the pooling window at (oy, ox) of a
// w-wide plane and its flat index in the plane: the first element
// strictly greater than a -Inf start, so NaN never wins. The index is -1
// when nothing beats -Inf (an all-NaN or all -Inf window).
func (m *MaxPool2D) window(plane []float64, w, oy, ox int) (float64, int) {
	best, bestIdx := math.Inf(-1), -1
	for dy := 0; dy < m.Size; dy++ {
		for dx := 0; dx < m.Size; dx++ {
			idx := (oy*m.Size+dy)*w + ox*m.Size + dx
			if v := plane[idx]; v > best {
				best, bestIdx = v, idx
			}
		}
	}
	return best, bestIdx
}

// Forward max-pools each channel of each image with a size×size window
// and stride equal to the window size. Ragged edges truncate.
func (m *MaxPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	rows, batched, chw := imageRows(in, "MaxPool2D")
	c, h, w := chw[0], chw[1], chw[2]
	oh, ow := m.pooledDims(chw)
	m.lastIn = in
	out := m.out.getRows(batched, rows, c, oh, ow)
	od, id := out.Data(), in.Data()
	for p := 0; p < rows*c; p++ {
		plane := id[p*h*w : (p+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				od[(p*oh+oy)*ow+ox], _ = m.window(plane, w, oy, ox)
			}
		}
	}
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
	gi, id, g := gradIn.Data(), m.lastIn.Data(), gradOut.Data()
	for p := 0; p < planes; p++ {
		plane := id[p*h*w : (p+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				if _, idx := m.window(plane, w, oy, ox); idx >= 0 {
					gi[p*h*w+idx] += g[(p*oh+oy)*ow+ox]
				}
			}
		}
	}
	return gradIn
}

func (m *MaxPool2D) release() {
	m.out.release()
	m.gradIn.release()
	m.lastIn = nil
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%d)", m.Size) }
