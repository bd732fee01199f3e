package nn

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// LeakyReLU is max(αx, x); a drop-in for ReLU when dying units are a
// concern on small training sets.
type LeakyReLU struct {
	paramless
	outGrad
	// Alpha is the negative-side slope (0 selects 0.01).
	Alpha  float64
	lastIn *tensor.Tensor
}

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if alpha == 0 {
		alpha = 0.01
	}
	return &LeakyReLU{Alpha: alpha}
}

// Forward applies the activation elementwise. The input must stay
// unchanged until the matching Backward.
func (l *LeakyReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.lastIn = in
	out := l.out.get(in.Shape()...)
	od := out.Data()
	for i, x := range in.Data() {
		if x < 0 {
			od[i] = l.Alpha * x
		} else {
			od[i] = x
		}
	}
	return out
}

// Backward scales the gradient by 1 or Alpha depending on the input
// sign.
func (l *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !live(l.lastIn) || l.lastIn.Size() != gradOut.Size() {
		auerr.Failf("nn: LeakyReLU Backward shape mismatch or called before Forward")
	}
	out := l.grad.get(gradOut.Shape()...)
	od := out.Data()
	x := l.lastIn.Data()
	for i, g := range gradOut.Data() {
		if x[i] < 0 {
			od[i] = g * l.Alpha
		} else {
			od[i] = g
		}
	}
	return out
}

func (l *LeakyReLU) release() {
	l.outGrad.release()
	l.lastIn = nil
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return fmt.Sprintf("leakyrelu(%g)", l.Alpha) }

// Dropout randomly zeroes activations during training (inverted
// dropout: survivors are scaled by 1/keep so inference needs no
// correction). Call SetTraining(false) for deployment. Draws are made in
// element order, so a batch consumes the RNG exactly as its examples
// would one after another.
type Dropout struct {
	paramless
	// Rate is the drop probability in [0, 1).
	Rate            float64
	rng             *stats.RNG
	training        bool
	masked          bool // the last Forward dropped (mask is valid)
	out, mask, grad buf
}

// NewDropout constructs a dropout layer in training mode.
func NewDropout(rate float64, rng *stats.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		auerr.Failf("nn: dropout rate %v out of [0, 1)", rate)
	}
	return &Dropout{Rate: rate, rng: rng, training: true}
}

// SetTraining toggles between training (dropping) and inference
// (identity) behaviour.
func (d *Dropout) SetTraining(t bool) { d.training = t }

// Forward drops units in training mode and is the identity otherwise.
func (d *Dropout) Forward(in *tensor.Tensor) *tensor.Tensor {
	if !d.training || d.Rate == 0 {
		d.masked = false
		return in
	}
	d.masked = true
	out := d.out.get(in.Shape()...)
	mask := d.mask.get(in.Size()).Data()
	od := out.Data()
	keep := 1 - d.Rate
	for i, x := range in.Data() {
		if d.rng.Float64() < d.Rate {
			mask[i] = 0
			od[i] = 0
		} else {
			mask[i] = 1 / keep
			od[i] = x * (1 / keep)
		}
	}
	return out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !d.masked {
		return gradOut
	}
	mask := d.mask.t.Data()
	if len(mask) != gradOut.Size() {
		auerr.Failf("nn: Dropout Backward shape mismatch")
	}
	out := d.grad.get(gradOut.Shape()...)
	od := out.Data()
	for i, g := range gradOut.Data() {
		od[i] = g * mask[i]
	}
	return out
}

func (d *Dropout) release() {
	d.out.release()
	d.mask.release()
	d.grad.release()
	d.masked = false
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%g)", d.Rate) }

// RMSProp is the root-mean-square-propagation optimizer, a common
// alternative to Adam for non-stationary (RL) objectives.
type RMSProp struct {
	LR, Decay, Eps float64
	params         []*tensor.Tensor
	cache          []*tensor.Tensor
}

// NewRMSProp constructs an RMSProp optimizer (decay 0.99, eps 1e-8).
func NewRMSProp(params []*tensor.Tensor, lr float64) *RMSProp {
	r := &RMSProp{LR: lr, Decay: 0.99, Eps: 1e-8, params: params,
		cache: make([]*tensor.Tensor, len(params))}
	for i, p := range params {
		r.cache[i] = tensor.New(p.Shape()...)
	}
	return r
}

// Step applies one RMSProp update.
func (r *RMSProp) Step(grads []*tensor.Tensor) {
	if len(grads) != len(r.params) {
		auerr.Failf("nn: RMSProp gradient count mismatch")
	}
	for i, p := range r.params {
		g := grads[i].Data()
		c := r.cache[i].Data()
		pd := p.Data()
		for j := range pd {
			c[j] = float64(r.Decay*c[j]) + float64((1-r.Decay)*g[j]*g[j])
			pd[j] -= r.LR * g[j] / (math.Sqrt(c[j]) + r.Eps)
		}
	}
}

// Name implements Optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }
