package nn

import (
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// TestDenseBackwardPropagatesInfTimesZero is the regression test for the
// old Dense.Backward zero skip: it dropped output gradients equal to 0,
// so a +Inf weight times a zero gradient contributed nothing instead of
// NaN. dL/dx[0] = 0·(+Inf) + 1·W[1][0] must be NaN.
func TestDenseBackwardPropagatesInfTimesZero(t *testing.T) {
	d := NewDense(2, 2, stats.NewRNG(1))
	d.weights.Data()[0] = math.Inf(1)
	d.Forward(tensor.FromSlice([]float64{0.5, -0.25}, 2))
	gradIn := d.Backward(tensor.FromSlice([]float64{0, 1}, 2))
	if !math.IsNaN(gradIn.Data()[0]) {
		t.Fatalf("gradIn[0] = %v, want NaN (0·Inf must not be skipped)", gradIn.Data()[0])
	}
}

// TestTrainingPathSpecialValues is the training-path counterpart of the
// compiled plans' special-value tests: NaN and ±Inf seeded into inputs,
// targets and weights must flow through the batch-major forward and
// backward passes exactly as through the per-example reference fold
// (refDNNGrads) — outputs, loss and every parameter gradient bit for
// bit — with no zero skips or reassociation laundering them, at every
// width.
func TestTrainingPathSpecialValues(t *testing.T) {
	cases := []struct {
		name string
		seed func(ins, targets []*tensor.Tensor, params []*tensor.Tensor)
	}{
		{"nan input", func(ins, _, _ []*tensor.Tensor) { ins[2].Data()[3] = math.NaN() }},
		{"+inf input", func(ins, _, _ []*tensor.Tensor) { ins[0].Data()[0] = math.Inf(1) }},
		{"-inf input", func(ins, _, _ []*tensor.Tensor) { ins[5].Data()[7] = math.Inf(-1) }},
		{"signed zeros", func(ins, _, _ []*tensor.Tensor) {
			for i := range ins[1].Data() {
				ins[1].Data()[i] = math.Copysign(0, float64(i%2)-0.5)
			}
		}},
		{"inf target", func(_, targets, _ []*tensor.Tensor) { targets[3].Data()[1] = math.Inf(1) }},
		{"nan target", func(_, targets, _ []*tensor.Tensor) { targets[4].Data()[0] = math.NaN() }},
		{"inf weight", func(_, _, params []*tensor.Tensor) { params[2].Data()[5] = math.Inf(1) }},
		{"nan bias", func(_, _, params []*tensor.Tensor) { params[1].Data()[2] = math.NaN() }},
		{"huge and tiny", func(ins, _, _ []*tensor.Tensor) {
			ins[3].Data()[0], ins[3].Data()[1] = 1e308, -1e-308
		}},
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins, targets := makeDataset(6, 4, 8)
			ref := NewDNN(8, []int{16}, 4, stats.NewRNG(5))
			tc.seed(ins, targets, ref.Params())
			ref.ZeroGrads()
			wantLoss := refDNNGrads(ref.Params(), ref.Grads(), ins, targets)
			for _, w := range []int{1, 2, 8} {
				parallel.SetWorkers(w)
				net := NewDNN(8, []int{16}, 4, stats.NewRNG(5))
				net.CopyParamsFrom(ref)
				x := gatherRows(&net.batchIn, ins)
				tg := gatherRows(&net.batchTarget, targets)
				net.ZeroGrads()
				pred := net.Forward(x)
				for b, in := range ins {
					single := NewDNN(8, []int{16}, 4, stats.NewRNG(5))
					single.CopyParamsFrom(ref)
					bitsEqual(t, tc.name+" forward row", pred.Data()[b*4:(b+1)*4], single.Forward(in).Data())
				}
				loss := net.loss.Loss(pred, tg)
				if math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Fatalf("workers=%d: loss %v, reference %v", w, loss, wantLoss)
				}
				net.Backward(net.lossGrad(pred, tg))
				for i, g := range net.Grads() {
					bitsEqual(t, tc.name+" gradient", g.Data(), ref.Grads()[i].Data())
				}
				net.Release()
			}
		})
	}
}

// TestReLUFormula pins the branch-free relu to the x > 0 ? x : +0
// formula on every class of float64, signs and NaN payloads included.
func TestReLUFormula(t *testing.T) {
	for _, x := range []float64{
		math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7FF0000000000001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1, -1, math.MaxFloat64, -math.MaxFloat64,
	} {
		want := 0.0
		if x > 0 {
			want = x
		}
		if got := relu(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("relu(%v) = %v (%x), want %v", x, got, math.Float64bits(got), want)
		}
	}
}
