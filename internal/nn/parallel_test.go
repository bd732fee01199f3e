package nn

import (
	"bytes"
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// trainRun builds a fresh network from seed, trains it over the given
// dataset for a few epochs of mini-batches, and returns the serialized
// final weights plus the prediction on the first example.
func trainRun(t *testing.T, build func(rng *stats.RNG) *Network, ins, targets []*tensor.Tensor, batch int) ([]byte, []float64) {
	t.Helper()
	net := build(stats.NewRNG(42))
	net.UseAdam(1e-3)
	for epoch := 0; epoch < 3; epoch++ {
		for start := 0; start < len(ins); start += batch {
			end := start + batch
			if end > len(ins) {
				end = len(ins)
			}
			net.TrainBatch(ins[start:end], targets[start:end])
		}
	}
	params, err := net.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	pred := net.Forward(ins[0])
	return params, append([]float64(nil), pred.Data()...)
}

// makeDataset builds a deterministic dataset of n examples with the given
// input shape and output size.
func makeDataset(n, outSize int, shape ...int) (ins, targets []*tensor.Tensor) {
	rng := stats.NewRNG(7)
	for i := 0; i < n; i++ {
		in := tensor.New(shape...)
		for j := range in.Data() {
			in.Data()[j] = rng.Range(-1, 1)
		}
		tg := tensor.New(outSize)
		for j := range tg.Data() {
			tg.Data()[j] = rng.Range(-1, 1)
		}
		ins = append(ins, in)
		targets = append(targets, tg)
	}
	return ins, targets
}

// TestParallelTrainingDeterminism is the parallel layer's core guarantee:
// training with workers ∈ {1, 2, 8} produces weights and predictions
// bit-identical to the sequential path, on both a DNN and a CNN.
func TestParallelTrainingDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *stats.RNG) *Network
		ins   []*tensor.Tensor
		tgt   []*tensor.Tensor
	}{
		{name: "DNN"},
		{name: "CNN"},
	}
	cases[0].build = func(rng *stats.RNG) *Network { return NewDNN(6, []int{16, 8}, 3, rng) }
	cases[0].ins, cases[0].tgt = makeDataset(12, 3, 6)
	cases[1].build = func(rng *stats.RNG) *Network { return NewDeepMindCNN(1, 16, 16, 3, rng) }
	cases[1].ins, cases[1].tgt = makeDataset(6, 3, 1, 16, 16)

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			wantParams, wantPred := trainRun(t, tc.build, tc.ins, tc.tgt, 4)
			for _, w := range []int{1, 2, 8} {
				parallel.SetWorkers(w)
				gotParams, gotPred := trainRun(t, tc.build, tc.ins, tc.tgt, 4)
				if !bytes.Equal(wantParams, gotParams) {
					t.Errorf("workers=%d: weights differ from sequential training", w)
				}
				for i := range wantPred {
					if wantPred[i] != gotPred[i] {
						t.Fatalf("workers=%d: prediction[%d] = %v, sequential %v", w, i, gotPred[i], wantPred[i])
					}
				}
			}
		})
	}
}

// TestDropoutTrainsBatched checks a network with a dropout layer trains
// through the one batch-major path at any width.
func TestDropoutTrainsBatched(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := stats.NewRNG(3)
	net := NewNetwork(
		NewDense(4, 8, rng.Split()), NewReLU(),
		NewDropout(0.2, rng.Split()),
		NewDense(8, 2, rng.Split()),
	)
	net.UseAdam(1e-3)
	ins, targets := makeDataset(8, 2, 4)
	if loss := net.TrainBatch(ins, targets); loss <= 0 {
		t.Errorf("training loss = %v", loss)
	}
}

// refDNNGrads is the per-example reference fold for a NewDNN network
// (Dense layers with ReLU between them) under MSE: every example runs
// its own forward and backward pass with scalar math.FMA folds, and the
// parameter gradients are then folded over the examples in ascending
// order — dL/dW[o][i] = Σ_b FMA(g_b[o], x_b[i]) from zero, added to the
// zeroed accumulator; dL/db chained through it. It fills grads (aligned
// with params: W₀, b₀, W₁, b₁, …) and returns the summed loss.
func refDNNGrads(params, grads []*tensor.Tensor, ins, targets []*tensor.Tensor) float64 {
	layers := len(params) / 2
	xs := make([][][]float64, layers) // xs[l][b]: input of dense l
	gs := make([][][]float64, layers) // gs[l][b]: grad at output of dense l
	total := 0.0
	for b := range ins {
		h := ins[b].Data()
		zs := make([][]float64, layers)
		for l := 0; l < layers; l++ {
			w, bias := params[2*l], params[2*l+1].Data()
			out, in := w.Shape()[0], w.Shape()[1]
			xs[l] = append(xs[l], h)
			z := make([]float64, out)
			for o := range z {
				s := 0.0
				for i := 0; i < in; i++ {
					s = math.FMA(h[i], w.Data()[o*in+i], s)
				}
				z[o] = s + bias[o]
			}
			zs[l] = z
			if l < layers-1 {
				h = make([]float64, out)
				for o, v := range z {
					if v > 0 {
						h[o] = v
					}
				}
			}
		}
		pred, tg := zs[layers-1], targets[b].Data()
		n := float64(len(pred))
		sum := 0.0
		g := make([]float64, len(pred))
		for o, p := range pred {
			d := p - tg[o]
			sum += d * d
			g[o] = 2 * (p - tg[o]) / n
		}
		total += sum / n
		for l := layers - 1; l >= 0; l-- {
			gs[l] = append(gs[l], g)
			if l == 0 {
				break
			}
			w := params[2*l]
			out, in := w.Shape()[0], w.Shape()[1]
			gi := make([]float64, in)
			for i := range gi {
				s := 0.0
				for o := 0; o < out; o++ {
					s = math.FMA(g[o], w.Data()[o*in+i], s)
				}
				if zs[l-1][i] > 0 {
					gi[i] = s
				}
			}
			g = gi
		}
	}
	for l := 0; l < layers; l++ {
		gw, gb := grads[2*l].Data(), grads[2*l+1].Data()
		out, in := grads[2*l].Shape()[0], grads[2*l].Shape()[1]
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				s := 0.0
				for b := range ins {
					s = math.FMA(gs[l][b][o], xs[l][b][i], s)
				}
				gw[o*in+i] += s
			}
			for b := range ins {
				gb[o] += gs[l][b][o]
			}
		}
	}
	return total
}

// TestTrainBatchMatchesPerExampleReference checks the batch-major
// TrainBatch against refDNNGrads, bit for bit, over full and ragged
// minibatches of a DNN whose products take both the naive and the
// packed, sharded GEMM paths, at widths {1, 2, 8}.
func TestTrainBatchMatchesPerExampleReference(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	ins, targets := makeDataset(45, 5, 24)
	build := func() *Network { return NewDNN(24, []int{64, 48}, 5, stats.NewRNG(42)) }
	ref := build()
	refOpt := NewAdam(ref.Params(), 1e-3)
	var refLoss []float64
	for epoch := 0; epoch < 2; epoch++ {
		for start := 0; start < len(ins); start += 16 {
			end := min(start+16, len(ins))
			ref.ZeroGrads()
			total := refDNNGrads(ref.Params(), ref.Grads(), ins[start:end], targets[start:end])
			for _, g := range ref.Grads() {
				g.ScaleInPlace(1 / float64(end-start))
			}
			ClipGradients(ref.Grads(), 10)
			refOpt.Step(ref.Grads())
			refLoss = append(refLoss, total/float64(end-start))
		}
	}
	want, _ := ref.MarshalParams()
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		net := build()
		net.UseAdam(1e-3)
		step := 0
		for epoch := 0; epoch < 2; epoch++ {
			for start := 0; start < len(ins); start += 16 {
				end := min(start+16, len(ins))
				if loss := net.TrainBatch(ins[start:end], targets[start:end]); loss != refLoss[step] {
					t.Fatalf("workers=%d step %d: loss %v, reference %v", w, step, loss, refLoss[step])
				}
				step++
			}
		}
		if got, _ := net.MarshalParams(); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: weights differ from the per-example reference fold", w)
		}
	}
}
