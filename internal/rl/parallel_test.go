package rl

import (
	"bytes"
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// newTestAgent builds an agent over a DNN 6-[64,32]-3 with minibatches
// of 32, so the update's products take both the naive and the packed,
// sharded GEMM paths.
func newTestAgent(steps int, double bool) *Agent {
	rng := stats.NewRNG(11)
	online := nn.NewDNN(6, []int{64, 32}, 3, rng.Split())
	target := nn.NewDNN(6, []int{64, 32}, 3, rng.Split())
	return NewAgent(online, target, 3, Config{
		BatchSize: 32, WarmupSteps: 32, EpsilonDecaySteps: steps, TargetSyncEvery: 10,
		DoubleDQN: double,
	}, stats.NewRNG(13))
}

// runAgent feeds a deterministic stream of transitions through a,
// updating with observe, and returns the per-step losses and the online
// network's final weights.
func runAgent(t *testing.T, a *Agent, steps int, observe func(*Agent, Transition) float64) ([]float64, []byte) {
	t.Helper()
	env := stats.NewRNG(17)
	state := make([]float64, 6)
	var losses []float64
	for i := 0; i < steps; i++ {
		next := make([]float64, 6)
		for j := range next {
			next[j] = env.Float64()
		}
		losses = append(losses, observe(a, Transition{
			State: state, Action: a.Act(state, false),
			Reward: env.Range(-1, 1), NextState: next,
			Terminal: i%25 == 24,
		}))
		state = next
	}
	params, err := a.online.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	return losses, params
}

// refForward runs one example through a NewDNN parameter list (W₀, b₀,
// W₁, b₁, …; ReLU between layers) with scalar math.FMA folds, returning
// each dense layer's input and pre-activation output.
func refForward(params []*tensor.Tensor, x []float64) (ins, zs [][]float64) {
	h := x
	layers := len(params) / 2
	for l := 0; l < layers; l++ {
		w, bias := params[2*l], params[2*l+1].Data()
		out, in := w.Shape()[0], w.Shape()[1]
		z := make([]float64, out)
		for o := range z {
			s := 0.0
			for i := 0; i < in; i++ {
				s = math.FMA(h[i], w.Data()[o*in+i], s)
			}
			z[o] = s + bias[o]
		}
		ins, zs = append(ins, h), append(zs, z)
		h = make([]float64, out)
		for o, v := range z {
			if v > 0 {
				h[o] = v
			}
		}
	}
	return ins, zs
}

// refBackward propagates one example's output gradient g back through
// the layers of refForward, returning the gradient at each dense
// layer's output.
func refBackward(params []*tensor.Tensor, zs [][]float64, g []float64) [][]float64 {
	layers := len(params) / 2
	gs := make([][]float64, layers)
	for l := layers - 1; l >= 0; l-- {
		gs[l] = g
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
	return gs
}

// refObserve is Observe with the per-example reference fold: every
// replayed transition runs its own scalar forward passes and backward
// pass, and the weight gradients are folded over the transitions in
// sampled order — dL/dW[o][i] = Σ_b FMA(g_b[o], x_b[i]) from zero, added
// to the zeroed accumulator; dL/db chained through it.
func refObserve(a *Agent, t Transition) float64 {
	a.buffer.Add(t)
	a.steps++
	if a.buffer.Len() < a.cfg.WarmupSteps || a.steps%a.cfg.LearnEvery != 0 {
		return 0
	}
	batch := a.buffer.Sample(nil, a.cfg.BatchSize)
	a.ensureOptimizer()
	op, tp := a.online.Params(), a.target.Params()
	layers := len(op) / 2
	xs := make([][][]float64, layers)
	gs := make([][][]float64, layers)
	total := 0.0
	for _, tr := range batch {
		y := tr.Reward
		if !tr.Terminal {
			_, tz := refForward(tp, tr.NextState)
			q := tz[layers-1]
			choose := q
			if a.cfg.DoubleDQN {
				_, oz := refForward(op, tr.NextState)
				choose = oz[layers-1]
			}
			y += a.cfg.Gamma * q[stats.ArgMax(choose)]
		}
		ins, zs := refForward(op, tr.State)
		pred := tensor.FromSlice(zs[layers-1], len(zs[layers-1]))
		tgt := pred.Clone()
		tgt.Data()[tr.Action] = y
		total += dqnLoss.Loss(pred, tgt)
		g := refBackward(op, zs, dqnLoss.Grad(pred, tgt).Data())
		for l := range gs {
			xs[l] = append(xs[l], ins[l])
			gs[l] = append(gs[l], g[l])
		}
	}
	a.online.ZeroGrads()
	grads := a.online.Grads()
	for l := 0; l < layers; l++ {
		gw, gb := grads[2*l].Data(), grads[2*l+1].Data()
		out, in := grads[2*l].Shape()[0], grads[2*l].Shape()[1]
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				s := 0.0
				for b := range batch {
					s = math.FMA(gs[l][b][o], xs[l][b][i], s)
				}
				gw[o*in+i] += s
			}
			for b := range batch {
				gb[o] += gs[l][b][o]
			}
		}
	}
	for _, g := range grads {
		g.ScaleInPlace(1 / float64(len(batch)))
	}
	nn.ClipGradients(grads, 10)
	a.opt.Step(grads)
	a.trained++
	if a.trained%a.cfg.TargetSyncEvery == 0 {
		a.target.CopyParamsFrom(a.online)
	}
	return total / float64(len(batch))
}

// TestObserveParallelDeterminism checks the batch-major replayed
// Q-learning update is bit-identical to the per-example reference fold
// (refObserve), loss by loss and weight by weight, at widths {1, 2, 8},
// for plain and double DQN.
func TestObserveParallelDeterminism(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	const steps = 120
	for _, double := range []bool{false, true} {
		wantLoss, want := runAgent(t, newTestAgent(steps, double), steps, refObserve)
		for _, w := range []int{1, 2, 8} {
			parallel.SetWorkers(w)
			gotLoss, got := runAgent(t, newTestAgent(steps, double), steps, (*Agent).Observe)
			for i := range wantLoss {
				if gotLoss[i] != wantLoss[i] {
					t.Fatalf("double=%v workers=%d step %d: loss %v, reference %v", double, w, i, gotLoss[i], wantLoss[i])
				}
			}
			if !bytes.Equal(want, got) {
				t.Errorf("double=%v workers=%d: weights differ from the per-example reference", double, w)
			}
		}
	}
}
