package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/rl"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// model is one entry of the model store θ: a lazily materialized network
// (sizes are only known once the first input arrives) plus per-algorithm
// training state.
type model struct {
	spec ModelSpec

	net     *nn.Network // online network (nil until first input)
	agent   *rl.Agent   // QLearn only
	rng     *stats.RNG
	inSize  int
	outSize int

	// SL training state: the dataset accumulated during training runs
	// (model inputs paired with desirable outputs recorded from the
	// oracle), trained offline per the paper ("in supervised learning,
	// model training is conducted offline after execution").
	slInputs  [][]float64
	slTargets [][]float64

	// RL stepping state: the previous (state, action) pair awaiting its
	// reward, completed on the next au_NN call.
	prevState  []float64
	prevAction int
	havePrev   bool

	// pendingParams holds serialized weights loaded before the network
	// is materialized (TS mode loads by name before sizes are known).
	pendingParams []byte

	// predMu serializes predictions through the shared network, whose
	// layers cache forward-pass state. Parallel rollouts avoid this lock
	// entirely by taking private replicas via predictor().
	predMu sync.Mutex

	// weightsVersion counts weight publications: it is bumped after every
	// mutation of the network's parameters (materialize, online train
	// steps, offline fit batches, RL observes, weight restores). Compiled
	// serving plans snapshot the weights, so predictors compare their
	// plan's version against this counter on every call and recompile on
	// mismatch — the invalidation half of the two-representation
	// architecture (DESIGN.md §5g).
	weightsVersion atomic.Uint64

	// Compiled-plan cache: one shared immutable plan per weights version,
	// compiled lazily on first use and replaced when the version moves.
	// planFailed latches compile failure — the architecture is fixed after
	// materialize, so a network that cannot compile today never will.
	planMu      sync.Mutex
	plan        *nn.Plan
	planVersion uint64
	planFailed  bool
}

// bumpWeights records a weight publication, invalidating compiled plans.
func (m *model) bumpWeights() { m.weightsVersion.Add(1) }

// compiledPlan returns the serving plan for the current weights (and the
// version it was compiled at), recompiling if training has published new
// weights since the cached compile. Returns nil when the network's
// architecture cannot be compiled; callers fall back to network replicas.
func (m *model) compiledPlan() (*nn.Plan, uint64) {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	if m.planFailed || m.net == nil {
		return nil, 0
	}
	ver := m.weightsVersion.Load()
	if m.plan == nil || m.planVersion != ver {
		var shape []int
		if m.spec.Type == CNN {
			shape = m.spec.InputShape
		}
		p, err := nn.Compile(m.net, shape...)
		if err != nil {
			m.planFailed = true
			return nil, 0
		}
		m.plan, m.planVersion = p, ver
	}
	return m.plan, m.planVersion
}

// planInstance returns a fresh per-goroutine instance of the current
// compiled plan, or nil when the model cannot be compiled.
func (m *model) planInstance() (*nn.PlanInstance, uint64) {
	p, ver := m.compiledPlan()
	if p == nil {
		return nil, 0
	}
	return p.NewInstance(), ver
}

func newModel(spec ModelSpec, rng *stats.RNG) *model {
	return &model{spec: spec, rng: rng}
}

// materialize builds the network(s) once input/output sizes are known.
func (m *model) materialize(inSize, outSize int) error {
	if m.net != nil {
		if inSize != m.inSize {
			return auerr.E(auerr.ErrSpecInvalid, "core: model %q input size changed from %d to %d",
				m.spec.Name, m.inSize, inSize)
		}
		if outSize != m.outSize {
			return auerr.E(auerr.ErrSpecInvalid, "core: model %q output size changed from %d to %d",
				m.spec.Name, m.outSize, outSize)
		}
		return nil
	}
	m.inSize, m.outSize = inSize, outSize
	build := func() *nn.Network {
		if m.spec.Builder != nil {
			return m.spec.Builder(inSize, outSize, m.rng.Split())
		}
		if m.spec.Type == CNN {
			s := m.spec.InputShape
			return nn.NewDeepMindCNN(s[0], s[1], s[2], outSize, m.rng.Split())
		}
		net := nn.NewDNN(inSize, m.spec.Hidden, outSize, m.rng.Split())
		if m.spec.OutputActivation == "sigmoid" {
			layers := append(net.Layers(), nn.NewSigmoid())
			net = nn.NewNetwork(layers...)
		}
		return net
	}
	m.net = build()

	switch m.spec.Algo {
	case QLearn:
		cfg := rl.Config{
			Gamma:             m.spec.Gamma,
			EpsilonDecaySteps: m.spec.EpsilonDecaySteps,
			ReplayCapacity:    m.spec.ReplayCapacity,
			BatchSize:         m.spec.BatchSize,
			TargetSyncEvery:   m.spec.TargetSyncEvery,
			LearnEvery:        m.spec.LearnEvery,
			DoubleDQN:         m.spec.DoubleDQN,
			LR:                m.spec.LR,
		}
		if m.spec.Type == CNN {
			cfg.StateShape = m.spec.InputShape
		}
		target := build()
		m.agent = rl.NewAgent(m.net, target, m.spec.Actions, cfg, m.rng.Split())
	case AdamOpt:
		lr := m.spec.LR
		if lr == 0 {
			lr = 1e-3
		}
		m.net.UseAdam(lr)
	}
	if m.pendingParams != nil {
		if err := m.net.UnmarshalParams(m.pendingParams); err != nil {
			return fmt.Errorf("core: loading saved weights for %q: %w", m.spec.Name, err)
		}
		m.pendingParams = nil
	}
	m.bumpWeights()
	return nil
}

// predict runs the network on a flat input vector. The shared network's
// layers cache forward state, so concurrent callers are serialized; hot
// concurrent paths should use predictor() instead.
func (m *model) predict(in []float64) []float64 {
	m.predMu.Lock()
	defer m.predMu.Unlock()
	if m.spec.Type == CNN {
		return m.net.Predict(in, m.spec.InputShape...)
	}
	return m.net.Predict(in)
}

// predictor returns an inference function backed by a private instance
// of the model's compiled serving plan (shared packed weights, private
// scratch), safe to call concurrently with other predictors while no
// training step is mutating the weights. Each call checks the weights
// version with one atomic load and recompiles when training has
// published new weights. Models whose architecture cannot be compiled
// fall back to a network replica, then to the lock-guarded shared path.
func (m *model) predictor() func(in []float64) []float64 {
	if inst, ver := m.planInstance(); inst != nil {
		return func(in []float64) []float64 {
			if v := m.weightsVersion.Load(); v != ver {
				if ni, nv := m.planInstance(); ni != nil {
					inst, ver = ni, nv
				}
			}
			return inst.Predict(in)
		}
	}
	rep, ok := m.net.Replica()
	if !ok {
		return m.predict
	}
	if m.spec.Type == CNN {
		shape := m.spec.InputShape
		return func(in []float64) []float64 { return rep.Predict(in, shape...) }
	}
	return func(in []float64) []float64 { return rep.Predict(in) }
}

// predictorInto is the destination-passing predictor(): the returned
// function writes the prediction into out when it has the right length
// (allocating otherwise) and returns the filled slice. With a compiled
// plan instance and a correctly sized out, a steady-state call allocates
// nothing — the serving engine's per-replica closures are built on this.
func (m *model) predictorInto() func(in, out []float64) []float64 {
	if inst, ver := m.planInstance(); inst != nil {
		return func(in, out []float64) []float64 {
			if v := m.weightsVersion.Load(); v != ver {
				if ni, nv := m.planInstance(); ni != nil {
					inst, ver = ni, nv
				}
			}
			return inst.PredictInto(out, in)
		}
	}
	rep, ok := m.net.Replica()
	if !ok {
		return func(in, out []float64) []float64 {
			res := m.predict(in)
			if len(out) == len(res) {
				copy(out, res)
				return out
			}
			return res
		}
	}
	var shape []int
	if m.spec.Type == CNN {
		shape = m.spec.InputShape
	}
	return func(in, out []float64) []float64 { return rep.PredictInto(out, in, shape...) }
}

// slTrainStep performs one online gradient step (the literal TRAIN rule)
// using target as the desirable output.
func (m *model) slTrainStep(in, target []float64) float64 {
	var it *tensor.Tensor
	if m.spec.Type == CNN {
		it = tensor.FromSlice(append([]float64(nil), in...), m.spec.InputShape...)
	} else {
		it = tensor.FromSlice(append([]float64(nil), in...), len(in))
	}
	tt := tensor.FromSlice(append([]float64(nil), target...), len(target))
	loss := m.net.TrainStep(it, tt)
	m.bumpWeights()
	return loss
}

// recordExample appends a labeled example for offline training.
func (m *model) recordExample(in, target []float64) {
	m.slInputs = append(m.slInputs, append([]float64(nil), in...))
	m.slTargets = append(m.slTargets, append([]float64(nil), target...))
}

// FitStats reports offline-training progress. FitCtx fills it even when
// a canceled context stops training early, so callers can see exactly
// how far the run got and resume from there.
type FitStats struct {
	// Epochs is the number of fully completed epochs.
	Epochs int
	// Batches is the total number of completed minibatch optimizer
	// steps, across all epochs including a final partial one.
	Batches int
	// LastLoss is the mean loss over the most recent epoch — the final
	// full epoch, or the partial epoch in progress when training was
	// canceled (0 if no batch completed).
	LastLoss float64
	// Duration is the wall-clock time the fit ran, filled on every
	// return path so canceled and completed fits report comparable
	// throughput.
	Duration time.Duration
	// StepsPerSec is Batches/Duration — minibatch optimizer steps per
	// second of wall clock (0 if the fit finished too fast to time).
	StepsPerSec float64
}

// fitCtx trains the SL model over the recorded dataset with
// mini-batches. The minibatch is the atomic unit of training:
// cancellation is checked before every optimizer step, and a canceled
// context returns the partial-progress FitStats alongside an error
// wrapping auerr.ErrCanceled. Completed steps are kept — the model,
// its dataset and its optimizer state stay consistent, so a later
// fitCtx call resumes training.
//
// tel, when non-nil, receives per-step latency observations, per-epoch
// loss, and the epoch counter; a nil tel costs one branch per batch.
// The full loop, including the checkpoint/resume machinery this wraps,
// lives in fitResumeCtx.
func (m *model) fitCtx(ctx context.Context, epochs, batchSize int, tel *telemetry) (FitStats, error) {
	return m.fitResumeCtx(ctx, epochs, batchSize, tel, FitResumeOptions{})
}
