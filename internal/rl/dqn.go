package rl

import (
	"context"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Config holds the DQN hyperparameters. Zero values select the defaults
// listed on each field.
type Config struct {
	// Gamma is the discount factor (default 0.97).
	Gamma float64
	// EpsilonStart/EpsilonEnd bound the ε-greedy exploration schedule
	// (defaults 1.0 → 0.05).
	EpsilonStart, EpsilonEnd float64
	// EpsilonDecaySteps is how many Observe calls it takes for ε to
	// anneal from start to end (default 5000).
	EpsilonDecaySteps int
	// BatchSize is the replay mini-batch (default 32).
	BatchSize int
	// ReplayCapacity bounds the experience buffer (default 10000).
	ReplayCapacity int
	// TargetSyncEvery is the target-network refresh interval in training
	// steps (default 250).
	TargetSyncEvery int
	// LearnEvery trains once per this many Observe calls (default 1).
	LearnEvery int
	// WarmupSteps delays training until the buffer has this many
	// transitions (default max(BatchSize, 100)).
	WarmupSteps int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// StateShape, when set, reshapes flat state vectors before the
	// forward pass (needed for CNN models over (C,H,W) screens).
	StateShape []int
	// DoubleDQN selects van Hasselt-style double Q-learning: the online
	// network chooses the bootstrap action and the target network
	// evaluates it, reducing the max-operator's overestimation bias.
	DoubleDQN bool
}

func (c *Config) fillDefaults() {
	if c.Gamma == 0 {
		c.Gamma = 0.97
	}
	if c.EpsilonStart == 0 {
		c.EpsilonStart = 1.0
	}
	if c.EpsilonEnd == 0 {
		c.EpsilonEnd = 0.05
	}
	if c.EpsilonDecaySteps == 0 {
		c.EpsilonDecaySteps = 5000
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 10000
	}
	if c.TargetSyncEvery == 0 {
		c.TargetSyncEvery = 250
	}
	if c.LearnEvery == 0 {
		c.LearnEvery = 1
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = c.BatchSize
		if c.WarmupSteps < 100 {
			c.WarmupSteps = 100
		}
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
}

// Agent is a deep Q-learning agent: an online network selects actions,
// a periodically synced target network supplies bootstrap values, and
// experience replay decorrelates updates. It implements the paper's "Q"
// training algorithm invoked by au_NN in TR mode.
type Agent struct {
	cfg     Config
	online  *nn.Network
	target  *nn.Network
	buffer  *ReplayBuffer
	rng     *stats.RNG
	actions int
	steps   int
	trained int
	// opt is created lazily so an agent constructed for TS (production)
	// mode never allocates optimizer state.
	opt nn.Optimizer

	// Replay-update scratch, reused across Observe calls so the steady
	// state allocates nothing: the sampled minibatch, the per-example
	// state shape, the state and next-state rows handed to
	// nn.Network.GatherRows (the gathered batches are network-owned and
	// handed back by Release), the bootstrap values, and the
	// (B, actions) TD target and loss gradient.
	batch               []Transition
	stateShape          []int
	stateRows, nextRows [][]float64
	bootstrap           []float64
	tdTarget, tdGrad    *tensor.Tensor

	// stateView is the recycled tensor header stateTensor wraps around
	// the caller's state slice (Act, QValues), so the Act hot path
	// allocates nothing.
	stateView *tensor.Tensor

	// Telemetry instruments, resolved at construction (nil while
	// telemetry is disabled; every use is a nil-checked no-op).
	obsSteps *obs.Counter
	obsLoss  *obs.Gauge
	obsEps   *obs.Gauge
}

// NewAgent wraps online (and a structurally identical targetNet, which
// will be overwritten with online's weights) into a DQN agent with
// `actions` discrete outputs.
func NewAgent(online, targetNet *nn.Network, actions int, cfg Config, rng *stats.RNG) *Agent {
	if actions <= 0 {
		auerr.Failf("rl: agent needs a positive action count, got %d", actions)
	}
	cfg.fillDefaults()
	targetNet.CopyParamsFrom(online)
	reg := obs.Default()
	return &Agent{
		cfg:     cfg,
		online:  online,
		target:  targetNet,
		buffer:  NewReplayBuffer(cfg.ReplayCapacity, rng.Split()),
		rng:     rng,
		actions: actions,
		obsSteps: reg.Counter("autonomizer_rl_train_steps_total",
			"Replayed Q-learning updates applied across all agents.", nil),
		obsLoss: reg.Gauge("autonomizer_rl_last_loss",
			"Mean TD loss of the most recent replay minibatch.", nil),
		obsEps: reg.Gauge("autonomizer_rl_epsilon",
			"Current epsilon-greedy exploration rate.", nil),
	}
}

// Online exposes the online network (e.g. for serialization/size
// accounting in Table 2).
func (a *Agent) Online() *nn.Network { return a.online }

// Buffer exposes the replay buffer (for trace-size accounting).
func (a *Agent) Buffer() *ReplayBuffer { return a.buffer }

// Epsilon reports the current exploration rate.
func (a *Agent) Epsilon() float64 {
	frac := float64(a.steps) / float64(a.cfg.EpsilonDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return a.cfg.EpsilonStart + float64((a.cfg.EpsilonEnd-a.cfg.EpsilonStart)*frac)
}

// Steps reports how many transitions the agent has observed.
func (a *Agent) Steps() int { return a.steps }

// stateTensor wraps a caller's state slice in the recycled a.stateView
// header (allocated on first use, nothing thereafter) and returns it.
func (a *Agent) stateTensor(s []float64) *tensor.Tensor {
	if len(a.cfg.StateShape) > 0 {
		a.stateView = tensor.ViewOf(a.stateView, s, a.cfg.StateShape...)
	} else {
		a.stateView = tensor.ViewOf(a.stateView, s, len(s))
	}
	return a.stateView
}

// QValues returns the online network's action values for state.
func (a *Agent) QValues(state []float64) []float64 {
	out := a.online.Forward(a.stateTensor(state))
	return append([]float64(nil), out.Data()...)
}

// Act selects an action ε-greedily in training, or greedily when greedy
// is true (the paper's TS/production mode). The greedy path reads the
// argmax straight off the network's cached forward buffer — no QValues
// copy, so steady-state action selection allocates nothing.
func (a *Agent) Act(state []float64, greedy bool) int {
	if !greedy && a.rng.Float64() < a.Epsilon() {
		return a.rng.Intn(a.actions)
	}
	return stats.ArgMax(a.online.Forward(a.stateTensor(state)).Data())
}

// ObserveCtx is the context-aware Observe. Cancellation is checked at
// the minibatch boundary — once before the transition is recorded and
// the replay update starts — because a replay minibatch is the atomic
// unit of DQN training. A canceled context returns an error wrapping
// auerr.ErrCanceled with the agent's networks, replay buffer and step
// counters untouched, so training can resume from exactly this state.
func (a *Agent) ObserveCtx(ctx context.Context, t Transition) (float64, error) {
	if ctx != nil && ctx.Err() != nil {
		return 0, auerr.Canceled(ctx)
	}
	return a.Observe(t), nil
}

// Observe records a transition and, past warmup, performs a replayed
// Q-learning update: target = r (terminal) or r + γ·max_a' Q_target(s',a').
// It returns the training loss, or 0 when no update ran.
//
// The minibatch runs batch-major: its states and next states are
// gathered into two (B, ...) tensors, and the update is one target
// forward (plus one online forward of the next states under DoubleDQN),
// one online forward and one backward pass, each one GEMM per Dense
// layer. Each transition's TD target and loss gradient are those of
// running it alone, and the weight gradients fold the transitions in
// sampled order, so the update is bit-identical at any parallel width.
func (a *Agent) Observe(t Transition) float64 {
	a.buffer.Add(t)
	a.steps++
	if a.buffer.Len() < a.cfg.WarmupSteps || a.steps%a.cfg.LearnEvery != 0 {
		return 0
	}
	a.batch = a.buffer.Sample(a.batch, a.cfg.BatchSize)
	if a.online.Params() == nil {
		return 0
	}
	a.ensureOptimizer()
	b := len(a.batch)
	states, nexts := a.gather()
	a.bootstrapValues(nexts)
	pred := a.online.Forward(states)
	acts := pred.Shape()[len(pred.Shape())-1]
	a.tdTarget = tensor.Reuse(a.tdTarget, b, acts)
	a.tdGrad = tensor.Reuse(a.tdGrad, b, acts)
	tgt := a.tdTarget.Data()
	copy(tgt, pred.Data())
	// Only the taken action's Q-value receives gradient.
	for i, tr := range a.batch {
		tgt[i*acts+tr.Action] = a.bootstrap[i]
	}
	totalLoss := dqnLoss.Loss(pred, a.tdTarget)
	a.online.ZeroGrads()
	a.online.Backward(dqnLoss.GradInto(a.tdGrad, pred, a.tdTarget))
	a.online.Release()
	a.target.Release()

	grads := a.online.Grads()
	for _, g := range grads {
		g.ScaleInPlace(1 / float64(b))
	}
	nn.ClipGradients(grads, 10)
	a.opt.Step(grads)
	a.trained++
	if a.trained%a.cfg.TargetSyncEvery == 0 {
		a.target.CopyParamsFrom(a.online)
	}
	loss := totalLoss / float64(b)
	a.obsSteps.Inc()
	a.obsLoss.Set(loss)
	a.obsEps.Set(a.Epsilon())
	return loss
}

// gather collects the minibatch's states into an online-network batch
// and its next states into a target-network batch (nn.GatherRows; both
// are handed back by the networks' Release). A terminal transition's
// next state is never read and gathers as zeros; every other state and
// next state must have the state width.
func (a *Agent) gather() (states, nexts *tensor.Tensor) {
	f := len(a.batch[0].State)
	if len(a.stateShape) == 0 {
		if len(a.cfg.StateShape) > 0 {
			a.stateShape = append(a.stateShape, a.cfg.StateShape...)
		} else {
			a.stateShape = append(a.stateShape, f)
		}
	}
	a.stateRows, a.nextRows = a.stateRows[:0], a.nextRows[:0]
	for _, tr := range a.batch {
		if len(tr.State) != f {
			auerr.Failf("rl: replayed state has %d values, want %d", len(tr.State), f)
		}
		next := tr.NextState
		if tr.Terminal {
			next = nil
		} else if len(next) != f {
			auerr.Failf("rl: replayed next state has %d values, want %d", len(next), f)
		}
		a.stateRows = append(a.stateRows, tr.State)
		a.nextRows = append(a.nextRows, next)
	}
	return a.online.GatherRows(a.stateRows, a.stateShape...),
		a.target.GatherRows(a.nextRows, a.stateShape...)
}

// bootstrapValues fills a.bootstrap with each transition's TD target y:
// r for terminal transitions, else r + γ·Q_target(s', a*), where a* is
// the target network's argmax — or, under DoubleDQN, the online
// network's, scored by the target network.
func (a *Agent) bootstrapValues(nexts *tensor.Tensor) {
	q := a.target.Forward(nexts).Data()
	choose := q
	if a.cfg.DoubleDQN {
		choose = a.online.Forward(nexts).Data()
	}
	acts := len(q) / len(a.batch)
	a.bootstrap = a.bootstrap[:0]
	for i, tr := range a.batch {
		y := tr.Reward
		if !tr.Terminal {
			best := q[i*acts+stats.ArgMax(choose[i*acts:(i+1)*acts])]
			y += float64(a.cfg.Gamma * best)
		}
		a.bootstrap = append(a.bootstrap, y)
	}
}

func (a *Agent) ensureOptimizer() {
	if a.opt == nil {
		a.opt = nn.NewAdam(a.online.Params(), a.cfg.LR)
	}
}

// dqnLoss is the TD-error loss of the replay update.
var dqnLoss = nn.Huber{Delta: 1}
