package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/autonomizer/autonomizer/internal/bench"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/rl"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// rlWork sizes one autonomized-loop workload. Frame counts are fixed
// work: perSec times --seconds, never a wall-clock budget, so one seed
// always trains the same parameters.
type rlWork struct {
	raw                  bool
	trainPerSec          int
	inferPerSec          int
	agentFrames          int // stream transitions replayed into a fresh rl.Agent (traced)
	fwdBwdReps, convReps int
}

var (
	rlAll = rlWork{trainPerSec: 1400, inferPerSec: 20000, agentFrames: 2000, fwdBwdReps: 5000}
	rlRaw = rlWork{raw: true, trainPerSec: 90, inferPerSec: 2500, agentFrames: 200, fwdBwdReps: 400, convReps: 400}
)

const (
	// warmupFrames fills the replay buffer up to the DQN's default
	// WarmupSteps before the first timed frame: no learning happens yet.
	warmupFrames = 100
	// checkEvery samples the Test phase for the compiled-plan check.
	checkEvery        = 16
	rawSide           = 16
	modelName         = "Flappybird"
	publishesPerRound = 5  // reload_ms samples
	rlSetups          = 31 // set-ups per run; setup_s is their median
	// probeEvery is how much measured frame time passes between two
	// probes; a probe costs 2-4% of it.
	probeEvery = 2 * time.Millisecond
)

func (w rlWork) spec() core.ModelSpec {
	s := core.ModelSpec{
		Name: modelName, Algo: core.QLearn, Actions: 2,
		Hidden: []int{64, 32}, LR: 1e-3,
		EpsilonDecaySteps: bench.FlappySubject().TunedEpsilonDecay,
		Gamma:             0.97,
		TargetSyncEvery:   150,
		ReplayCapacity:    20000,
		LearnEvery:        1,
	}
	if w.raw {
		s.Type = core.CNN
		s.InputShape = []int{1, rawSide, rawSide}
	}
	return s
}

// encode is the model-input encoder: the All features scaled and
// clamped as the Table 3 harness does, or the downsampled screen.
func (w rlWork) encode(subj *bench.RLSubject) func(e env.Env) []float64 {
	if w.raw {
		return func(e env.Env) []float64 { return env.RawState(e, 64/rawSide) }
	}
	return func(e env.Env) []float64 {
		v := env.StateVector(e, subj.Features)
		for i := range v {
			v[i] = stats.Clamp(v[i]/subj.FeatureScale[i], -1.5, 1.5)
		}
		return v
	}
}

// newNet builds a network of the workload's architecture.
func (w rlWork) newNet(in, out int, seed uint64) *nn.Network {
	if w.raw {
		return nn.NewDeepMindCNN(1, rawSide, rawSide, out, stats.NewRNG(seed))
	}
	return nn.NewDNN(in, []int{64, 32}, out, stats.NewRNG(seed))
}

func (w rlWork) shape(in int) []int {
	if w.raw {
		return []int{1, rawSide, rawSide}
	}
	return []int{in}
}

// rlLoop is the Fig. 2 annotated game loop over one runtime.
type rlLoop struct {
	subj     *bench.RLSubject
	encode   func(env.Env) []float64
	game     env.Env
	rt       *core.Runtime
	pend     float64
	epSteps  int
	episodes int

	// The transition stream the DQN saw, kept for the fresh-agent
	// replay of the traced run (nil when untraced).
	record   bool
	stream   []rl.Transition
	prev     []float64
	prevAct  int
	havePrev bool
}

func newLoop(w rlWork, seed uint64, record bool) (*rlLoop, error) {
	subj := bench.FlappySubject()
	l := &rlLoop{
		subj: subj, encode: w.encode(subj), game: subj.NewEnv(seed),
		rt:     core.NewRuntimeWith(core.Train, core.WithSeed(seed), core.WithMetrics(nil), core.WithLogger(quiet)),
		record: record,
	}
	if err := l.rt.ConfigCtx(bg, w.spec()); err != nil {
		return nil, err
	}
	l.game.Reset()
	if err := l.rt.CheckpointCtx(bg, l.game, 1<<20); err != nil {
		return nil, err
	}
	for i := 0; i < warmupFrames; i++ {
		if err := l.frame(nil, int64(i)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// nnrl makes one au_NN call and mirrors the runtime's transition
// bookkeeping for the recorded stream.
func (l *rlLoop) nnrl(state []float64, reward float64, terminal bool) error {
	err := l.rt.NNRLCtx(bg, modelName, "STATE", reward, terminal, "output")
	if l.record && l.havePrev {
		l.stream = append(l.stream, rl.Transition{State: l.prev, Action: l.prevAct, Reward: reward, NextState: state, Terminal: terminal})
	}
	if terminal {
		l.havePrev = false
	}
	return err
}

// frame runs one annotated Train frame: encode, au_extract, au_NN (the
// DQN observes and learns), au_write_back, step, and at an episode's end
// the closing au_NN and au_restore.
func (l *rlLoop) frame(rec *recorder, req int64) error {
	root := rec.begin("frame.train", -1, req)
	defer rec.end(root)
	sp := rec.begin("games.encode", root, req)
	state := l.encode(l.game)
	sp = rec.next(sp, "core.extract")
	err := l.rt.ExtractCtx(bg, "STATE", state...)
	if err != nil {
		return err
	}
	sp = rec.next(sp, "core.nnrl")
	err = l.nnrl(state, l.pend, false)
	if err != nil {
		return err
	}
	sp = rec.next(sp, "core.writeback")
	action, err := l.rt.WriteBackActionCtx(bg, "output")
	if err != nil {
		return err
	}
	l.prev, l.prevAct, l.havePrev = state, action, true
	sp = rec.next(sp, "games.step")
	reward, term := l.game.Step(action)
	rec.end(sp)
	l.pend = reward
	l.epSteps++
	if !term && l.epSteps < l.subj.MaxEpisodeSteps {
		return nil
	}
	sp = rec.begin("games.encode", root, req)
	state = l.encode(l.game)
	sp = rec.next(sp, "core.extract")
	err = l.rt.ExtractCtx(bg, "STATE", state...)
	if err != nil {
		return err
	}
	sp = rec.next(sp, "core.nnrl")
	err = l.nnrl(state, reward, true)
	if err != nil {
		return err
	}
	sp = rec.next(sp, "core.restore")
	err = l.rt.RestoreCtx(bg, l.game)
	rec.end(sp)
	l.pend, l.epSteps = 0, 0
	l.episodes++
	return err
}

// compileSaved compiles a SaveModel image with nn.Compile. The image is
// the two uint32 sizes core.SavedModelSizes decodes, then the
// network's MarshalParams bytes.
func (w rlWork) compileSaved(data []byte) (*nn.Plan, error) {
	in, out, err := core.SavedModelSizes(data)
	if err != nil {
		return nil, err
	}
	net := w.newNet(in, out, 1)
	if err := net.UnmarshalParams(data[8:]); err != nil {
		return nil, err
	}
	return nn.Compile(net, w.shape(in)...)
}

// rlPass is one pass over the workload's fixed work.
type rlPass struct {
	setup        setups
	train, infer dist
	rates        []float64 // Train frames per second, one per round
	reload       []float64
	loop         *rlLoop
	plan         *nn.Plan
	states       [][]float64 // sampled Test-phase inputs, for layer timings
	spans        []span
	bad          int // Test frames that did not match their compiled plan
	heap         float64
	dqnSteps     int
	// Frame times as measured, beside train and infer, which hold them
	// rescaled by the probe (calib.go).
	trainRaw, inferRaw dist
	probe              *probe
}

// pass runs scale times the workload's fixed work in rounds. Each round
// repeats the set-up (setupsPerRound(nSetups) times, discarding the
// result), trains, publishes the model to a fresh Test-mode runtime a few
// times, and plays greedy Test frames on the last one. Interleaving the
// phases spreads every metric's samples over the whole run, so host
// noise that comes and goes over seconds reaches every metric alike.
func (w rlWork) pass(o opts, traced bool, nSetups int, scale float64) (*rlPass, error) {
	p := &rlPass{}
	setup := func(i int) (*rlLoop, error) {
		start := setupStart(i)
		l, err := newLoop(w, o.seed, traced)
		if err == nil {
			p.setup.add(time.Since(start))
		}
		return l, err
	}
	var err error
	if p.loop, err = setup(0); err != nil {
		return nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
	}
	l := p.loop
	game := l.subj.NewEnv(o.seed)
	trainPerRound := (max(minTimed, int(scale*float64(w.trainPerSec*o.seconds))) + rounds - 1) / rounds
	inferPerRound := (max(minTimed, int(scale*float64(w.inferPerSec*o.seconds))) + rounds - 1) / rounds
	frame := int64(0)
	pr := newProbe(probeEvery)
	p.probe = pr
	for r := 0; r < rounds; r++ {
		for i := 0; i < setupsPerRound(nSetups); i++ {
			if _, err := setup(1); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the discarded set-ups' garbage
		t0 := time.Now()
		for i := 0; i < trainPerRound; i++ {
			s := time.Now()
			if err := l.frame(rec, frame); err != nil {
				return nil, err
			}
			d := time.Since(s)
			p.trainRaw.addDur(d)
			p.train.addDur(pr.norm(d))
			pr.after(d)
			frame++
		}
		p.rates = append(p.rates, float64(trainPerRound)/time.Since(t0).Seconds())

		var test *core.Runtime
		var data []byte
		runtime.GC() // as before the serving reloads
		for i := 0; i < publishesPerRound; i++ {
			s := time.Now()
			var err error
			if test, data, err = w.publish(l.rt, o.seed); err != nil {
				return nil, err
			}
			p.reload = append(p.reload, float64(time.Since(s))/float64(time.Millisecond))
		}
		var err error
		if p.plan, err = w.compileSaved(data); err != nil {
			return nil, err
		}
		inst := p.plan.NewInstance()
		want := make([]float64, p.plan.OutSize())
		for i := 0; i < inferPerRound; i++ {
			s := time.Now()
			root := rec.begin("frame.infer", -1, frame)
			sp := rec.begin("games.encode", root, frame)
			state := l.encode(game)
			sp = rec.next(sp, "core.predict")
			out, err := test.PredictCtx(bg, modelName, state)
			if err != nil {
				return nil, err
			}
			action := stats.ArgMax(out)
			sp = rec.next(sp, "games.step")
			if _, term := game.Step(action); term {
				game.Reset()
			}
			rec.end(sp)
			rec.end(root)
			d := time.Since(s)
			p.inferRaw.addDur(d)
			p.infer.addDur(pr.norm(d))
			pr.after(d)
			frame++
			if i%checkEvery == 0 {
				if !sameBits(out, inst.PredictInto(want, state)) {
					p.bad++
				}
				if len(p.states) < 64 {
					p.states = append(p.states, state)
				}
			}
		}
	}
	if stt, ok := l.rt.RLStats(modelName); ok {
		p.dqnSteps = stt.Steps
	}
	p.heap = heapMB()
	if rec != nil {
		p.spans = rec.spans
	}
	return p, nil
}

// publish deploys the loop's current model the way a TS-mode program
// loads it: SaveModel, a fresh Test-mode runtime, au_config, compile.
func (w rlWork) publish(rt *core.Runtime, seed uint64) (*core.Runtime, []byte, error) {
	data, err := rt.SaveModel(modelName)
	if err != nil {
		return nil, nil, err
	}
	test := core.NewRuntimeWith(core.Test, core.WithSeed(seed), core.WithMetrics(nil), core.WithLogger(quiet))
	test.LoadModel(modelName, data)
	if err := test.ConfigCtx(bg, w.spec()); err != nil {
		return nil, nil, err
	}
	return test, data, test.CompileModel(modelName)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runRL(w rlWork, o opts) (*result, error) {
	p, err := w.pass(o, false, rlSetups, passScale(o))
	if err != nil {
		return nil, err
	}
	r := newResult()
	p.setup.report(r)
	r.timing("predict_us", &p.infer)
	r.timing("mixed_us", &p.train)
	r.e2e["predict_raw_us_p50"] = p.inferRaw.p50()
	r.e2e["mixed_raw_us_p50"] = p.trainRaw.p50()
	r.detail["predict_raw_us_p50"] = fmt.Sprintf("n=%d", p.inferRaw.n())
	r.detail["mixed_raw_us_p50"] = fmt.Sprintf("n=%d", p.trainRaw.n())
	r.e2e["ops_per_s"] = medianOf(p.rates)
	r.detail["ops_per_s"] = fmt.Sprintf("rounds=%d", len(p.rates))
	r.e2e["reload_ms"] = medianOf(p.reload)
	r.detail["reload_ms"] = fmt.Sprintf("n=%d", len(p.reload))
	r.e2e["heap_mb"] = p.heap
	r.attempted = p.train.n() + p.infer.n()
	r.mismatch = p.bad
	r.failed = p.bad
	data, err := p.loop.rt.SaveModel(modelName)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	r.sha = hex.EncodeToString(sum[:])
	if !o.trace {
		return r, nil
	}

	// The traced pass repeats the same work with spans on; its sha must
	// match, or tracing changed what the program computed.
	t, err := w.pass(o, true, 1, passScale(o))
	if err != nil {
		return nil, err
	}
	tdata, err := t.loop.rt.SaveModel(modelName)
	if err != nil {
		return nil, err
	}
	if tsum := sha256.Sum256(tdata); tsum != sum {
		r.mismatch++
		r.failed++
	}
	r.attempted += t.train.n() + t.infer.n()
	r.mismatch += t.bad
	r.failed += t.bad
	L := r.layer
	L["host.probe_us"] = p.probe.all.p50()
	L["core.extract_us"] = durations(t.spans, "core.extract").p50()
	nnrl := durations(t.spans, "core.nnrl")
	L["core.nnrl_us_p50"] = nnrl.p50()
	_, L["core.nnrl_us_p99"] = nnrl.tail()
	L["core.writeback_us"] = durations(t.spans, "core.writeback").p50()
	L["core.restore_us"] = durations(t.spans, "core.restore").p50()
	L["core.predict_us"] = durations(t.spans, "core.predict").p50()
	L["games.step_us"] = durations(t.spans, "games.step").p50()
	L["games.encode_us"] = durations(t.spans, "games.encode").p50()
	L["trace.train_coverage_pct"] = 100 * coverage(t.spans, "frame.train")
	L["trace.infer_coverage_pct"] = 100 * coverage(t.spans, "frame.infer")
	L["trace.predict_overhead_us"] = t.infer.p50() - p.infer.p50()
	L["trace.mixed_overhead_us"] = t.train.p50() - p.train.p50()
	L["count.frames"] = float64(t.train.n() + t.infer.n())
	L["count.episodes"] = float64(t.loop.episodes)
	L["count.dqn_steps"] = float64(t.dqnSteps)
	r.table = selfTimes(t.spans)

	L["rl.act_us"], L["rl.observe_us"] = w.agentReplay(t.loop.stream, o.seed)
	L["nn.forward_backward_us"] = w.forwardBackward(t.states, o.seed)
	L["nn.plan_predict_us"] = planPredict(t.plan, t.states, 20*w.fwdBwdReps)
	if w.raw {
		L["tensor.conv_fwd_us"], L["tensor.conv_bwd_us"] = w.convKernels(o.seed)
	}
	return r, nil
}

// agentReplay feeds the recorded transition stream to a fresh rl.Agent
// of the same architecture and returns the median Act and Observe
// times. The first warmupFrames transitions only fill the replay buffer
// and are not timed.
func (w rlWork) agentReplay(stream []rl.Transition, seed uint64) (act, observe float64) {
	if len(stream) == 0 {
		return 0, 0
	}
	in := len(stream[0].State)
	s := w.spec()
	cfg := rl.Config{
		Gamma: s.Gamma, EpsilonDecaySteps: s.EpsilonDecaySteps, ReplayCapacity: s.ReplayCapacity,
		TargetSyncEvery: s.TargetSyncEvery, LearnEvery: s.LearnEvery, LR: s.LR, StateShape: s.InputShape,
	}
	agent := rl.NewAgent(w.newNet(in, s.Actions, seed), w.newNet(in, s.Actions, seed+1), s.Actions, cfg, stats.NewRNG(seed))
	var a, ob dist
	for i, tr := range stream {
		if i >= warmupFrames+w.agentFrames {
			break
		}
		if i < warmupFrames {
			agent.Observe(tr)
			continue
		}
		s := time.Now()
		agent.Observe(tr)
		ob.addDur(time.Since(s))
		s = time.Now()
		agent.Act(tr.NextState, false)
		a.addDur(time.Since(s))
	}
	return a.p50(), ob.p50()
}

// forwardBackward times one example through Network.Forward and
// Backward, the unit the DQN update repeats per replayed transition.
func (w rlWork) forwardBackward(states [][]float64, seed uint64) float64 {
	in := len(states[0])
	net := w.newNet(in, w.spec().Actions, seed)
	x := make([]*tensor.Tensor, len(states))
	for i, s := range states {
		x[i] = tensor.FromSlice(append([]float64(nil), s...), w.shape(in)...)
	}
	g := tensor.New(net.Forward(x[0]).Shape()...)
	g.Fill(1)
	var d dist
	for i := 0; i < w.fwdBwdReps; i++ {
		s := time.Now()
		net.Forward(x[i%len(x)])
		net.Backward(g)
		d.addDur(time.Since(s))
	}
	return d.p50()
}

// planPredict times Plan.PredictInto on the given inputs.
func planPredict(plan *nn.Plan, states [][]float64, reps int) float64 {
	inst := plan.NewInstance()
	out := make([]float64, plan.OutSize())
	var d dist
	for i := 0; i < reps; i++ {
		s := time.Now()
		inst.PredictInto(out, states[i%len(states)])
		d.addDur(time.Since(s))
	}
	return d.p50()
}

// convKernels times ConvKernel Forward and Backward at the Raw CNN's
// three layer geometries (nn.NewDeepMindCNN over 1x16x16), summing the
// per-layer medians.
func (w rlWork) convKernels(seed uint64) (fwd, bwd float64) {
	geoms := []tensor.ConvGeom{
		tensor.NewConvGeom(1, 16, 16, 5, 5, 2, 2, 8),
		tensor.NewConvGeom(8, 4, 4, 3, 3, 1, 1, 16),
		tensor.NewConvGeom(16, 2, 2, 3, 3, 1, 1, 16),
	}
	rng := stats.NewRNG(seed)
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Range(-1, 1)
		}
		return v
	}
	for _, g := range geoms {
		ck := tensor.NewConvKernel(g)
		in, wt := fill(g.InC*g.InH*g.InW), fill(g.OutC*g.K())
		out, gout := make([]float64, g.OutC*g.Cols()), fill(g.OutC*g.Cols())
		gradW, gradIn := make([]float64, g.OutC*g.K()), make([]float64, len(in))
		var f, b dist
		for i := 0; i < w.convReps; i++ {
			s := time.Now()
			ck.Forward(out, in, wt)
			f.addDur(time.Since(s))
			s = time.Now()
			ck.Backward(gradW, gradIn, in, wt, gout)
			b.addDur(time.Since(s))
		}
		fwd += f.p50()
		bwd += b.p50()
	}
	return fwd, bwd
}
