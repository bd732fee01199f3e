package rl

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

func TestReplayBufferBasics(t *testing.T) {
	b := NewReplayBuffer(3, stats.NewRNG(1))
	if b.Cap() != 3 || b.Len() != 0 {
		t.Fatalf("fresh buffer len/cap = %d/%d", b.Len(), b.Cap())
	}
	for i := 0; i < 5; i++ {
		b.Add(Transition{State: []float64{float64(i)}, Action: i})
	}
	if b.Len() != 3 {
		t.Fatalf("Len after overflow = %d, want 3", b.Len())
	}
	// Oldest entries (0, 1) must have been evicted.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		for _, tr := range b.Sample(nil, 1) {
			seen[tr.Action] = true
		}
	}
	if seen[0] || seen[1] {
		t.Errorf("evicted transitions still sampled: %v", seen)
	}
	if !seen[2] || !seen[3] || !seen[4] {
		t.Errorf("recent transitions missing from samples: %v", seen)
	}
}

func TestReplayBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewReplayBuffer(0, stats.NewRNG(1))
}

func TestReplaySampleEmptyPanics(t *testing.T) {
	b := NewReplayBuffer(2, stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Error("sampling empty buffer did not panic")
		}
	}()
	b.Sample(nil, 1)
}

func TestReplayBufferNeverExceedsCap(t *testing.T) {
	prop := func(n uint8) bool {
		b := NewReplayBuffer(7, stats.NewRNG(uint64(n)+1))
		for i := 0; i < int(n); i++ {
			b.Add(Transition{})
		}
		return b.Len() <= 7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTraceBytes(t *testing.T) {
	b := NewReplayBuffer(10, stats.NewRNG(1))
	b.Add(Transition{State: make([]float64, 4), NextState: make([]float64, 4)})
	if got := b.TraceBytes(); got != 8*8+24 {
		t.Errorf("TraceBytes = %d, want %d", got, 8*8+24)
	}
	// Raw-pixel states must dominate internal-state traces, the Table 2
	// relationship.
	raw := NewReplayBuffer(10, stats.NewRNG(1))
	raw.Add(Transition{State: make([]float64, 84*84), NextState: make([]float64, 84*84)})
	if raw.TraceBytes() <= b.TraceBytes() {
		t.Error("raw trace not larger than internal-state trace")
	}
}

func TestEpsilonSchedule(t *testing.T) {
	rng := stats.NewRNG(2)
	online := nn.NewDNN(2, []int{4}, 2, rng)
	targetNet := nn.NewDNN(2, []int{4}, 2, rng)
	a := NewAgent(online, targetNet, 2, Config{EpsilonDecaySteps: 10, WarmupSteps: 1000}, rng)
	if e := a.Epsilon(); e != 1.0 {
		t.Errorf("initial epsilon = %v, want 1.0", e)
	}
	for i := 0; i < 20; i++ {
		a.Observe(Transition{State: []float64{0, 0}, NextState: []float64{0, 0}})
	}
	if e := a.Epsilon(); e < 0.05-1e-9 || e > 0.05+1e-9 {
		t.Errorf("final epsilon = %v, want 0.05", e)
	}
	if a.Steps() != 20 {
		t.Errorf("Steps = %d, want 20", a.Steps())
	}
}

func TestGreedyActIsArgmax(t *testing.T) {
	rng := stats.NewRNG(3)
	online := nn.NewDNN(2, nil, 3, rng)
	targetNet := nn.NewDNN(2, nil, 3, rng)
	a := NewAgent(online, targetNet, 3, Config{}, rng)
	s := []float64{1, -1}
	q := a.QValues(s)
	want := stats.ArgMax(q)
	for i := 0; i < 10; i++ {
		if got := a.Act(s, true); got != want {
			t.Fatalf("greedy Act = %d, want argmax %d", got, want)
		}
	}
}

func TestTargetNetworkSyncedAtConstruction(t *testing.T) {
	rng := stats.NewRNG(4)
	online := nn.NewDNN(2, []int{4}, 2, stats.NewRNG(5))
	targetNet := nn.NewDNN(2, []int{4}, 2, stats.NewRNG(6)) // different init
	a := NewAgent(online, targetNet, 2, Config{}, rng)
	s := []float64{0.5, -0.5}
	qo := a.online.Predict(s)
	qt := a.target.Predict(s)
	for i := range qo {
		if qo[i] != qt[i] {
			t.Fatal("target network not synced with online at construction")
		}
	}
}

// TestAgentSolvesChainMDP trains the agent on a tiny deterministic chain
// MDP where moving right always pays off; the learned greedy policy must
// prefer "right" in every state. This is the end-to-end check that the
// replay + target-network + Adam pipeline actually learns.
func TestAgentSolvesChainMDP(t *testing.T) {
	const chainLen = 5
	rng := stats.NewRNG(7)
	encode := func(pos int) []float64 {
		s := make([]float64, chainLen)
		s[pos] = 1
		return s
	}
	online := nn.NewDNN(chainLen, []int{16}, 2, rng.Split())
	targetNet := nn.NewDNN(chainLen, []int{16}, 2, rng.Split())
	a := NewAgent(online, targetNet, 2, Config{
		EpsilonDecaySteps: 1500,
		WarmupSteps:       64,
		BatchSize:         16,
		TargetSyncEvery:   50,
		LR:                5e-3,
	}, rng.Split())

	pos := 0
	for step := 0; step < 4000; step++ {
		s := encode(pos)
		act := a.Act(s, false)
		next := pos
		reward := -0.1
		terminal := false
		if act == 1 { // right
			next = pos + 1
			if next == chainLen-1 {
				reward = 10
				terminal = true
			}
		} else if pos > 0 { // left
			next = pos - 1
		}
		a.Observe(Transition{State: s, Action: act, Reward: reward, NextState: encode(next), Terminal: terminal})
		if terminal {
			pos = 0
		} else {
			pos = next
		}
	}
	for p := 0; p < chainLen-1; p++ {
		if got := a.Act(encode(p), true); got != 1 {
			t.Errorf("greedy policy at pos %d = %d, want 1 (right)", p, got)
		}
	}
}

func TestObserveReturnsZeroDuringWarmup(t *testing.T) {
	rng := stats.NewRNG(8)
	online := nn.NewDNN(1, nil, 2, rng)
	targetNet := nn.NewDNN(1, nil, 2, rng)
	a := NewAgent(online, targetNet, 2, Config{WarmupSteps: 50}, rng)
	for i := 0; i < 49; i++ {
		if loss := a.Observe(Transition{State: []float64{0}, NextState: []float64{0}}); loss != 0 {
			t.Fatalf("training ran during warmup at step %d", i)
		}
	}
}

func TestNewAgentPanicsOnBadActions(t *testing.T) {
	rng := stats.NewRNG(9)
	defer func() {
		if recover() == nil {
			t.Error("zero actions did not panic")
		}
	}()
	n := nn.NewDNN(1, nil, 1, rng)
	NewAgent(n, nn.NewDNN(1, nil, 1, rng), 0, Config{}, rng)
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Gamma != 0.97 || c.BatchSize != 32 || c.ReplayCapacity != 10000 ||
		c.TargetSyncEvery != 250 || c.LearnEvery != 1 || c.WarmupSteps != 100 ||
		c.LR != 1e-3 || c.EpsilonStart != 1.0 || c.EpsilonEnd != 0.05 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

// TestDoubleDQNSolvesChain repeats the chain-MDP check with double
// Q-learning enabled: the decoupled action selection must not break
// convergence.
func TestDoubleDQNSolvesChain(t *testing.T) {
	const chainLen = 5
	rng := stats.NewRNG(70)
	encode := func(pos int) []float64 {
		s := make([]float64, chainLen)
		s[pos] = 1
		return s
	}
	online := nn.NewDNN(chainLen, []int{16}, 2, rng.Split())
	targetNet := nn.NewDNN(chainLen, []int{16}, 2, rng.Split())
	a := NewAgent(online, targetNet, 2, Config{
		EpsilonDecaySteps: 1500,
		WarmupSteps:       64,
		BatchSize:         16,
		TargetSyncEvery:   50,
		LR:                5e-3,
		DoubleDQN:         true,
	}, rng.Split())

	pos := 0
	for step := 0; step < 4000; step++ {
		s := encode(pos)
		act := a.Act(s, false)
		next := pos
		reward := -0.1
		terminal := false
		if act == 1 {
			next = pos + 1
			if next == chainLen-1 {
				reward = 10
				terminal = true
			}
		} else if pos > 0 {
			next = pos - 1
		}
		a.Observe(Transition{State: s, Action: act, Reward: reward, NextState: encode(next), Terminal: terminal})
		if terminal {
			pos = 0
		} else {
			pos = next
		}
	}
	for p := 0; p < chainLen-1; p++ {
		if got := a.Act(encode(p), true); got != 1 {
			t.Errorf("double-DQN greedy policy at pos %d = %d, want 1", p, got)
		}
	}
}

// TestObserveRejectsMismatchedNextState: a non-terminal transition's
// next state is bootstrapped through the target network, so one whose
// width differs from the state's must fail the update instead of being
// truncated or zero-padded into a wrong TD target. A terminal
// transition's next state is never read, so a missing one still trains.
func TestObserveRejectsMismatchedNextState(t *testing.T) {
	newAgent := func() *Agent {
		rng := stats.NewRNG(11)
		return NewAgent(nn.NewDNN(2, []int{3}, 2, rng.Split()), nn.NewDNN(2, []int{3}, 2, rng.Split()), 2,
			Config{BatchSize: 1, WarmupSteps: 1, ReplayCapacity: 4}, rng.Split())
	}
	if loss := newAgent().Observe(Transition{State: []float64{1, 2}, Reward: 1, Terminal: true}); loss == 0 {
		t.Error("terminal transition without a next state did not train")
	}
	for _, next := range [][]float64{{1}, {1, 2, 3}, nil} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "next state has") {
					t.Errorf("next state %v: recovered %v, want a next-state width failure", next, r)
				}
			}()
			newAgent().Observe(Transition{State: []float64{1, 2}, NextState: next, Reward: 1})
		}()
	}
}
