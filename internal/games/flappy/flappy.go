// Package flappy implements the Flappy-bird subject: a bird under
// gravity flaps through a course of pipe gaps. The paper's score for
// this game is "how far the bird flies in terms of the percentage of
// the whole distance".
//
// Internal state variables include the bird's kinematics and the next
// pipes' geometry — the high-level information a raw-pixel model would
// have to rediscover through convolution layers.
package flappy

import (
	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Action space.
const (
	// ActNoop lets gravity act.
	ActNoop = 0
	// ActFlap applies upward impulse.
	ActFlap = 1
)

// World constants.
const (
	worldH     = 48.0
	courseLen  = 400.0
	pipeGap    = 14.0
	pipeEvery  = 40.0
	gravity    = 0.35
	flapImp    = -2.4
	forwardVel = 1.0
	birdX      = 10.0 // screen-relative bird column
)

// Game is one Flappy-bird instance.
type Game struct {
	rng *stats.RNG

	// state holds everything Snapshot copies.
	state gameState
	// pipes is the fixed course layout (gap centers by pipe index),
	// regenerated per Reset from the seeded RNG.
	pipes []float64
}

type gameState struct {
	X, Y, VY  float64
	Dead      bool
	Finished  bool
	Steps     int
	FlapCount int
}

// New creates a game with a deterministic course from seed. The course
// is fixed for the game's lifetime — like the paper's stages, every
// episode replays the same layout, which is also what au_checkpoint/
// au_restore training assumes.
func New(seed uint64) *Game {
	g := &Game{rng: stats.NewRNG(seed)}
	n := int(courseLen/pipeEvery) + 1
	g.pipes = make([]float64, n)
	for i := range g.pipes {
		g.pipes[i] = g.rng.Range(pipeGap, worldH-pipeGap)
	}
	g.Reset()
	return g
}

// Reset implements env.Env: the bird respawns, the course stays.
func (g *Game) Reset() {
	g.state = gameState{Y: worldH / 2}
}

// NumActions implements env.Env.
func (g *Game) NumActions() int { return 2 }

// Step implements env.Env.
func (g *Game) Step(action int) (float64, bool) {
	if g.state.Dead || g.state.Finished {
		return 0, true
	}
	g.state.Steps++
	if action == ActFlap {
		g.state.VY = flapImp
		g.state.FlapCount++
	}
	g.state.VY += gravity
	g.state.Y += g.state.VY
	g.state.X += forwardVel

	// Ceiling/ground kill.
	if g.state.Y < 0 || g.state.Y > worldH {
		g.state.Dead = true
		return -10, true
	}
	// Pipe collision: at pipe columns the bird must be inside the gap.
	pi := g.pipeIndex(g.state.X)
	if pi >= 0 {
		center := g.pipes[pi]
		if g.state.Y < center-pipeGap/2 || g.state.Y > center+pipeGap/2 {
			g.state.Dead = true
			return -10, true
		}
	}
	if g.state.X >= courseLen {
		g.state.Finished = true
		return 10, true
	}
	return 0.5, false
}

// pipeIndex returns the pipe whose 2-unit-wide column contains x, or -1.
func (g *Game) pipeIndex(x float64) int {
	i := int(x / pipeEvery)
	col := float64(float64(i) * pipeEvery)
	if i >= 1 && i-1 < len(g.pipes) && x >= col-1 && x <= col+1 {
		return i - 1
	}
	return -1
}

// nextPipe returns the index and distance of the first pipe column at or
// ahead of x.
func (g *Game) nextPipe() (idx int, dist float64) {
	i := int(g.state.X/pipeEvery) + 1
	if i-1 >= len(g.pipes) {
		return len(g.pipes) - 1, courseLen - g.state.X
	}
	return i - 1, float64(float64(i)*pipeEvery) - g.state.X
}

// StateVars implements env.Env. Besides the informative variables it
// exposes the same kinds of redundant (scaled duplicates) and constant
// variables a real program carries, giving Algorithm 2's pruning real
// work (Table 1 reports 19 candidates pruned to 4 for Flappybird).
func (g *Game) StateVars() map[string]float64 {
	pi, dist := g.nextPipe()
	gapY := g.pipes[pi]
	next2 := gapY
	if pi+1 < len(g.pipes) {
		next2 = g.pipes[pi+1]
	}
	return map[string]float64{
		"birdY":      g.state.Y,
		"birdVY":     g.state.VY,
		"pipeDist":   dist,
		"gapY":       gapY,
		"gapDelta":   gapY - g.state.Y,
		"nextGapY":   next2,
		"birdX":      g.state.X,
		"progress":   g.state.X / courseLen,
		"steps":      float64(g.state.Steps),
		"flapCount":  float64(g.state.FlapCount),
		"screenY":    g.state.Y * 2, // redundant: scaled birdY
		"pipeDistPx": dist * 2,      // redundant: scaled pipeDist
		"gravity":    gravity,       // constant
		"worldH":     worldH,        // constant
		"flapImp":    flapImp,       // constant
		"gapHalf":    pipeGap / 2,   // constant
		"deadFlag":   bool2f(g.state.Dead),
		"doneFlag":   bool2f(g.state.Finished),
		"velAbs":     abs(g.state.VY),
	}
}

func bool2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Screen implements env.Env: a 64×64 side view around the bird.
func (g *Game) Screen() *imaging.Image {
	img := imaging.NewImage(64, 64)
	scaleY := 64.0 / worldH
	// Pipes within the visible 64-unit window ahead of the bird.
	for i, center := range g.pipes {
		col := float64(float64(i+1) * pipeEvery)
		sx := int(col - g.state.X + birdX)
		if sx < 0 || sx >= 64 {
			continue
		}
		top := int((center - pipeGap/2) * scaleY)
		bot := int((center + pipeGap/2) * scaleY)
		for y := 0; y < 64; y++ {
			if y < top || y > bot {
				img.Set(sx, y, 180)
				img.Set(sx+1, y, 180)
			}
		}
	}
	// Bird.
	by := int(g.state.Y * scaleY)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			img.Set(int(birdX)+dx, by+dy, 255)
		}
	}
	return img
}

// Score implements env.Env: distance fraction of the whole course.
func (g *Game) Score() float64 {
	s := g.state.X / courseLen
	if s > 1 {
		s = 1
	}
	return s
}

// Success implements env.Env.
func (g *Game) Success() bool { return g.state.Finished }

// Snapshot implements env.Env (σ for au_checkpoint). The course layout
// is part of the episode state.
func (g *Game) Snapshot() any {
	return snapshot{state: g.state, pipes: append([]float64(nil), g.pipes...)}
}

// Restore implements env.Env.
func (g *Game) Restore(s any) {
	snap := s.(snapshot)
	g.state = snap.state
	g.pipes = append([]float64(nil), snap.pipes...)
}

type snapshot struct {
	state gameState
	pipes []float64
}

// FeatureVarNames is the post-Algorithm-2 feature set (Table 1: 4
// feature variables for Flappybird).
func FeatureVarNames() []string {
	return []string{"birdY", "birdVY", "pipeDist", "gapDelta"}
}

// TargetVars returns the annotated target variables (Table 1: 2 — the
// action key and the flap impulse selector share the action output in
// our port, so we report the action plus the flap strength).
func TargetVars() []string { return []string{"actionKey", "flapKey"} }

// DepGraph returns the dynamic dependence graph of the game's update
// loop, for Table 1 and Algorithm 2.
func DepGraph() *dep.Graph {
	g := dep.NewGraph()
	g.Def("birdVY", "birdVY", "actionKey", "flapKey")
	g.Def("birdY", "birdY", "birdVY")
	g.Def("birdX", "birdX")
	g.Def("progress", "birdX")
	g.Def("pipeDist", "birdX", "pipeIdx")
	g.Def("pipeIdx", "birdX")
	g.Def("gapY", "pipeIdx")
	g.Def("nextGapY", "pipeIdx")
	g.Def("gapDelta", "gapY", "birdY")
	g.Def("screenY", "birdY")
	g.Def("pipeDistPx", "pipeDist")
	g.Def("velAbs", "birdVY")
	g.Def("collide", "birdY", "gapY", "pipeDist")
	g.Def("deadFlag", "collide")
	g.Def("doneFlag", "progress")
	g.Def("reward", "deadFlag", "doneFlag", "progress")
	g.Def("steps", "steps")
	g.Def("flapCount", "flapCount", "actionKey")
	for _, v := range []string{"birdY", "birdVY", "pipeDist", "gapY", "gapDelta", "nextGapY",
		"screenY", "pipeDistPx", "velAbs", "collide", "deadFlag", "doneFlag", "reward",
		"actionKey", "flapKey", "steps", "flapCount", "progress", "birdX", "pipeIdx",
		"gravity", "worldH", "flapImp", "gapHalf"} {
		g.Use("gameLoop", v)
	}
	// Rendering consumes the duplicates and constants.
	g.Def("screen", "screenY", "pipeDistPx", "gapY", "worldH", "gravity", "flapImp", "gapHalf")
	g.Use("gameLoop", "screen")
	return g
}

// ScriptedPlayer is the reference controller standing in for the
// paper's human players: flap when below the gap center and falling
// toward danger.
func ScriptedPlayer(e env.Env) int {
	vars := e.StateVars()
	if vars["birdY"] > vars["gapY"]+1 || (vars["birdVY"] > 2 && vars["birdY"] > vars["gapY"]-3) {
		return ActFlap
	}
	return ActNoop
}
