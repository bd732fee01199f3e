// Package breakout implements the Atari-style Breakout subject (the
// paper evaluates on the Stella emulator; here the game itself is the
// substrate). A paddle deflects a ball into a wall of bricks; the
// paper's score for this game is "the number of hit bricks before
// missing the ball" — note it is the one benchmark where the Raw
// (DeepMind) model also trains within budget, because the playing field
// is simple.
package breakout

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Actions.
const (
	ActStay = iota
	ActLeft
	ActRight
	numActions
)

// Field geometry.
const (
	fieldW    = 32.0
	fieldH    = 40.0
	paddleW   = 5.0
	paddleY   = 37.0
	brickRows = 4
	brickCols = 8
	brickW    = fieldW / brickCols
	brickH    = 1.5
	brickTop  = 4.0
	ballSpeed = 0.8
	paddleVel = 0.9
)

// Game is one Breakout instance.
type Game struct {
	rng   *stats.RNG
	state gameState
}

type gameState struct {
	PaddleX      float64
	BallX, BallY float64
	VX, VY       float64
	Bricks       [brickRows * brickCols]bool
	Hit          int
	Missed       bool
	Steps        int
}

// New creates a game; the serve angle varies with the seeded RNG.
func New(seed uint64) *Game {
	g := &Game{rng: stats.NewRNG(seed)}
	g.Reset()
	return g
}

// Reset implements env.Env.
func (g *Game) Reset() {
	g.state = gameState{
		PaddleX: fieldW / 2,
		BallX:   fieldW / 2,
		BallY:   paddleY - 6,
	}
	angle := g.rng.Range(-0.6, 0.6)
	g.state.VX = ballSpeed * math.Sin(angle)
	g.state.VY = -ballSpeed * math.Cos(angle)
	for i := range g.state.Bricks {
		g.state.Bricks[i] = true
	}
}

// NumActions implements env.Env.
func (g *Game) NumActions() int { return numActions }

// Step implements env.Env.
func (g *Game) Step(action int) (float64, bool) {
	if g.state.Missed || g.state.Hit == len(g.state.Bricks) {
		return 0, true
	}
	g.state.Steps++
	switch action {
	case ActLeft:
		g.state.PaddleX -= paddleVel
	case ActRight:
		g.state.PaddleX += paddleVel
	}
	g.state.PaddleX = stats.Clamp(g.state.PaddleX, paddleW/2, fieldW-paddleW/2)

	g.state.BallX += g.state.VX
	g.state.BallY += g.state.VY

	// Side and top walls.
	if g.state.BallX < 0 {
		g.state.BallX = -g.state.BallX
		g.state.VX = -g.state.VX
	}
	if g.state.BallX > fieldW {
		g.state.BallX = 2*fieldW - g.state.BallX
		g.state.VX = -g.state.VX
	}
	if g.state.BallY < 0 {
		g.state.BallY = -g.state.BallY
		g.state.VY = -g.state.VY
	}

	reward := 0.05 // staying alive

	// Brick collision.
	if g.state.BallY >= brickTop && g.state.BallY < brickTop+brickRows*brickH {
		row := int((g.state.BallY - brickTop) / brickH)
		col := int(g.state.BallX / brickW)
		if col >= 0 && col < brickCols && row >= 0 && row < brickRows {
			idx := row*brickCols + col
			if g.state.Bricks[idx] {
				g.state.Bricks[idx] = false
				g.state.Hit++
				g.state.VY = -g.state.VY
				reward = 1
				if g.state.Hit == len(g.state.Bricks) {
					return reward + 10, true
				}
			}
		}
	}

	// Paddle bounce: deflection angle depends on where the ball lands
	// on the paddle, giving the agent aiming control.
	if g.state.VY > 0 && g.state.BallY >= paddleY && g.state.BallY <= paddleY+1 {
		dx := g.state.BallX - g.state.PaddleX
		if math.Abs(dx) <= paddleW/2+0.5 {
			angle := (dx / (paddleW / 2)) * 1.0 // radians from vertical
			g.state.VX = ballSpeed * math.Sin(angle)
			g.state.VY = -ballSpeed * math.Cos(angle)
			g.state.BallY = paddleY - 0.01
		}
	}

	// Miss.
	if g.state.BallY > fieldH {
		g.state.Missed = true
		return -10, true
	}
	return reward, false
}

// StateVars implements env.Env, with the usual informative variables
// plus duplicates and constants for the pruning algorithms.
func (g *Game) StateVars() map[string]float64 {
	remaining := 0
	for _, b := range g.state.Bricks {
		if b {
			remaining++
		}
	}
	return map[string]float64{
		"paddleX":   g.state.PaddleX,
		"ballX":     g.state.BallX,
		"ballY":     g.state.BallY,
		"ballVX":    g.state.VX,
		"ballVY":    g.state.VY,
		"ballDX":    g.state.BallX - g.state.PaddleX,
		"bricksUp":  float64(remaining),
		"hitCount":  float64(g.state.Hit),
		"steps":     float64(g.state.Steps),
		"paddlePx":  g.state.PaddleX * 2, // duplicate
		"ballXdup":  g.state.BallX,       // duplicate
		"fieldWc":   fieldW,              // constant
		"paddleWc":  paddleW,             // constant
		"ballSpeed": ballSpeed,           // constant
	}
}

// Screen implements env.Env.
func (g *Game) Screen() *imaging.Image {
	img := imaging.NewImage(64, 64)
	sx := 64.0 / fieldW
	sy := 64.0 / fieldH
	for i, alive := range g.state.Bricks {
		if !alive {
			continue
		}
		row, col := i/brickCols, i%brickCols
		x0 := int(float64(float64(col)*brickW) * sx)
		y0 := int((brickTop + float64(float64(row)*brickH)) * sy)
		for y := y0; y < y0+2; y++ {
			for x := x0; x < x0+int(brickW*sx)-1; x++ {
				img.Set(x, y, 160)
			}
		}
	}
	// Paddle.
	py := int(paddleY * sy)
	for x := int((g.state.PaddleX - paddleW/2) * sx); x <= int((g.state.PaddleX+paddleW/2)*sx); x++ {
		img.Set(x, py, 220)
		img.Set(x, py+1, 220)
	}
	// Ball.
	img.Set(int(g.state.BallX*sx), int(g.state.BallY*sy), 255)
	return img
}

// Score implements env.Env: the number of bricks hit (the paper reports
// this unnormalized for Breakout, e.g. "29.8").
func (g *Game) Score() float64 { return float64(g.state.Hit) }

// Success implements env.Env: full clear.
func (g *Game) Success() bool { return g.state.Hit == len(g.state.Bricks) }

// Snapshot implements env.Env.
func (g *Game) Snapshot() any { return g.state }

// Restore implements env.Env.
func (g *Game) Restore(s any) { g.state = s.(gameState) }

// FeatureVarNames is the post-pruning feature set.
func FeatureVarNames() []string {
	return []string{"paddleX", "ballX", "ballY", "ballVX", "ballVY", "ballDX"}
}

// TargetVars returns the annotated targets. The paper annotates the
// emulator for Breakout, exporting the game variables directly.
func TargetVars() []string { return []string{"actionKey"} }

// DepGraph returns the update loop's dependence structure.
func DepGraph() *dep.Graph {
	g := dep.NewGraph()
	g.Def("paddleX", "paddleX", "actionKey")
	g.Def("ballX", "ballX", "ballVX")
	g.Def("ballY", "ballY", "ballVY")
	g.Def("ballVX", "ballVX", "bounce")
	g.Def("ballVY", "ballVY", "bounce")
	g.Def("ballDX", "ballX", "paddleX")
	g.Def("bounce", "ballDX", "ballY")
	g.Def("brickIdx", "ballX", "ballY")
	g.Def("bricksUp", "bricksUp", "brickIdx")
	g.Def("hitCount", "hitCount", "brickIdx")
	g.Def("reward", "hitCount", "bounce")
	g.Def("paddlePx", "paddleX")
	g.Def("ballXdup", "ballX")
	g.Def("steps", "steps")
	// The renderer consumes the scaled duplicates and constants, giving
	// them downstream consumers (candidates for Algorithm 2, then
	// pruning fodder).
	g.Def("screen", "paddlePx", "ballXdup", "ballY", "bricksUp", "fieldWc", "paddleWc", "ballSpeed")
	for _, v := range []string{"paddleX", "ballX", "ballY", "ballVX", "ballVY", "ballDX",
		"bounce", "brickIdx", "bricksUp", "hitCount", "reward", "actionKey",
		"paddlePx", "ballXdup", "steps", "fieldWc", "paddleWc", "ballSpeed", "screen"} {
		g.Use("gameLoop", v)
	}
	return g
}

// ScriptedPlayer tracks the ball with the paddle.
func ScriptedPlayer(e env.Env) int {
	vars := e.StateVars()
	dx := vars["ballDX"]
	switch {
	case dx < -0.6:
		return ActLeft
	case dx > 0.6:
		return ActRight
	default:
		return ActStay
	}
}
