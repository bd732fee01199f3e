// Package arkanoid implements the Arkanoid subject (the paper runs it
// on the LaiNES emulator and annotates the emulator's exported game
// state). Arkanoid extends the brick-breaker formula with a brick
// pattern containing hardened bricks (two hits) and a paddle-widening
// powerup that drops from certain bricks. The paper's score is the pair
// (percentage of cleared bricks, rate of clearing all bricks).
package arkanoid

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
	fieldW    = 36.0
	fieldH    = 44.0
	basePadW  = 6.0
	widePadW  = 10.0
	paddleY   = 41.0
	brickRows = 5
	brickCols = 9
	brickW    = fieldW / brickCols
	brickH    = 1.6
	brickTop  = 5.0
	ballSpeed = 0.85
	paddleVel = 1.0
	powerVel  = 0.35
)

// Game is one Arkanoid instance.
type Game struct {
	rng   *stats.RNG
	state gameState
}

type powerup struct {
	X, Y   float64
	Active bool
}

type gameState struct {
	PaddleX      float64
	PaddleW      float64
	WideLeft     int // steps of widening remaining
	BallX, BallY float64
	VX, VY       float64
	// Bricks holds remaining hit points (0 = destroyed; hardened bricks
	// start at 2).
	Bricks  [brickRows * brickCols]int
	Total   int
	Cleared int
	Power   powerup
	Missed  bool
	Steps   int
}

// New creates a game with a deterministic brick pattern from seed.
func New(seed uint64) *Game {
	g := &Game{rng: stats.NewRNG(seed)}
	g.Reset()
	return g
}

// Reset implements env.Env.
func (g *Game) Reset() {
	g.state = gameState{
		PaddleX: fieldW / 2,
		PaddleW: basePadW,
		BallX:   fieldW / 2,
		BallY:   paddleY - 6,
	}
	angle := g.rng.Range(-0.5, 0.5)
	g.state.VX = ballSpeed * math.Sin(angle)
	g.state.VY = -ballSpeed * math.Cos(angle)
	for i := range g.state.Bricks {
		row := i / brickCols
		if row == 0 {
			g.state.Bricks[i] = 2 // top row is hardened
		} else {
			g.state.Bricks[i] = 1
		}
	}
	g.state.Total = len(g.state.Bricks)
}

// NumActions implements env.Env.
func (g *Game) NumActions() int { return numActions }

// Step implements env.Env.
func (g *Game) Step(action int) (float64, bool) {
	if g.state.Missed || g.state.Cleared == g.state.Total {
		return 0, true
	}
	g.state.Steps++
	switch action {
	case ActLeft:
		g.state.PaddleX -= paddleVel
	case ActRight:
		g.state.PaddleX += paddleVel
	}
	g.state.PaddleX = stats.Clamp(g.state.PaddleX, g.state.PaddleW/2, fieldW-float64(g.state.PaddleW/2))

	// Widening timer.
	if g.state.WideLeft > 0 {
		g.state.WideLeft--
		if g.state.WideLeft == 0 {
			g.state.PaddleW = basePadW
		}
	}

	g.state.BallX += g.state.VX
	g.state.BallY += g.state.VY

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

	reward := 0.05

	// Brick collision.
	if g.state.BallY >= brickTop && g.state.BallY < brickTop+brickRows*brickH {
		row := int((g.state.BallY - brickTop) / brickH)
		col := int(g.state.BallX / brickW)
		if col >= 0 && col < brickCols && row >= 0 && row < brickRows {
			idx := row*brickCols + col
			if g.state.Bricks[idx] > 0 {
				g.state.Bricks[idx]--
				g.state.VY = -g.state.VY
				if g.state.Bricks[idx] == 0 {
					g.state.Cleared++
					reward = 1
					// Every third column drops a widening powerup.
					if col%3 == 1 && !g.state.Power.Active {
						g.state.Power = powerup{X: g.state.BallX, Y: g.state.BallY, Active: true}
					}
					if g.state.Cleared == g.state.Total {
						return reward + 10, true
					}
				} else {
					reward = 0.5 // chipped a hardened brick
				}
			}
		}
	}

	// Powerup falls; catching it widens the paddle.
	if g.state.Power.Active {
		g.state.Power.Y += powerVel
		if g.state.Power.Y >= paddleY &&
			math.Abs(g.state.Power.X-g.state.PaddleX) <= g.state.PaddleW/2 {
			g.state.Power.Active = false
			g.state.PaddleW = widePadW
			g.state.WideLeft = 600
			reward += 2
		} else if g.state.Power.Y > fieldH {
			g.state.Power.Active = false
		}
	}

	// Paddle bounce.
	if g.state.VY > 0 && g.state.BallY >= paddleY && g.state.BallY <= paddleY+1 {
		dx := g.state.BallX - g.state.PaddleX
		if math.Abs(dx) <= float64(g.state.PaddleW/2)+0.5 {
			angle := (dx / (g.state.PaddleW / 2)) * 1.0
			g.state.VX = ballSpeed * math.Sin(angle)
			g.state.VY = -ballSpeed * math.Cos(angle)
			g.state.BallY = paddleY - 0.01
		}
	}

	if g.state.BallY > fieldH {
		g.state.Missed = true
		return -10, true
	}
	return reward, false
}

// StateVars implements env.Env — the emulator-exported game variables
// the paper annotates, plus duplicates and constants.
func (g *Game) StateVars() map[string]float64 {
	return map[string]float64{
		"paddleX":   g.state.PaddleX,
		"paddleW":   g.state.PaddleW,
		"ballX":     g.state.BallX,
		"ballY":     g.state.BallY,
		"ballVX":    g.state.VX,
		"ballVY":    g.state.VY,
		"ballDX":    g.state.BallX - g.state.PaddleX,
		"powerX":    g.state.Power.X,
		"powerY":    g.state.Power.Y,
		"powerLive": bool2f(g.state.Power.Active),
		"cleared":   float64(g.state.Cleared),
		"remaining": float64(g.state.Total - g.state.Cleared),
		"wideLeft":  float64(g.state.WideLeft),
		"steps":     float64(g.state.Steps),
		"ballPx":    g.state.BallX * 2, // duplicate
		"padDup":    g.state.PaddleX,   // duplicate
		"fieldWc":   fieldW,            // constant
		"speedC":    ballSpeed,         // constant
	}
}

func bool2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Screen implements env.Env.
func (g *Game) Screen() *imaging.Image {
	img := imaging.NewImage(64, 64)
	sx := 64.0 / fieldW
	sy := 64.0 / fieldH
	for i, hp := range g.state.Bricks {
		if hp == 0 {
			continue
		}
		row, col := i/brickCols, i%brickCols
		v := 140.0
		if hp == 2 {
			v = 190
		}
		x0 := int(float64(col) * brickW * sx)
		y0 := int((brickTop + float64(float64(row)*brickH)) * sy)
		for y := y0; y < y0+2; y++ {
			for x := x0; x < x0+int(brickW*sx)-1; x++ {
				img.Set(x, y, v)
			}
		}
	}
	if g.state.Power.Active {
		img.Set(int(g.state.Power.X*sx), int(g.state.Power.Y*sy), 120)
	}
	py := int(paddleY * sy)
	for x := int((g.state.PaddleX - float64(g.state.PaddleW/2)) * sx); x <= int((g.state.PaddleX+float64(g.state.PaddleW/2))*sx); x++ {
		img.Set(x, py, 220)
	}
	img.Set(int(g.state.BallX*sx), int(g.state.BallY*sy), 255)
	return img
}

// Score implements env.Env: percentage of cleared bricks (the X of the
// paper's X/Y Arkanoid score).
func (g *Game) Score() float64 {
	return float64(g.state.Cleared) / float64(g.state.Total)
}

// Success implements env.Env: all bricks cleared (the Y of X/Y).
func (g *Game) Success() bool { return g.state.Cleared == g.state.Total }

// Snapshot implements env.Env.
func (g *Game) Snapshot() any { return g.state }

// Restore implements env.Env.
func (g *Game) Restore(s any) { g.state = s.(gameState) }

// FeatureVarNames is the post-pruning feature set.
func FeatureVarNames() []string {
	return []string{"paddleX", "paddleW", "ballX", "ballY", "ballVX", "ballVY",
		"ballDX", "powerX", "powerY", "powerLive", "remaining"}
}

// TargetVars returns the annotated targets.
func TargetVars() []string { return []string{"actionKey"} }

// DepGraph returns the update loop's dependence structure.
func DepGraph() *dep.Graph {
	g := dep.NewGraph()
	g.Def("paddleX", "paddleX", "actionKey")
	g.Def("paddleW", "paddleW", "powerCaught")
	g.Def("ballX", "ballX", "ballVX")
	g.Def("ballY", "ballY", "ballVY")
	g.Def("ballVX", "ballVX", "bounce")
	g.Def("ballVY", "ballVY", "bounce")
	g.Def("ballDX", "ballX", "paddleX")
	g.Def("bounce", "ballDX", "ballY", "paddleW")
	g.Def("brickIdx", "ballX", "ballY")
	g.Def("cleared", "cleared", "brickIdx")
	g.Def("remaining", "cleared")
	g.Def("powerX", "brickIdx")
	g.Def("powerY", "powerY")
	g.Def("powerLive", "powerLive", "brickIdx")
	g.Def("powerCaught", "powerX", "powerY", "paddleX")
	g.Def("wideLeft", "wideLeft", "powerCaught")
	g.Def("reward", "cleared", "powerCaught", "bounce")
	g.Def("ballPx", "ballX")
	g.Def("padDup", "paddleX")
	g.Def("steps", "steps")
	// Rendering consumes the duplicates and constants.
	g.Def("screen", "ballPx", "padDup", "ballY", "remaining", "fieldWc", "speedC")
	for _, v := range []string{"paddleX", "paddleW", "ballX", "ballY", "ballVX", "ballVY",
		"ballDX", "bounce", "brickIdx", "cleared", "remaining", "powerX", "powerY",
		"powerLive", "powerCaught", "wideLeft", "reward", "actionKey",
		"ballPx", "padDup", "steps", "fieldWc", "speedC", "screen"} {
		g.Use("gameLoop", v)
	}
	return g
}

// ScriptedPlayer tracks the ball, detouring to catch powerups when the
// ball is heading up.
func ScriptedPlayer(e env.Env) int {
	vars := e.StateVars()
	target := vars["ballX"]
	if vars["powerLive"] == 1 && vars["ballVY"] < 0 {
		target = vars["powerX"]
	}
	dx := target - vars["paddleX"]
	switch {
	case dx < -0.7:
		return ActLeft
	case dx > 0.7:
		return ActRight
	default:
		return ActStay
	}
}
