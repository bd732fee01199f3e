// Package torcs implements the driving subject modeled on TORCS (The
// Open Racing Car Simulator), the paper's self-driving case study
// (Section 6.3, Fig. 17). The car follows a procedurally generated
// track of varying curvature; the annotated target variable is the
// steering command, and the internal state exposes exactly the
// variables the paper's pruning examples discuss: posX (lateral
// offset), roll (its near-duplicate, pruned by ε₁, Fig. 15) and accX
// (near-constant, pruned by ε₂, Fig. 16), alongside the genuinely
// informative track-geometry variables.
//
// The score is the paper's criterion: how far the car drives without
// bumping the wall before finishing.
package torcs

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Actions: the paper's three-way steering output ("left turn, right
// turn, and no turn").
const (
	ActStraight = iota
	ActLeft
	ActRight
	numActions
)

// Track and car constants.
const (
	trackLen    = 600.0 // track length in car-lengths
	halfWidth   = 4.0   // lateral half-width before the wall
	speed       = 1.0   // forward speed per step
	steerRate   = 0.12  // heading change per steering step (radians)
	headingDamp = 0.92
	segLen      = 25.0 // curvature segment length
)

// Game is one TORCS instance.
type Game struct {
	rng *stats.RNG
	// curvature per segment, the track layout (fixed per seed).
	curv  []float64
	state gameState
}

type gameState struct {
	Pos     float64 // distance along the track
	PosX    float64 // lateral offset from the centerline
	Heading float64 // angle relative to the track direction
	Speed   float64
	Bumped  bool
	Done    bool
	Steps   int
}

// New creates a game with a deterministic track from seed.
func New(seed uint64) *Game {
	g := &Game{rng: stats.NewRNG(seed)}
	n := int(trackLen/segLen) + 1
	g.curv = make([]float64, n)
	for i := range g.curv {
		// Alternate straights and corners of varying sharpness.
		if g.rng.Bool(0.45) {
			g.curv[i] = g.rng.Range(-0.05, 0.05)
		} else {
			g.curv[i] = 0
		}
	}
	g.Reset()
	return g
}

// Reset implements env.Env.
func (g *Game) Reset() {
	g.state = gameState{Speed: speed}
}

// NumActions implements env.Env.
func (g *Game) NumActions() int { return numActions }

// curvatureAt returns the track curvature at a distance.
func (g *Game) curvatureAt(pos float64) float64 {
	i := int(pos / segLen)
	if i < 0 {
		i = 0
	}
	if i >= len(g.curv) {
		i = len(g.curv) - 1
	}
	return g.curv[i]
}

// Step implements env.Env: one control-loop iteration.
func (g *Game) Step(action int) (float64, bool) {
	if g.state.Bumped || g.state.Done {
		return 0, true
	}
	g.state.Steps++
	switch action {
	case ActLeft:
		g.state.Heading -= steerRate
	case ActRight:
		g.state.Heading += steerRate
	}
	g.state.Heading *= headingDamp

	// The track curves under the car: curvature shifts the centerline,
	// which appears as lateral drift unless countered by steering.
	drift := float64(g.curvatureAt(g.state.Pos) * g.state.Speed * 10)
	g.state.PosX += float64(math.Sin(g.state.Heading)*g.state.Speed) + drift
	g.state.Pos += float64(math.Cos(g.state.Heading) * g.state.Speed)

	if math.Abs(g.state.PosX) > halfWidth {
		g.state.Bumped = true
		return -10, true
	}
	if g.state.Pos >= trackLen {
		g.state.Done = true
		return 10, true
	}
	// Reward centering and progress.
	return 0.5 - float64(0.1*math.Abs(g.state.PosX)), false
}

// StateVars implements env.Env. posX/roll and accX reproduce the
// paper's Fig. 15/16 pruning examples; trackPos, angle and the
// curvature lookaheads are the informative features.
func (g *Game) StateVars() map[string]float64 {
	curNow := g.curvatureAt(g.state.Pos)
	curNext := g.curvatureAt(g.state.Pos + segLen/2)
	curFar := g.curvatureAt(g.state.Pos + segLen)
	return map[string]float64{
		"posX": g.state.PosX,
		// roll is a near-duplicate of posX (the Fig. 15 pruning example).
		"roll": float64(g.state.PosX*0.95) + 0.01,
		// angle is exposed in degrees, as TORCS telemetry does.
		"angle":  g.state.Heading * 180 / math.Pi,
		"speedX": g.state.Speed,
		// accX is near-constant at cruise (the Fig. 16 pruning example).
		"accX":     9.8 + float64(0.001*math.Sin(float64(g.state.Steps))),
		"trackPos": g.state.PosX / halfWidth,
		// Curvatures are exposed in percent (100/radius), the usual
		// telemetry scaling.
		"curvNow":   curNow * 100,
		"curvNext":  curNext * 100,
		"curvFar":   curFar * 100,
		"distRaced": g.state.Pos,
		"progress":  g.state.Pos / trackLen,
		"wallDistL": halfWidth + g.state.PosX,
		"wallDistR": halfWidth - g.state.PosX,
		"steps":     float64(g.state.Steps),
		"rpm":       900 + float64(50*g.state.Speed), // constant at fixed speed
		"gear":      3,                               // constant
		"fuel":      100 - float64(0.001*float64(g.state.Steps)),
		"damage":    0, // constant
		"lapTime":   float64(g.state.Steps) * 0.02,
		"posXdup":   g.state.PosX, // exact duplicate
	}
}

// Screen implements env.Env: a driver-view rendering of the road ahead.
func (g *Game) Screen() *imaging.Image {
	img := imaging.NewImage(64, 64)
	// Perspective road: for each screen row (bottom = near), compute
	// the road center from accumulated curvature and draw the walls.
	for row := 0; row < 64; row++ {
		dist := float64(float64(row) * 0.8) // look-ahead distance for this row
		y := 63 - row
		curv := g.curvatureAt(g.state.Pos + dist)
		centerShift := -g.state.PosX - float64(curv*dist*dist*0.4)
		width := 30.0 * (1 - float64(row)/80.0)
		cx := 32 + float64(centerShift*(width/halfWidth)/2)
		l := int(cx - float64(width/2))
		r := int(cx + float64(width/2))
		for x := 0; x < 64; x++ {
			switch {
			case x == l || x == r:
				img.Set(x, y, 255) // wall markers
			case x > l && x < r:
				img.Set(x, y, 90) // road
			default:
				img.Set(x, y, 30) // grass
			}
		}
	}
	// Car marker at the bottom center.
	for dx := -2; dx <= 2; dx++ {
		img.Set(32+dx, 62, 200)
		img.Set(32+dx, 63, 200)
	}
	return img
}

// Score implements env.Env: distance fraction without bumping.
func (g *Game) Score() float64 {
	s := g.state.Pos / trackLen
	if s > 1 {
		s = 1
	}
	return s
}

// Success implements env.Env: finished without bumping the wall.
func (g *Game) Success() bool { return g.state.Done }

// Snapshot implements env.Env.
func (g *Game) Snapshot() any { return g.state }

// Restore implements env.Env.
func (g *Game) Restore(s any) { g.state = s.(gameState) }

// FeatureVarNames is the post-Algorithm-2 feature set (the paper
// reports twenty features for TORCS; ours is the informative core).
func FeatureVarNames() []string {
	return []string{"posX", "angle", "curvNow", "curvNext", "curvFar",
		"wallDistR", "distRaced"}
}

// TargetVars returns the annotated targets (the paper annotates steer
// for steering control).
func TargetVars() []string { return []string{"steer"} }

// DepGraph returns the control loop's dependence structure.
func DepGraph() *dep.Graph {
	g := dep.NewGraph()
	g.Def("angle", "angle", "steer")
	g.Def("posX", "posX", "angle", "curvNow")
	g.Def("roll", "posX")
	g.Def("posXdup", "posX")
	g.Def("trackPos", "posX")
	g.Def("wallDistL", "posX")
	g.Def("wallDistR", "posX")
	g.Def("distRaced", "distRaced", "angle")
	g.Def("progress", "distRaced")
	g.Def("curvNow", "distRaced")
	g.Def("curvNext", "distRaced")
	g.Def("curvFar", "distRaced")
	g.Def("bumped", "posX")
	g.Def("reward", "bumped", "posX", "progress")
	g.Def("speedX", "speedX")
	g.Def("accX", "steps")
	g.Def("rpm", "speedX")
	g.Def("lapTime", "steps")
	g.Def("fuel", "steps")
	g.Def("steps", "steps")
	// The rendered frame consumes the geometry the driver sees, and the
	// HUD telemetry consumes the derived read-only variables; both give
	// the duplicates and lookaheads downstream consumers, so they are
	// candidates for Algorithm 2 (and then pruning fodder).
	g.Def("screen", "curvNow", "curvNext", "curvFar", "posX", "angle")
	g.Def("telemetry", "roll", "posXdup", "trackPos", "wallDistL", "wallDistR",
		"rpm", "fuel", "lapTime", "accX", "gear", "damage", "speedX")
	for _, v := range []string{"posX", "roll", "posXdup", "angle", "trackPos",
		"wallDistL", "wallDistR", "distRaced", "progress", "curvNow", "curvNext",
		"curvFar", "bumped", "reward", "steer", "speedX", "accX", "rpm",
		"lapTime", "fuel", "steps", "gear", "damage", "screen", "telemetry"} {
		g.Use("controlLoop", v)
	}
	return g
}

// ScriptedPlayer is the reference driver: steer toward the centerline,
// anticipating the curve ahead.
func ScriptedPlayer(e env.Env) int {
	vars := e.StateVars()
	// Desired correction combines the current offset and the upcoming
	// curvature-induced drift.
	desired := float64(-vars["posX"]*0.5) - float64((vars["curvNext"]/100)*25)
	err := desired - float64((vars["angle"]*math.Pi/180)*3)
	switch {
	case err < -0.08:
		return ActLeft
	case err > 0.08:
		return ActRight
	default:
		return ActStraight
	}
}
