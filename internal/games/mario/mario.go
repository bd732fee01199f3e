// Package mario implements the platformer subject of the paper's
// running example (Fig. 2): a tile-based side-scroller with goombas,
// pipes, ditches, a mushroom, a flag pole and a dungeon section. The
// action space has the paper's five actions; the reward shape matches
// Fig. 2 (+2 for forward progress, -1 otherwise, +10 flag, -10 death,
// and optionally +30 for new code coverage in self-testing mode).
//
// The package also carries the bug the paper's self-testing AI found: a
// missed boundary check that lets the player jump through the dungeon
// ceiling and leave the screen, crashing the program. The bug is behind
// Options.BugEnabled so ordinary training is unaffected.
package mario

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/coverage"
	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/imaging"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// The five actions of the paper's annotation (au_write_back("output",
// 5, actionKey)).
const (
	ActNoop = iota
	ActLeft
	ActRight
	ActJump
	ActRightJump
	numActions
)

// Physics constants.
const (
	moveVel   = 0.30
	gravity   = 0.12
	jumpImp   = -1.05
	maxFall   = 1.2
	goombaVel = 0.06
)

// Options configure a game instance.
type Options struct {
	// BugEnabled arms the missed boundary check in the dungeon ceiling;
	// Step panics when the player leaves the screen, reproducing the
	// crash the self-testing AI found.
	BugEnabled bool
	// Coverage, when set, receives basic-block hits during play.
	Coverage *coverage.Map
}

// Game is one Mario instance.
type Game struct {
	rng   *stats.RNG
	opts  Options
	level *level
	state gameState
}

type goomba struct {
	X, Y   float64
	Dir    float64
	Dead   bool
	SpawnX float64
}

type gameState struct {
	X, Y, VX, VY float64
	OnGround     bool
	Dead         bool
	Cleared      bool
	Steps        int
	Squashed     int
	MushroomGot  bool
	Goombas      []goomba
	MaxX         float64
}

// CrashError is the panic value raised by the armed bug.
type CrashError struct {
	X, Y float64
}

// Error implements error.
func (c CrashError) Error() string {
	return fmt.Sprintf("mario: segmentation fault: player at (%.1f, %.1f) left the screen (missed boundary check)", c.X, c.Y)
}

// BasicBlocks lists every instrumented block; the coverage map for the
// self-testing study is built over these.
func BasicBlocks() []string {
	return []string{
		"loop.noop", "loop.left", "loop.right", "loop.jump", "loop.rightjump",
		"move.accelLeft", "move.accelRight", "move.friction",
		"jump.grounded", "jump.airborne",
		"collide.wallLeft", "collide.wallRight", "collide.land", "collide.ceiling",
		"fall.ditch", "fall.maxVel",
		"goomba.patrol", "goomba.turn", "goomba.squash", "goomba.kill",
		"mushroom.eat", "mushroom.skip",
		"pipe.blocked", "pipe.cleared",
		"dungeon.enter", "dungeon.inside", "dungeon.ceilingHole", "dungeon.aboveCeiling",
		"flag.reach", "death.fall", "death.goomba",
		"reward.forward", "reward.stall", "reward.terminalFlag", "reward.terminalDeath",
		"screen.leftEdge",
		// Level-script blocks: each stage region and object has its own
		// handling code (spawn triggers, camera scripting); covering
		// them requires actually getting there.
		"region.x20", "region.x40", "region.x60", "region.x80", "region.x100",
		"region.x120", "region.x140", "region.x160", "region.x180", "region.x200",
		"object.ditch0", "object.ditch1", "object.ditch2", "object.ditch3",
		"object.pipe0", "object.pipe1", "object.pipe2", "object.pipe3",
		"dungeon.platform",
	}
}

// New creates a game with a deterministic level from seed.
func New(seed uint64, opts Options) *Game {
	g := &Game{rng: stats.NewRNG(seed), opts: opts}
	g.level = buildLevel(g.rng.Split())
	g.Reset()
	return g
}

// Reset implements env.Env: respawn at the start with fresh goombas.
func (g *Game) Reset() {
	goombas := make([]goomba, len(g.level.goombaSpawns))
	for i, gx := range g.level.goombaSpawns {
		// Goombas stand on the ground at the same height convention as
		// the player (center half a tile above the surface).
		goombas[i] = goomba{X: gx, Y: groundRow - 0.5, Dir: 1, SpawnX: gx}
	}
	g.state = gameState{X: 2.5, Y: groundRow - 1, Goombas: goombas}
}

// NumActions implements env.Env.
func (g *Game) NumActions() int { return numActions }

func (g *Game) hit(block string) {
	if g.opts.Coverage != nil {
		g.opts.Coverage.Hit(block)
	}
}

// Step implements env.Env, advancing one game-loop iteration.
func (g *Game) Step(action int) (float64, bool) {
	if g.state.Dead || g.state.Cleared {
		return 0, true
	}
	g.state.Steps++
	prevX := g.state.X

	// Horizontal control.
	switch action {
	case ActLeft:
		g.hit("loop.left")
		g.hit("move.accelLeft")
		g.state.VX = -moveVel
	case ActRight:
		g.hit("loop.right")
		g.hit("move.accelRight")
		g.state.VX = moveVel
	case ActJump:
		g.hit("loop.jump")
		g.state.VX *= 0.8
		g.hit("move.friction")
	case ActRightJump:
		g.hit("loop.rightjump")
		g.state.VX = moveVel
	default:
		g.hit("loop.noop")
		g.state.VX *= 0.8
		g.hit("move.friction")
	}
	// Jumping.
	if action == ActJump || action == ActRightJump {
		if g.state.OnGround {
			g.hit("jump.grounded")
			g.state.VY = jumpImp
			g.state.OnGround = false
		} else {
			g.hit("jump.airborne")
		}
	}

	// Gravity.
	g.state.VY += gravity
	if g.state.VY > maxFall {
		g.hit("fall.maxVel")
		g.state.VY = maxFall
	}

	// Horizontal collision.
	nx := g.state.X + g.state.VX
	if g.state.VX > 0 && g.solidAtBody(nx+0.4, g.state.Y) {
		g.hit("collide.wallRight")
		if g.level.nextPipeDist(g.state.X) < 1.5 {
			g.hit("pipe.blocked")
		}
		nx = g.state.X
	} else if g.state.VX < 0 && g.solidAtBody(nx-0.4, g.state.Y) {
		g.hit("collide.wallLeft")
		nx = g.state.X
	}
	if nx < 0.5 {
		g.hit("screen.leftEdge")
		nx = 0.5
	}
	g.state.X = nx

	// Vertical collision.
	ny := g.state.Y + g.state.VY
	if g.state.VY > 0 { // falling
		// Sweep the feet from the current to the target position in
		// sub-tile increments: fall speed can exceed a tile per step,
		// and a single endpoint probe would tunnel through thin floors.
		feet := g.state.Y + 0.5
		targetFeet := ny + 0.5
		landed := false
		for f := feet + 0.25; f < targetFeet+0.25; f += 0.25 {
			if f > targetFeet {
				f = targetFeet
			}
			if g.level.solidAt(g.state.X, f) {
				g.hit("collide.land")
				g.state.Y = math.Floor(f) - 0.5
				g.state.VY = 0
				g.state.OnGround = true
				landed = true
				break
			}
		}
		if !landed {
			g.state.Y = ny
			g.state.OnGround = false
		}
	} else if g.state.VY < 0 { // rising
		if g.level.solidAt(g.state.X, ny-0.5) {
			g.hit("collide.ceiling")
			g.state.VY = 0
		} else {
			g.state.Y = ny
			g.state.OnGround = false
		}
	}

	// Dungeon bookkeeping and the armed bug.
	if g.state.X >= dungeonX0 && g.state.X < dungeonX1 {
		if prevX < dungeonX0 {
			g.hit("dungeon.enter")
		}
		g.hit("dungeon.inside")
		if g.state.Y < ceilingRow && g.state.X >= ceilingHoleX-1 && g.state.X < ceilingHoleX+ceilingHoleW+1 {
			g.hit("dungeon.ceilingHole")
		}
		if g.state.Y < ceilingRow-0.5 {
			g.hit("dungeon.aboveCeiling")
		}
		if g.state.Y < float64(ceilingRow)-0.5 {
			// The missed boundary check: above the dungeon ceiling the
			// player is outside the visible screen, and the original
			// code indexes the screen buffer with the player's row.
			if g.opts.BugEnabled {
				panic(CrashError{X: g.state.X, Y: g.state.Y})
			}
			g.state.Y = float64(ceilingRow) - 0.5 // the fixed build clamps
		}
	}

	// Ditch death.
	if g.state.Y > float64(levelH) {
		g.hit("fall.ditch")
		g.hit("death.fall")
		g.state.Dead = true
		g.hit("reward.terminalDeath")
		return -10, true
	}

	// Goomba updates and collision.
	for i := range g.state.Goombas {
		gb := &g.state.Goombas[i]
		if gb.Dead {
			continue
		}
		g.hit("goomba.patrol")
		gb.X += float64(gb.Dir * goombaVel)
		if math.Abs(gb.X-gb.SpawnX) > 3 || g.level.solidAt(gb.X+float64(gb.Dir*0.5), gb.Y) {
			g.hit("goomba.turn")
			gb.Dir = -gb.Dir
		}
		if math.Abs(gb.X-g.state.X) < 0.6 && math.Abs(gb.Y-g.state.Y) < 0.8 {
			if g.state.VY > 0 && g.state.Y < gb.Y-0.2 {
				g.hit("goomba.squash")
				gb.Dead = true
				g.state.Squashed++
				g.state.VY = jumpImp / 2 // bounce
			} else {
				g.hit("goomba.kill")
				g.hit("death.goomba")
				g.state.Dead = true
				g.hit("reward.terminalDeath")
				return -10, true
			}
		}
	}

	// Mushroom.
	if !g.state.MushroomGot &&
		math.Abs(g.state.X-g.level.mushroomX) < 0.7 &&
		math.Abs(g.state.Y-(groundRow-5)) < 1.0 {
		g.hit("mushroom.eat")
		g.state.MushroomGot = true
	} else if !g.state.MushroomGot {
		g.hit("mushroom.skip")
	}

	// Level-script region and object triggers (coverage blocks gated on
	// real progress).
	if region := int(g.state.X / 20); region >= 1 && region <= 10 {
		g.hit(fmt.Sprintf("region.x%d", region*20))
	}
	for i, d := range g.level.ditches {
		if i < 4 && g.state.X > float64(d[1]) && prevX <= float64(d[1]) {
			g.hit(fmt.Sprintf("object.ditch%d", i))
		}
	}
	for i, p := range g.level.pipeXs {
		if i < 4 && g.state.X > float64(p+2) && prevX <= float64(p+2) {
			g.hit(fmt.Sprintf("object.pipe%d", i))
		}
	}
	if g.state.Y < float64(dungeonPlatformRow)-0.4 && g.state.X >= ceilingHoleX-3 && g.state.X <= ceilingHoleX+ceilingHoleW+2 {
		g.hit("dungeon.platform")
	}

	// Flag.
	if g.state.X >= flagX-0.5 {
		g.hit("flag.reach")
		g.state.Cleared = true
		g.hit("reward.terminalFlag")
		return 10, true
	}
	if pd := g.level.nextPipeDist(prevX); pd < 0.5 && g.level.nextPipeDist(g.state.X) > pd {
		g.hit("pipe.cleared")
	}

	// Progress reward, per Fig. 2.
	if g.state.X > g.state.MaxX+1e-9 {
		g.state.MaxX = g.state.X
		g.hit("reward.forward")
		return 2, false
	}
	g.hit("reward.stall")
	return -1, false
}

// solidAtBody checks both the feet and head rows of the 1-tall body.
func (g *Game) solidAtBody(x, y float64) bool {
	return g.level.solidAt(x, y+0.4) || g.level.solidAt(x, y-0.4)
}

// nearestGoomba returns the relative offset of the closest live goomba,
// or (999, 0) when none remain.
func (g *Game) nearestGoomba() (dx, dy float64) {
	best := math.Inf(1)
	dx, dy = 999, 0
	for i := range g.state.Goombas {
		gb := &g.state.Goombas[i]
		if gb.Dead {
			continue
		}
		d := math.Abs(gb.X - g.state.X)
		if d < best {
			best = d
			dx = gb.X - g.state.X
			dy = gb.Y - g.state.Y
		}
	}
	return dx, dy
}

// StateVars implements env.Env. The set mirrors the Fig. 2 annotations
// (player and minion positions, the object ahead) plus the redundant
// and constant variables a 21K-line game actually carries.
func (g *Game) StateVars() map[string]float64 {
	gdx, gdy := g.nearestGoomba()
	vars := map[string]float64{
		"playerX":   g.state.X,
		"playerY":   g.state.Y,
		"playerVX":  g.state.VX,
		"playerVY":  g.state.VY,
		"onGround":  bool2f(g.state.OnGround),
		"minionDX":  gdx,
		"minionDY":  gdy,
		"ditchDist": g.level.nextDitchDist(g.state.X),
		"pipeDist":  g.level.nextPipeDist(g.state.X),
		"flagDist":  flagX - g.state.X,
		"mushDX":    g.level.mushroomX - g.state.X,
		"mushGot":   bool2f(g.state.MushroomGot),
		"progress":  g.state.X / flagX,
		"maxX":      g.state.MaxX,
		"steps":     float64(g.state.Steps),
		"squashed":  float64(g.state.Squashed),
		"inDungeon": bool2f(g.state.X >= dungeonX0 && g.state.X < dungeonX1),
		"objAhead":  g.objAhead(),
		// Redundant duplicates (Algorithm 2's ε₁ prunes these).
		"pX":       g.state.X,
		"screenPX": g.state.X * 16,
		"mnX":      gdx,
		// Constants (ε₂ prunes these).
		"gravityC": gravity,
		"jumpC":    jumpImp,
		"worldW":   levelW,
		"accG":     9.8,
	}
	return vars
}

// landingY returns the y the player would land at if dropped from the
// current position: the row above the first solid tile below. Values
// below the map mean a ditch is underfoot.
func (g *Game) landingY() float64 {
	start := int(g.state.Y + 0.5)
	if start < 0 {
		start = 0
	}
	for ty := start; ty < levelH; ty++ {
		if g.level.solidAt(g.state.X, float64(ty)+0.5) {
			return float64(ty) - 0.5
		}
	}
	return float64(levelH) + 1
}

// objAhead encodes what the player faces within 2 tiles: 0 none, 1
// pipe, 2 ditch, 3 goomba — the player.front check of Fig. 2.
func (g *Game) objAhead() float64 {
	if d, _ := g.nearestGoomba(); d > 0 && d < 2 {
		return 3
	}
	if g.level.nextDitchDist(g.state.X) < 2 {
		return 2
	}
	if g.level.nextPipeDist(g.state.X) < 2 {
		return 1
	}
	return 0
}

func bool2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Screen implements env.Env: a 64×64 window centered on the player.
func (g *Game) Screen() *imaging.Image {
	img := imaging.NewImage(64, 64)
	const px = 4 // pixels per tile
	originX := g.state.X - 8
	for ty := 0; ty < levelH; ty++ {
		for tx := 0; tx < levelW; tx++ {
			if g.level.tiles[ty][tx] == tEmpty {
				continue
			}
			var v float64
			switch g.level.tiles[ty][tx] {
			case tGround:
				v = 120
			case tPipe:
				v = 170
			case tBrick:
				v = 150
			case tCeiling:
				v = 100
			case tFlag:
				v = 220
			}
			sx := int((float64(tx) - originX) * px)
			sy := ty * px
			for dy := 0; dy < px; dy++ {
				for dx := 0; dx < px; dx++ {
					img.Set(sx+dx, sy+dy, v)
				}
			}
		}
	}
	for i := range g.state.Goombas {
		gb := &g.state.Goombas[i]
		if gb.Dead {
			continue
		}
		sx := int((gb.X - originX) * px)
		sy := int(gb.Y * px)
		for dy := 0; dy < px; dy++ {
			for dx := 0; dx < px; dx++ {
				img.Set(sx+dx, sy+dy, 200)
			}
		}
	}
	sx := int((g.state.X - originX) * px)
	sy := int(g.state.Y * px)
	for dy := -px / 2; dy < px; dy++ {
		for dx := 0; dx < px; dx++ {
			img.Set(sx+dx, sy+dy, 255)
		}
	}
	return img
}

// Score implements env.Env: progress fraction (the X of the paper's
// X/Y Mario score).
func (g *Game) Score() float64 {
	s := g.state.MaxX / flagX
	if s > 1 {
		s = 1
	}
	return s
}

// Success implements env.Env: stage cleared (the Y of X/Y).
func (g *Game) Success() bool { return g.state.Cleared }

// Snapshot implements env.Env.
func (g *Game) Snapshot() any {
	cp := g.state
	cp.Goombas = append([]goomba(nil), g.state.Goombas...)
	return cp
}

// Restore implements env.Env.
func (g *Game) Restore(s any) {
	snap := s.(gameState)
	snap.Goombas = append([]goomba(nil), snap.Goombas...)
	g.state = snap
}

// FeatureVarNames is the post-Algorithm-2 feature set used by the All
// configuration.
func FeatureVarNames() []string {
	return []string{
		"playerX", "playerY", "playerVX", "playerVY", "onGround",
		"minionDX", "minionDY", "ditchDist", "pipeDist", "objAhead",
	}
}

// TargetVars returns the annotated target variables.
func TargetVars() []string { return []string{"actionKey"} }

// DepGraph returns the dynamic dependence graph of the game loop for
// Algorithm 2 (the Fig. 10 structure, at full scale).
func DepGraph() *dep.Graph {
	g := dep.NewGraph()
	g.Def("playerVX", "actionKey")
	g.Def("playerVY", "playerVY", "actionKey")
	g.Def("playerX", "playerX", "playerVX")
	g.Def("playerY", "playerY", "playerVY")
	g.Def("onGround", "playerY")
	g.Def("speed", "playerVX", "playerVY")
	g.Def("minionX", "minionX")
	g.Def("minionY", "minionY")
	g.Def("minionDX", "minionX", "playerX")
	g.Def("minionDY", "minionY", "playerY")
	g.Def("mnX", "minionDX")
	g.Def("pX", "playerX")
	g.Def("screenPX", "playerX")
	g.Def("collide", "minionDX", "minionDY", "pX")
	g.Def("ditchDist", "playerX")
	g.Def("pipeDist", "playerX")
	g.Def("flagDist", "playerX")
	g.Def("mushDX", "playerX")
	g.Def("objAhead", "minionDX", "ditchDist", "pipeDist")
	g.Def("progress", "playerX")
	g.Def("maxX", "maxX", "playerX")
	g.Def("reward", "maxX", "collide", "progress")
	g.Def("terminated", "collide", "progress")
	g.Def("steps", "steps")
	g.Def("squashed", "squashed", "collide")
	g.Def("inDungeon", "playerX")
	g.Def("mushGot", "mushGot", "mushDX")
	g.Def("gravityUse", "gravityC")
	g.Def("jumpUse", "jumpC")
	loopVars := []string{
		"playerX", "playerY", "playerVX", "playerVY", "onGround", "speed",
		"minionX", "minionY", "minionDX", "minionDY", "mnX", "pX", "screenPX",
		"collide", "ditchDist", "pipeDist", "flagDist", "mushDX", "objAhead",
		"progress", "maxX", "reward", "terminated", "actionKey", "steps",
		"squashed", "inDungeon", "mushGot", "gravityC", "jumpC", "worldW", "accG",
	}
	for _, v := range loopVars {
		g.Use("gameLoop", v)
	}
	g.Use("minionCollision", "minionX")
	g.Use("minionCollision", "minionY")
	g.Use("updatePlayer", "playerX")
	g.Use("updatePlayer", "playerY")
	return g
}

// ScriptedPlayer is the reference controller (human-player stand-in):
// run right, jumping from the ground when a ditch, pipe or goomba is
// imminently ahead. Jump timing matters: jumping too early off a
// goomba cue lands inside the next ditch, so ditches take priority and
// trigger only inside the safe take-off window.
func ScriptedPlayer(e env.Env) int {
	vars := e.StateVars()
	if vars["onGround"] == 1 {
		if d := vars["ditchDist"]; d < 1.6 {
			// Late take-off clears even 3-wide ditches: the jump arc
			// covers ~5 tiles.
			return ActRightJump
		}
		if p := vars["pipeDist"]; p < 2 {
			// Jumping a pipe is safe even with a ditch right behind it:
			// the landing is the pipe top, from which the ditch rule
			// fires on the next grounded frame.
			return ActRightJump
		}
		if dx := vars["minionDX"]; dx > 0 && dx < 1.6 {
			if d := vars["ditchDist"]; d > 1.6 && d < 5.2 {
				// A forward jump here would land in the ditch; hop in
				// place instead and squash the goomba on the way down.
				return ActJump
			}
			return ActRightJump
		}
	}
	// Airborne handling. A descent that would land at or in a ditch
	// (e.g. after a goomba-squash bounce near the edge) brakes hard and
	// lands short, letting the grounded ditch rule take a clean jump.
	// Rising trajectories are left alone: interfering with a ditch
	// jump's ascent shortens it into the ditch.
	if vars["onGround"] == 0 {
		// Descending onto a raised surface (a pipe top): land freely and
		// let the grounded rules take the next decision.
		overPlatform := vars["landingY"] < float64(groundRow)-1
		// The in-place goomba hop: while over the goomba with the ditch
		// still ahead, hold position (rising) or actively brake
		// (descending) so the landing squashes the goomba instead of
		// carrying into the ditch.
		if d := vars["ditchDist"]; !overPlatform && d > 0.5 && d < 5.2 &&
			vars["minionDX"] > -2.5 && vars["minionDX"] < 2.5 {
			if vars["playerVY"] > 0 {
				return ActLeft
			}
			return ActNoop
		}
		// Emergency brake: descending to ground level right at a ditch
		// edge (e.g. after a squash bounce).
		if d := vars["ditchDist"]; !overPlatform && vars["playerVY"] > 0 && d < 2.5 && vars["playerY"] > 11.5 {
			return ActLeft
		}
	}
	return ActRight
}
