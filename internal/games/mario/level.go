package mario

import (
	"sort"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// Tile kinds.
type tile byte

const (
	tEmpty tile = iota
	tGround
	tPipe
	tBrick
	tCeiling
	tFlag
)

// Level geometry constants.
const (
	levelW = 220
	levelH = 16
	// groundRow is the top row of solid ground.
	groundRow = 13
	// flagX is the flag-pole column; reaching it clears the stage.
	flagX = 212
	// Dungeon region: a ceiling runs over [dungeonX0, dungeonX1) with a
	// hole the agent can (unexpectedly) jump through — the terrain of
	// the paper's boundary-check bug.
	dungeonX0, dungeonX1 = 120, 150
	ceilingRow           = 4
	ceilingHoleX         = 133
	ceilingHoleW         = 4
	dungeonPlatformRow   = 8
	dungeonStairX        = 125
)

// level is the static tile map plus entity spawn points.
type level struct {
	tiles [][]tile // [y][x]
	// goombaSpawns and mushroomX are deterministic per seed.
	goombaSpawns []float64
	mushroomX    float64
	// ditches lists [start, end) column ranges with no ground.
	ditches [][2]int
	// pipeXs lists pipe columns.
	pipeXs []int
}

// buildLevel generates the deterministic stage layout for a seed.
func buildLevel(rng *stats.RNG) *level {
	l := &level{tiles: make([][]tile, levelH)}
	for y := range l.tiles {
		l.tiles[y] = make([]tile, levelW)
	}
	// Solid ground.
	for y := groundRow; y < levelH; y++ {
		for x := 0; x < levelW; x++ {
			l.tiles[y][x] = tGround
		}
	}
	// Ditches: 2-3 tiles wide, spaced 25-40 columns, none too close to
	// the start or the flag.
	x := 20 + rng.Intn(10)
	for x < flagX-25 {
		// The dungeon platform hangs low enough to interrupt a ditch
		// jump, so no ditch is dug under or just before it.
		if x >= ceilingHoleX-14 && x < ceilingHoleX+ceilingHoleW+5 {
			x = ceilingHoleX + ceilingHoleW + 5
		}
		w := 2 + rng.Intn(2)
		l.ditches = append(l.ditches, [2]int{x, x + w})
		for y := groundRow; y < levelH; y++ {
			for d := 0; d < w; d++ {
				l.tiles[y][x+d] = tEmpty
			}
		}
		x += 25 + rng.Intn(16)
	}
	// Pipes: height 2-3, on solid ground away from ditches. A pipe
	// right before a ditch would demand a pixel-perfect double jump, so
	// the generator keeps a landing zone clear after each pipe.
	nearDitch := func(x int) bool {
		for _, d := range l.ditches {
			if x >= d[0]-9 && x < d[1]+3 {
				return true
			}
		}
		return false
	}
	inDungeonZone := func(x int) bool {
		return x >= dungeonX0-4 && x < dungeonX1
	}
	px := 14 + rng.Intn(8)
	for px < flagX-20 {
		if l.tiles[groundRow][px] == tGround && l.tiles[groundRow][px+1] == tGround &&
			!nearDitch(px) && !nearDitch(px+1) && !inDungeonZone(px) {
			h := 2 + rng.Intn(2)
			for dy := 1; dy <= h; dy++ {
				l.tiles[groundRow-dy][px] = tPipe
				l.tiles[groundRow-dy][px+1] = tPipe
			}
			l.pipeXs = append(l.pipeXs, px)
		}
		px += 30 + rng.Intn(20)
	}
	// Dungeon ceiling with a hole, and a brick platform under the hole
	// from which a (unexpected) jump can pass through — the terrain of
	// the missed-boundary-check bug.
	for cx := dungeonX0; cx < dungeonX1; cx++ {
		if cx >= ceilingHoleX && cx < ceilingHoleX+ceilingHoleW {
			continue
		}
		l.tiles[ceilingRow][cx] = tCeiling
	}
	for cx := ceilingHoleX - 3; cx <= ceilingHoleX+ceilingHoleW+2; cx++ {
		l.tiles[dungeonPlatformRow][cx] = tBrick
	}
	// The dungeon stair: a tall pipe before the platform, the stepping
	// stone that makes the platform (and through it the ceiling hole)
	// reachable — the level structure whose missing boundary check the
	// self-testing study rediscovers.
	for dy := 1; dy <= 3; dy++ {
		l.tiles[groundRow-dy][dungeonStairX] = tPipe
		l.tiles[groundRow-dy][dungeonStairX+1] = tPipe
	}
	l.pipeXs = append(l.pipeXs, dungeonStairX)
	sort.Ints(l.pipeXs) // nextPipeDist scans in ascending order
	// Bricks with a mushroom above the first pipe region. They hang low
	// enough to interrupt a jump, so they also stay clear of ditches.
	bx := 40 + rng.Intn(12)
	for nearDitch(bx) || nearDitch(bx+3) {
		bx += 3
	}
	for dx := 0; dx < 3; dx++ {
		if l.tiles[groundRow-4][bx+dx] == tEmpty {
			l.tiles[groundRow-4][bx+dx] = tBrick
		}
	}
	l.mushroomX = float64(bx+1) + 0.5
	// Flag pole.
	for y := groundRow - 8; y < groundRow; y++ {
		l.tiles[y][flagX] = tFlag
	}
	// Goombas: 4-6 patrollers on open ground. Their ±3-tile patrols
	// must not cross ditch edges (they would fall in), so spawns keep
	// clear of ditches.
	n := 4 + rng.Intn(3)
	for i := 0; i < n; i++ {
		gx := 25 + float64(rng.Float64()*float64(flagX-50))
		for tries := 0; tries < 20 && (nearDitch(int(gx)-4) || nearDitch(int(gx)+4)); tries++ {
			gx = 25 + float64(rng.Float64()*float64(flagX-50))
		}
		l.goombaSpawns = append(l.goombaSpawns, gx)
	}
	return l
}

// solidAt reports whether the tile containing (x, y) blocks movement.
func (l *level) solidAt(x, y float64) bool {
	tx, ty := int(x), int(y)
	if tx < 0 || tx >= levelW {
		return true // level edges are walls
	}
	if ty < 0 || ty >= levelH {
		return false // above/below the map is open (the bug's terrain)
	}
	switch l.tiles[ty][tx] {
	case tGround, tPipe, tBrick, tCeiling:
		return true
	default:
		return false
	}
}

// nextDitchDist returns the distance from x to the next ditch start, or
// a large value if none remains.
func (l *level) nextDitchDist(x float64) float64 {
	for _, d := range l.ditches {
		if float64(d[0]) >= x {
			return float64(d[0]) - x
		}
	}
	return 999
}

// nextPipeDist returns the distance from x to the next pipe column.
func (l *level) nextPipeDist(x float64) float64 {
	for _, p := range l.pipeXs {
		if float64(p) >= x {
			return float64(p) - x
		}
	}
	return 999
}
