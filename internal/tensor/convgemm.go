// convgemm.go is the implicit-GEMM convolution engine (DESIGN.md §5j).
// The im2col lowering in conv.go materializes the full O(C·KH·KW·OH·OW)
// column matrix before every GEMM — on the CNN hot path that gather (and
// the panel re-pack of its output) costs more than the multiply itself.
// Implicit GEMM fuses the two: the im2col index arithmetic moves into
// the GEBP panel packing, so receptive-field columns are gathered
// tile-by-tile into cache-resident pack buffers and fed straight to the
// dispatched micro-kernel. The column matrix is never built:
//
//   - Forward: out = W × cols. Output column panels are sharded over the
//     pool; each shard gathers its own nr-wide B-panels with packConvCols
//     and aims gebpTile at its slice of the output feature map.
//
//   - gradW: gradWProd = g × colsᵀ, computed as its transpose
//     cols × gᵀ. Backward copies the input once into zero-bordered
//     planes (padInput), so each tap is a plain strided row: the strided
//     register tile (kernelImpl.tileStrided) broadcasts taps straight
//     from those rows against g's transpose, one output row per call.
//
//   - gradIn: the cols-gradient stripe Wᵀ × g, four taps at a time, with
//     the same strided tile reading weight columns and g rows in place,
//     then a col2im-accumulate per tap (scatterConvTap) with
//     run-clipped bounds and a vector add instead of per-element
//     branches.
//
// Determinism contract: every output element's fold is unchanged from
// the naive reference compositions — forward folds ascending-k (k =
// channel-major tap index) exactly like Im2Col+MatMulNaiveInto, gradW
// folds ascending output position exactly like MatMulABTInto (a fold
// stored and reloaded between tiles is the same fold), and gradIn folds
// ascending output channel then scatters in Col2ImInto's exact
// ch→ky→kx→oy→ox order. Sharding only chooses which tiles compute when.
// Padding gathers as explicit zeros (never skipped: 0×NaN must stay
// NaN), and pack-buffer pad lanes only feed accumulators that clipped
// stores drop. Enforced bit-for-bit by convgemm_test.go across shapes,
// widths and kernel implementations.
package tensor

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/parallel"
)

// ConvGeom is the fixed geometry of one convolution: input planes,
// kernel taps, stride/padding, and the derived output extent. The
// implicit-GEMM views it as an OutC×K times K×N product with
// K = InC·KH·KW (channel-major tap index) and N = OutH·OutW (row-major
// output position), matching Im2Col's row and column order.
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride, Pad   int
	OutC          int
	OutH, OutW    int

	// oxLoTab/oxHiTab cache oxClip per kernel column: the clip divides
	// by the stride, and the packers would otherwise pay that divide
	// once per contraction row per gather block. Filled by NewConvGeom;
	// a zero-built ConvGeom falls back to computing the clip inline.
	oxLoTab, oxHiTab []int
}

// NewConvGeom validates a convolution configuration and derives the
// output extent. It panics on an invalid geometry, mirroring Im2Col.
func NewConvGeom(inC, inH, inW, kh, kw, stride, pad, outC int) ConvGeom {
	if inC <= 0 || inH <= 0 || inW <= 0 || kh <= 0 || kw <= 0 || outC <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry inC=%d in=%dx%d k=%dx%d outC=%d pad=%d",
			inC, inH, inW, kh, kw, outC, pad))
	}
	if stride < 1 {
		panic("tensor: conv stride must be >= 1")
	}
	g := ConvGeom{
		InC: inC, InH: inH, InW: inW,
		KH: kh, KW: kw, Stride: stride, Pad: pad,
		OutC: outC,
		OutH: ConvOutputSize(inH, kh, stride, pad),
		OutW: ConvOutputSize(inW, kw, stride, pad),
	}
	if g.OutH <= 0 || g.OutW <= 0 {
		panic(fmt.Sprintf("tensor: conv kernel %dx%d too large for %dx%d input (pad %d)", kh, kw, inH, inW, pad))
	}
	g.oxLoTab = make([]int, kw)
	g.oxHiTab = make([]int, kw)
	for kx := 0; kx < kw; kx++ {
		g.oxLoTab[kx], g.oxHiTab[kx] = g.oxClipCompute(kx)
	}
	return g
}

// K returns the GEMM contraction length InC·KH·KW.
func (g *ConvGeom) K() int { return g.InC * g.KH * g.KW }

// Cols returns the GEMM output width OutH·OutW.
func (g *ConvGeom) Cols() int { return g.OutH * g.OutW }

// oxClip returns the output-x range [oxLo, oxHi) whose input column
// ox·stride + kx - pad falls inside [0, InW) — the in-bounds run of one
// output row under kernel tap column kx. Everything outside the run is
// padding (gathers as zero, scatters nowhere).
func (g *ConvGeom) oxClip(kx int) (oxLo, oxHi int) {
	if g.oxLoTab != nil {
		return g.oxLoTab[kx], g.oxHiTab[kx]
	}
	return g.oxClipCompute(kx)
}

// oxClipCompute is the direct form of oxClip, used to fill the table
// and as the fallback for zero-built geometries.
func (g *ConvGeom) oxClipCompute(kx int) (oxLo, oxHi int) {
	if d := g.Pad - kx; d > 0 {
		oxLo = (d + g.Stride - 1) / g.Stride
	}
	if e := g.InW - 1 - kx + g.Pad; e >= 0 {
		if oxHi = e/g.Stride + 1; oxHi > g.OutW {
			oxHi = g.OutW
		}
	}
	if oxLo > oxHi {
		oxLo = oxHi
	}
	return oxLo, oxHi
}

// convZeroRun zeroes count packed elements of one B-panel row, starting
// at write index di with intra-panel offset j; hop is the (k-1)·nr jump
// between consecutive panels of the same row. It returns the advanced
// (di, j) so the packer can thread a whole row's runs through
// sequentially — no index division anywhere (nr is a variable, so a
// pos/nr per run would be a hardware divide on the hottest path).
func convZeroRun(packed []float64, nr, hop, di, j, count int) (int, int) {
	for count > 0 {
		c := nr - j
		if c > count {
			c = count
		}
		d := packed[di : di+c]
		for i := range d {
			d[i] = 0
		}
		di += c
		if j += c; j == nr {
			di += hop
			j = 0
		}
		count -= c
	}
	return di, j
}

// convGatherRun copies count input values starting at in[si] with the
// given stride into one B-panel row at (di, j) — the same threading
// contract as convZeroRun. Chunks are short (≤ nr), so inline element
// loops beat memmove calls; the aligned full-chunk stride-1 case — an
// nr-wide slice of a contiguous input row — is unrolled for the AVX2
// panel width, since it is the inner loop of every unit-stride
// convolution forward.
func convGatherRun(packed, in []float64, nr, hop, di, j, count, si, stride int) (int, int) {
	if stride == 1 {
		for count > 0 {
			if j == 0 && count >= 8 && nr == 8 {
				d := packed[di : di+8]
				s := in[si : si+8]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
				di += 8 + hop
				si += 8
				count -= 8
				continue
			}
			c := nr - j
			if c > count {
				c = count
			}
			d := packed[di : di+c]
			s := in[si : si+c]
			for i := range d {
				d[i] = s[i]
			}
			si += c
			di += c
			if j += c; j == nr {
				di += hop
				j = 0
			}
			count -= c
		}
		return di, j
	}
	for count > 0 {
		c := nr - j
		if c > count {
			c = count
		}
		d := packed[di : di+c]
		for i := range d {
			d[i] = in[si]
			si += stride
		}
		di += c
		if j += c; j == nr {
			di += hop
			j = 0
		}
		count -= c
	}
	return di, j
}

// packConvCols gathers im2col column panels [pLo, pHi) of the implicit
// K×N column matrix straight from the (InC, InH, InW) input into GEBP
// B-panel layout: packed[(p-pLo)·K·nr + kk·nr + jj] = cols[kk][p·nr+jj],
// where cols[kk][pos] is input channel kk/(KH·KW) at tap
// ((kk/KW)%KH, kk%KW) over output position (pos/OutW, pos%OutW), zero
// where the tap lands in padding. Rows gather as runs — a zero fill, a
// contiguous copy (stride 1) or a strided loop — instead of the
// branch-per-element im2colRows walk. Lanes past column N in the ragged
// last panel are zeroed; they only feed accumulators that clipped stores
// drop. packed must hold (pHi-pLo)·K·nr elements.
func packConvCols(packed, in []float64, g *ConvGeom, nr, pLo, pHi int) {
	k, n := g.K(), g.Cols()
	colLo := pLo * nr
	colHi := pHi * nr
	padEnd := colHi
	if colHi > n {
		colHi = n
	}
	hop := (k - 1) * nr
	// Fast path: the block covers whole output rows (convPackBlock
	// arranges this whenever panels tile rows exactly), so the per-row
	// run bounds are just the precomputed clip — none of the mid-row
	// clamp handling below can trigger. This is every block of every
	// aligned geometry, i.e. the hot path.
	if g.OutW%nr == 0 && colLo%g.OutW == 0 && colHi%g.OutW == 0 && padEnd == colHi {
		oyLo, oyHi := colLo/g.OutW, colHi/g.OutW
		kk := 0
		for ch := 0; ch < g.InC; ch++ {
			chBase := ch * g.InH * g.InW
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					oxLo, oxHi := g.oxClip(kx)
					di, j := kk*nr, 0
					for oy := oyLo; oy < oyHi; oy++ {
						iy := oy*g.Stride + ky - g.Pad
						if iy < 0 || iy >= g.InH {
							di, j = convZeroRun(packed, nr, hop, di, j, g.OutW)
							continue
						}
						if oxLo > 0 {
							di, j = convZeroRun(packed, nr, hop, di, j, oxLo)
						}
						if oxHi > oxLo {
							si := chBase + iy*g.InW + oxLo*g.Stride + kx - g.Pad
							di, j = convGatherRun(packed, in, nr, hop, di, j, oxHi-oxLo, si, g.Stride)
						}
						if oxHi < g.OutW {
							di, j = convZeroRun(packed, nr, hop, di, j, g.OutW-oxHi)
						}
					}
					kk++
				}
			}
		}
		return
	}
	// One division for the whole call: colLo is panel-aligned, so every
	// row kk starts at intra-panel offset 0 and the write index threads
	// through the run helpers from there. The nested ch/ky/kx loops
	// replace per-kk divisions, and oy advances with the row cursor
	// instead of being re-derived from the position.
	oy0 := colLo / g.OutW
	kk := 0
	for ch := 0; ch < g.InC; ch++ {
		chBase := ch * g.InH * g.InW
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				oxLo, oxHi := g.oxClip(kx)
				di, j := kk*nr, 0
				pos := colLo
				rowStart := oy0 * g.OutW
				for oy := oy0; pos < colHi; oy++ {
					rowEnd := rowStart + g.OutW
					if rowEnd > colHi {
						rowEnd = colHi
					}
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						di, j = convZeroRun(packed, nr, hop, di, j, rowEnd-pos)
						pos = rowEnd
						rowStart += g.OutW
						continue
					}
					zA := rowStart + oxLo
					if zA < pos {
						zA = pos
					}
					if zA > rowEnd {
						zA = rowEnd
					}
					zB := rowStart + oxHi
					if zB < zA {
						zB = zA
					}
					if zB > rowEnd {
						zB = rowEnd
					}
					if pos < zA {
						di, j = convZeroRun(packed, nr, hop, di, j, zA-pos)
					}
					if zA < zB {
						si := chBase + iy*g.InW + (zA-rowStart)*g.Stride + kx - g.Pad
						di, j = convGatherRun(packed, in, nr, hop, di, j, zB-zA, si, g.Stride)
					}
					if zB < rowEnd {
						di, j = convZeroRun(packed, nr, hop, di, j, rowEnd-zB)
					}
					pos = rowEnd
					rowStart += g.OutW
				}
				if padEnd > colHi {
					convZeroRun(packed, nr, hop, di, j, padEnd-colHi)
				}
				kk++
			}
		}
	}
}

// padDims returns the extent of one zero-bordered input plane:
// (InH+2·Pad) × (InW+2·Pad). Every tap of every output position lands
// inside it, at row oy·Stride+ky and column ox·Stride+kx.
func (g *ConvGeom) padDims() (ph, pw int) { return g.InH + 2*g.Pad, g.InW + 2*g.Pad }

// padInput copies the (InC, InH, InW) input into InC zero-bordered
// planes of padDims (padded must hold InC·ph·pw elements), so the
// backward gather reads every tap as a plain strided row with no
// clipping: padding becomes stored zeros, which multiply exactly like
// the explicit zeros the reference gathers (0×NaN stays NaN).
func padInput(padded, in []float64, g *ConvGeom) {
	ph, pw := g.padDims()
	clear(padded)
	for ch := 0; ch < g.InC; ch++ {
		for iy := 0; iy < g.InH; iy++ {
			src := in[(ch*g.InH+iy)*g.InW : (ch*g.InH+iy+1)*g.InW]
			copy(padded[(ch*ph+iy+g.Pad)*pw+g.Pad:], src)
		}
	}
}

// scatterConvTap is the fused col2im-accumulate for one kernel tap
// (ky, kx) of one input channel: it adds the tap's cols-gradient row
// src (N values) onto the channel's (InH, InW) plane of gradIn in
// Col2ImInto's order — oy→ox ascending position, one += per in-bounds
// element — with the padding skips precomputed as row and column clips
// instead of per-element branches. Called for a channel's taps in
// ascending order on a zeroed plane, it reproduces Col2ImInto bit for
// bit. Unit stride adds whole clipped blocks with the kernel's addRows.
func (ck *ConvKernel) scatterConvTap(plane, src []float64, ky, kx int) {
	g := &ck.g
	oxLo, oxHi := g.oxClip(kx)
	oyLo, oyHi := g.oyClip(ky)
	if oxLo >= oxHi || oyLo >= oyHi {
		return
	}
	ix := oxLo*g.Stride + kx - g.Pad
	iy := oyLo*g.Stride + ky - g.Pad
	if g.Stride == 1 {
		ck.impl.addRows(plane[iy*g.InW+ix:], src[oyLo*g.OutW+oxLo:], oxHi-oxLo, oyHi-oyLo, g.InW, g.OutW)
		return
	}
	for oy := oyLo; oy < oyHi; oy, iy = oy+1, iy+g.Stride {
		row := plane[iy*g.InW : (iy+1)*g.InW]
		srow := src[oy*g.OutW:]
		for ox, i := oxLo, ix; ox < oxHi; ox, i = ox+1, i+g.Stride {
			row[i] += srow[ox]
		}
	}
}

// oyClip is oxClip for rows: the output-y range whose input row
// oy·Stride + ky - Pad falls inside [0, InH).
func (g *ConvGeom) oyClip(ky int) (oyLo, oyHi int) {
	if d := g.Pad - ky; d > 0 {
		oyLo = (d + g.Stride - 1) / g.Stride
	}
	if e := g.InH - 1 - ky + g.Pad; e >= 0 {
		if oyHi = e/g.Stride + 1; oyHi > g.OutH {
			oyHi = g.OutH
		}
	}
	if oyLo > oyHi {
		oyLo = oyHi
	}
	return oyLo, oyHi
}

// convPackBlockFloats is the target pack-buffer size, in floats, for one
// forward gather block (~16 KiB). Panels are gathered and multiplied in
// blocks of this size so the pack buffer stays L1-resident: gathering an
// entire shard's panels first (hundreds of KiB on real geometries) would
// evict every panel before the GEBP kernel read it back. Blocking only
// groups whole panels — each output column's fold still happens inside a
// single gebpTile call — so results are unchanged bit for bit.
const convPackBlockFloats = 2048

// convPackBlock returns how many nr-wide panels of contraction length K
// fit the pack-buffer budget (at least one). When panels tile output
// rows exactly, the block is rounded up to whole rows: every
// contraction-row pass over the block then runs full rows only, with no
// mid-row clamp handling.
func convPackBlock(g *ConvGeom, nr int) int {
	b := convPackBlockFloats / (g.K() * nr)
	if b < 1 {
		b = 1
	}
	if ppr := g.OutW / nr; ppr > 0 && g.OutW%nr == 0 {
		b = (b + ppr - 1) / ppr * ppr
	}
	return b
}

// convGrain returns a panel/channel sharding grain for units of the
// given per-unit cost: enough units per chunk that each chunk is at
// least one matMulCutoff worth of work. Depends only on the geometry, so
// chunk boundaries are fixed per kernel at any width.
func convGrain(unitCost int) int {
	if g := matMulCutoff / (unitCost + 1); g > 1 {
		return g
	}
	return 1
}

// ConvKernel is the implicit-GEMM execution state for one convolution
// geometry on the training path. It exists to make steady-state
// Forward/Backward allocation-free at any worker width: the shard
// bodies are built once as persistent closures over the kernel's
// mutable per-call fields (a closure literal at each call site would
// heap-allocate its header per call, because parallel.For's fn
// escapes), and all transient buffers come from the shared Scratch
// arena. A ConvKernel is owned by one layer and is not goroutine-safe;
// the parallelism inside a call shards over disjoint output tiles.
type ConvKernel struct {
	g    ConvGeom
	impl *kernelImpl

	// Fixed sharding geometry, derived from g at construction.
	fwdPanels, fwdGrain int
	fwdBlock            int // panels per cache-resident gather block
	tapBlocks, wGrain   int // gradW: microM-tap row blocks
	chGrain             int

	// Per-call operands, set by Forward/Backward before dispatching the
	// persistent shard closures, cleared after.
	in, w, out    []float64
	padded        []float64 // backward: zero-bordered input planes
	gout          []float64
	goutT         []float64 // backward: g_outᵀ in nr-wide channel panels
	gradW, gradIn []float64
	packedW       []float64 // forward: W's full row blocks
	fwdShard      func(lo, hi int)
	bwdChShard    func(lo, hi int)
	bwdWShard     func(lo, hi int)
}

// NewConvKernel builds the implicit-GEMM kernel for a geometry using the
// dispatched implementation.
func NewConvKernel(g ConvGeom) *ConvKernel {
	return newConvKernel(g, kern)
}

// newConvKernel is the implementation-injection constructor the
// bit-identity tests use to exercise every kernelImpl explicitly.
func newConvKernel(g ConvGeom, impl *kernelImpl) *ConvKernel {
	k, n := g.K(), g.Cols()
	nr := impl.nr
	taps := g.KH * g.KW
	ck := &ConvKernel{
		g: g, impl: impl,
		fwdPanels: (n + nr - 1) / nr,
		fwdGrain:  convGrain(nr * k * g.OutC),
		fwdBlock:  convPackBlock(&g, nr),
		tapBlocks: (k + microM - 1) / microM,
		wGrain:    convGrain(microM * n * g.OutC),
		chGrain:   convGrain(taps * g.OutC * n),
	}
	ck.fwdShard = ck.runFwdShard
	ck.bwdChShard = ck.runBwdChShard
	ck.bwdWShard = ck.runBwdWShard
	return ck
}

// Geom returns the kernel's fixed geometry.
func (ck *ConvKernel) Geom() ConvGeom { return ck.g }

// runFwdShard computes output column panels [pLo, pHi): gather the
// panels' receptive-field columns into an L1-resident pack buffer, one
// convPackBlock-sized block at a time, aiming the GEBP tile kernel at
// the corresponding slice of the (OutC × N) output after each gather.
func (ck *ConvKernel) runFwdShard(pLo, pHi int) {
	g := &ck.g
	k, n, nr := g.K(), g.Cols(), ck.impl.nr
	blk := ck.fwdBlock
	if blk > pHi-pLo {
		blk = pHi - pLo
	}
	pb := Scratch.Get(blk * k * nr)
	local := *pb
	for b := pLo; b < pHi; b += blk {
		bHi := b + blk
		if bHi > pHi {
			bHi = pHi
		}
		packConvCols(local, ck.in, g, nr, b, bHi)
		colLo := b * nr
		colHi := bHi * nr
		if colHi > n {
			colHi = n
		}
		ck.impl.gebpTile(ck.out[colLo:], n, tailRows(ck.w, g.OutC, k), ck.packedW, local, g.OutC, k, colHi-colLo)
	}
	Scratch.Put(pb)
}

// runBwdWShard computes the weight-gradient taps of row blocks
// [bLo, bHi): block b covers taps [b·microM, b·microM+microM). It runs
// the transposed product gradWProdᵀ = cols × g_outᵀ one microM×nr tile
// at a time — microM taps against nr output channels — reading each tap
// straight from its padded input row (no column panel is gathered) and
// g_outᵀ from its channel panels. The fold over the N positions runs one
// output row per tileStrided call, continuing from the stored partial
// tile, so every element folds ascending position from zero exactly as
// MatMulABTInto does (the product's two factors swap, which FMA does not
// see). Lanes past the last tap re-read a live tap and are dropped.
func (ck *ConvKernel) runBwdWShard(bLo, bHi int) {
	g := &ck.g
	k, n, nr := g.K(), g.Cols(), ck.impl.nr
	taps := g.KH * g.KW
	ph, pw := g.padDims()
	var base [microM]int
	var a [microM][]float64
	pt := Scratch.Get(microM * nr)
	tile := *pt
	for b := bLo; b < bHi; b++ {
		t0 := b * microM
		live := min(microM, k-t0)
		for r := 0; r < microM; r++ {
			t := t0 + min(r, live-1)
			ch, tap := t/taps, t%taps
			base[r] = (ch*ph+tap/g.KW)*pw + tap%g.KW
		}
		for q := 0; q*nr < g.OutC; q++ {
			bq := ck.goutT[q*n*nr : (q+1)*n*nr]
			for oy := 0; oy < g.OutH; oy++ {
				off := oy * g.Stride * pw
				for r := range a {
					a[r] = ck.padded[base[r]+off:]
				}
				ck.impl.tileStrided(tile, nr, a, g.Stride, bq[oy*g.OutW*nr:], nr, g.OutW, 1, oy > 0)
			}
			for j := 0; j < nr && q*nr+j < g.OutC; j++ {
				d := ck.gradW[(q*nr+j)*k+t0:]
				for r := 0; r < live; r++ {
					d[r] = tile[r*nr+j]
				}
			}
		}
	}
	Scratch.Put(pt)
}

// runBwdChShard computes the input gradient for channels [chLo, chHi).
// It walks the channels' taps in ascending microM-row blocks: each block
// computes its rows of the cols-gradient stripe = Wᵀ × g_out with
// tileStrided, reading weight columns (row stride K) and g_out rows
// (row stride N) in place — fold ascending output channel from zero,
// exactly MatMulATBInto's — then scatters each tap onto its channel's
// input plane. Taps reach a plane in ascending order and the plane is
// zeroed before its first tap, which is Col2ImInto's order. Rows past
// the shard's last tap re-read a live weight column and are dropped;
// the ragged last nr positions run through a zero-padded copy of g_out.
func (ck *ConvKernel) runBwdChShard(chLo, chHi int) {
	g := &ck.g
	k, n, nr := g.K(), g.Cols(), ck.impl.nr
	taps := g.KH * g.KW
	outC := g.OutC
	plane := g.InH * g.InW
	full := n / nr * nr
	ps := Scratch.Get(microM*n + outC*nr + microM*nr)
	stripe := (*ps)[:microM*n]
	rag := (*ps)[microM*n : microM*n+outC*nr]
	tile := (*ps)[microM*n+outC*nr:]
	if full < n {
		for oc := 0; oc < outC; oc++ {
			d := rag[oc*nr : (oc+1)*nr]
			m := copy(d, ck.gout[oc*n+full:(oc+1)*n])
			clear(d[m:])
		}
	}
	var a [microM][]float64
	tapHi := chHi * taps
	for t0 := chLo * taps; t0 < tapHi; t0 += microM {
		live := min(microM, tapHi-t0)
		for r := range a {
			a[r] = ck.w[t0+min(r, live-1):]
		}
		ck.impl.tileStrided(stripe, n, a, k, ck.gout, n, outC, full/nr, false)
		if full < n {
			ck.impl.tileStrided(tile, nr, a, k, rag, nr, outC, 1, false)
			for r := 0; r < live; r++ {
				copy(stripe[r*n+full:(r+1)*n], tile[r*nr:])
			}
		}
		for r := 0; r < live; r++ {
			t := t0 + r
			ch, tap := t/taps, t%taps
			pl := ck.gradIn[ch*plane : (ch+1)*plane]
			if tap == 0 {
				clear(pl)
			}
			ck.scatterConvTap(pl, stripe[r*n:(r+1)*n], tap/g.KW, tap%g.KW)
		}
	}
	Scratch.Put(ps)
}

// Forward computes out = W × im2col(in) without materializing the
// column matrix. in is (InC·InH·InW), w is the row-major (OutC × K)
// filter matrix, out is the (OutC × N) pre-bias output. Weights are
// packed per call (the training path mutates them every step); the
// compiled serving path prepacks once via PrepackConv instead. Output
// column panels shard over the worker pool; results are bit-identical
// to Im2Col+MatMulNaiveInto at any width.
func (ck *ConvKernel) Forward(out, in, w []float64) {
	g := &ck.g
	k, n := g.K(), g.Cols()
	ck.checkOperand("in", in, g.InC*g.InH*g.InW)
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("out", out, g.OutC*n)
	var pw *[]float64
	if blocks := g.OutC / microM; blocks > 0 {
		pw = Scratch.Get(blocks * microM * k)
		packRows(*pw, w, k, blocks)
		ck.packedW = *pw
	} else {
		ck.packedW = nil
	}
	ck.in, ck.w, ck.out = in, w, out
	parallel.For(ck.fwdPanels, ck.fwdGrain, ck.fwdShard)
	ck.in, ck.w, ck.out, ck.packedW = nil, nil, nil, nil
	Scratch.Put(pw)
}

// Backward computes the weight-gradient product gradWProd = g_out ×
// im2col(in)ᵀ (overwritten, formed from zero — the caller adds it into
// the accumulated gradient, so the fold does not depend on how many
// images are accumulated) and the input gradient gradIn (overwritten), without
// materializing the column matrix or its gradient. gout is the
// (OutC × N) output gradient; in must be the same buffer passed to the
// matching Forward. Bit-identical to the
// MatMulABTInto / MatMulATBInto+Col2ImInto reference at any width.
func (ck *ConvKernel) Backward(gradWProd, gradIn, in, w, gout []float64) {
	g := &ck.g
	k, n := g.K(), g.Cols()
	ck.checkOperand("in", in, g.InC*g.InH*g.InW)
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("gout", gout, g.OutC*n)
	ck.checkOperand("gradWProd", gradWProd, g.OutC*k)
	ck.checkOperand("gradIn", gradIn, g.InC*g.InH*g.InW)
	nr := ck.impl.nr
	pg := Scratch.Get((g.OutC + nr - 1) / nr * nr * n)
	packPanelsT(*pg, gout, n, g.OutC, nr)
	ph, pw := g.padDims()
	pp := Scratch.Get(g.InC * ph * pw)
	padInput(*pp, in, g)
	ck.goutT, ck.padded = *pg, *pp
	ck.w, ck.gout, ck.gradW, ck.gradIn = w, gout, gradWProd, gradIn
	parallel.For(g.InC, ck.chGrain, ck.bwdChShard)
	parallel.For(ck.tapBlocks, ck.wGrain, ck.bwdWShard)
	ck.goutT, ck.padded, ck.w, ck.gout, ck.gradW, ck.gradIn = nil, nil, nil, nil, nil, nil
	Scratch.Put(pp)
	Scratch.Put(pg)
}

func (ck *ConvKernel) checkOperand(name string, s []float64, want int) {
	if len(s) != want {
		panic(fmt.Sprintf("tensor: ConvKernel %s length %d, want %d (geom %+v)", name, len(s), want, ck.g))
	}
}

// PackedConv is a convolution's filter matrix packed once for the
// compiled serving path (the conv analogue of PackedDense): the GEBP
// row blocks plus the raw row-major snapshot for the ragged tail.
// Forward gathers input columns per call — that work depends on the
// input — but never packs or copies the weights again.
type PackedConv struct {
	g       ConvGeom
	w       []float64 // row-major (OutC × K) snapshot
	packedW []float64 // full microM-row blocks, kk-major
	blk     int       // panels per cache-resident gather block
}

// PrepackConv snapshots a (OutC × K) filter tensor into packed form for
// the geometry. Mutating w afterwards does not affect the pack — the
// compiled-plan contract.
func PrepackConv(w *Tensor, g ConvGeom) *PackedConv {
	shape := w.Shape()
	if len(shape) != 2 || shape[0] != g.OutC || shape[1] != g.K() {
		panic(fmt.Sprintf("tensor: PrepackConv weights %v, want [%d %d]", shape, g.OutC, g.K()))
	}
	p := &PackedConv{g: g, w: append([]float64(nil), w.Data()...)}
	if blocks := g.OutC / microM; blocks > 0 {
		p.packedW = make([]float64, blocks*microM*g.K())
		packRows(p.packedW, p.w, g.K(), blocks)
	}
	p.blk = convPackBlock(&p.g, kern.nr)
	if panels := (g.Cols() + kern.nr - 1) / kern.nr; p.blk > panels {
		p.blk = panels
	}
	return p
}

// Geom returns the packed convolution's geometry.
func (p *PackedConv) Geom() ConvGeom { return p.g }

// PackedColsLen returns the scratch length Forward needs for one
// cache-resident gather block under the active kernel's geometry.
func (p *PackedConv) PackedColsLen() int {
	return p.blk * p.g.K() * kern.nr
}

// Forward computes the pre-bias (OutC × N) output sequentially — the
// compiled-plan contract puts parallelism above the plan — gathering
// the input's receptive-field columns into the caller-owned packedCols
// scratch (length ≥ PackedColsLen) and running one GEBP over the
// prepacked filters. No allocation, no weight packing, bit-identical to
// the training path and the naive reference.
func (p *PackedConv) Forward(out, in, packedCols []float64) {
	g := &p.g
	k, n, nr := g.K(), g.Cols(), kern.nr
	if len(in) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: PackedConv input %d, want %d", len(in), g.InC*g.InH*g.InW))
	}
	if len(out) != g.OutC*n {
		panic(fmt.Sprintf("tensor: PackedConv output %d, want %d", len(out), g.OutC*n))
	}
	if need := p.PackedColsLen(); len(packedCols) < need {
		panic(fmt.Sprintf("tensor: PackedConv scratch %d, need %d", len(packedCols), need))
	}
	panels := (n + nr - 1) / nr
	for b := 0; b < panels; b += p.blk {
		bHi := b + p.blk
		if bHi > panels {
			bHi = panels
		}
		packConvCols(packedCols, in, g, nr, b, bHi)
		colLo := b * nr
		colHi := bHi * nr
		if colHi > n {
			colHi = n
		}
		kern.gebpTile(out[colLo:], n, tailRows(p.w, g.OutC, k), p.packedW, packedCols, g.OutC, k, colHi-colLo)
	}
}
