// convgemm.go is the implicit-GEMM convolution engine (DESIGN.md §5j).
// The im2col lowering in conv.go materializes the full O(C·KH·KW·OH·OW)
// column matrix before every GEMM — on the CNN hot path that gather (and
// the panel re-pack of its output) costs more than the multiply itself.
// Implicit GEMM fuses the two: the im2col index arithmetic moves into
// the GEBP panel packing, so receptive-field columns are gathered
// tile-by-tile into cache-resident pack buffers and fed straight to the
// dispatched micro-kernel. The column matrix is never built.
//
// A call runs a whole minibatch of B images as one product per pass,
// with the batch innermost in the column index: column j = pos·B + b
// for output position pos = oy·OutW + ox of image b, so the GEMM's
// column dimension is N = B·OutH·OutW. Each call first stages the
// (B, InC, InH, InW) input once into zero-bordered, batch-innermost
// planes (stageInput). In that layout every tap of every output row is
// one contiguous run of OutW·B values at any stride, so no pass clips
// or branches on padding:
//
//   - Forward: out = W × cols. Output column panels are sharded over the
//     pool; each shard copies its nr-wide B-panels out of the staged
//     rows (packConvCols) and aims gebpTile at its slice of the output.
//     The (OutC, N) product is then transposed to (B, OutC, OutH·OutW).
//
//   - gradW: gradWProd = g × colsᵀ, computed as its transpose
//     cols × gᵀ by the strided register tile (kernelImpl.tileStrided),
//     which reads taps straight from the staged rows against g's
//     transpose, one output row (OutW·B columns) per call.
//
//   - gradIn: the cols-gradient stripe Wᵀ × g, four taps at a time, with
//     the same strided tile reading weight columns and g rows in place,
//     then one addRows per tap onto a staged (zero-bordered) gradient
//     plane, whose interior is transposed back to (B, InC, InH, InW).
//
// Determinism contract: forward folds each output element ascending-k
// (k = channel-major tap index) exactly like Im2Col+MatMulNaiveInto,
// and gradIn folds ascending output channel, then adds each tap's
// contribution in Col2ImInto's ch→ky→kx order — neither fold involves
// the batch, so every image's output and input gradient are bit-equal
// to running it alone. gradW folds ascending column j from zero — output
// position, then image — which is MatMulABTInto over the concatenated
// minibatch lowering in that column order; for B = 1 it is the
// per-image fold. Sharding only chooses which tiles compute when.
// Padding holds explicit stored zeros (never skipped: 0×NaN must stay
// NaN), and pack-buffer pad lanes only feed accumulators that clipped
// stores drop. Enforced bit-for-bit by convgemm_test.go across shapes,
// batch sizes, widths and kernel implementations.
package tensor

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/parallel"
)

// ConvGeom is the fixed geometry of one convolution: input planes,
// kernel taps, stride/padding, and the derived output extent. The
// implicit-GEMM views it as an OutC×K times K×N product with
// K = InC·KH·KW (channel-major tap index) and N = OutH·OutW (row-major
// output position) per image, matching Im2Col's row and column order.
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride, Pad   int
	OutC          int
	OutH, OutW    int

	// tapCell[kk] is the staged-input cell (see stageInput) that tap kk
	// reads for output position (0, 0). Filled by NewConvGeom, so
	// kernels must be built from a NewConvGeom geometry.
	tapCell []int
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
	ph, qw := g.stagedDims()
	g.tapCell = make([]int, 0, g.K())
	for ch := 0; ch < inC; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				g.tapCell = append(g.tapCell, (ch*ph+ky)*stride*qw+kx%stride*qw+kx/stride)
			}
		}
	}
	return g
}

// K returns the GEMM contraction length InC·KH·KW.
func (g *ConvGeom) K() int { return g.InC * g.KH * g.KW }

// Cols returns the GEMM output width of one image, OutH·OutW.
func (g *ConvGeom) Cols() int { return g.OutH * g.OutW }

// stagedDims returns the extent of the staged input: ph = InH+2·Pad
// zero-bordered rows per channel, each holding Stride phases of qw
// cells. Phase r, cell q holds padded column q·Stride + r, so output
// column ox under kernel column kx reads phase kx%Stride, cell
// ox + kx/Stride: consecutive output columns are consecutive cells at
// any stride.
func (g *ConvGeom) stagedDims() (ph, qw int) {
	return g.InH + 2*g.Pad, (g.InW + 2*g.Pad + g.Stride - 1) / g.Stride
}

// stagedLen returns the staged length of a batch-image input, in
// floats: one cell holds the batch's values of one padded pixel.
func (g *ConvGeom) stagedLen(batch int) int {
	ph, qw := g.stagedDims()
	return g.InC * ph * g.Stride * qw * batch
}

// stagedRow returns the distance, in floats, between the staged data
// of consecutive output rows of one tap: Stride padded rows.
func (g *ConvGeom) stagedRow(batch int) int {
	_, qw := g.stagedDims()
	return g.Stride * g.Stride * qw * batch
}

// stageInput copies a (batch, InC, InH, InW) input into the staged
// layout (see stagedDims) with the batch innermost: padded pixel
// (ch, py, px) of image b lands at float (cell·batch + b). Padding is
// stored as zeros, which multiply exactly like the explicit zeros the
// reference gathers (0×NaN stays NaN). staged must hold
// stagedLen(batch) floats.
func stageInput(staged, in []float64, g *ConvGeom, batch int) {
	clear(staged)
	g.restage(staged, in, batch, true)
}

// unstageInput is stageInput's inverse for the input gradient: it
// copies the interior of the staged planes back to (batch, InC, InH,
// InW), dropping the border cells.
func unstageInput(out, staged []float64, g *ConvGeom, batch int) {
	g.restage(staged, out, batch, false)
}

// restage moves every input pixel between the (batch, InC, InH, InW)
// image layout and its staged cell, in when stage is set and back out
// otherwise, one run of same-phase cells of an input row at a time.
func (g *ConvGeom) restage(staged, images []float64, batch int, stage bool) {
	ph, qw := g.stagedDims()
	for ch := 0; ch < g.InC; ch++ {
		for iy := 0; iy < g.InH; iy++ {
			src := (ch*g.InH + iy) * g.InW
			row := (ch*ph + iy + g.Pad) * g.Stride * qw
			for r := 0; r < g.Stride; r++ {
				// Phase r holds input columns ix ≡ r - Pad (mod Stride).
				q := 0
				if g.Pad > r {
					q = (g.Pad - r + g.Stride - 1) / g.Stride
				}
				if ix := q*g.Stride + r - g.Pad; ix < g.InW {
					cells := (g.InW - ix + g.Stride - 1) / g.Stride
					g.restageRun(staged[(row+r*qw+q)*batch:(row+r*qw+q+cells)*batch], images[src+ix:], batch, stage)
				}
			}
		}
	}
}

// restageRun moves one run of staged cells (batch floats each) and
// the input pixels they hold, Stride apart in each image's row. A
// minibatch goes eight images at a time, so each cell is written or
// read a cache line at a time while eight image streams are open.
func (g *ConvGeom) restageRun(cells, images []float64, batch int, stage bool) {
	img, s := g.InC*g.InH*g.InW, g.Stride
	if batch == 1 {
		// One pixel per cell: a plain copy at unit stride.
		switch {
		case s == 1 && stage:
			copy(cells, images)
		case s == 1:
			copy(images, cells)
		default:
			for k := range cells {
				if stage {
					cells[k] = images[k*s]
				} else {
					images[k*s] = cells[k]
				}
			}
		}
		return
	}
	for b0 := 0; b0 < batch; b0 += 8 {
		var im [8][]float64
		nb := min(8, batch-b0)
		for k := range im[:nb] {
			im[k] = images[(b0+k)*img:]
		}
		for c, i := b0, 0; c < len(cells); c, i = c+batch, i+s {
			d := cells[c : c+nb]
			switch {
			case nb == 8 && stage:
				d[0], d[1], d[2], d[3] = im[0][i], im[1][i], im[2][i], im[3][i]
				d[4], d[5], d[6], d[7] = im[4][i], im[5][i], im[6][i], im[7][i]
			case nb == 8:
				im[0][i], im[1][i], im[2][i], im[3][i] = d[0], d[1], d[2], d[3]
				im[4][i], im[5][i], im[6][i], im[7][i] = d[4], d[5], d[6], d[7]
			case stage:
				for k := range d {
					d[k] = im[k][i]
				}
			default:
				for k, v := range d {
					im[k][i] = v
				}
			}
		}
	}
}

// transposeRows writes the transpose of the row-major rows×cols matrix
// src into dst (cols×rows). It moves a minibatch's output between the
// (B, OutC·N) image-major layout and the (OutC·N, B) column order.
// Source rows go eight at a time, so every write fills a cache line
// rather than striding a whole row apart.
func transposeRows(dst, src []float64, rows, cols int) {
	r0 := 0
	for ; r0+8 <= rows; r0 += 8 {
		s0 := src[r0*cols : (r0+1)*cols]
		s1 := src[(r0+1)*cols : (r0+2)*cols][:len(s0)]
		s2 := src[(r0+2)*cols : (r0+3)*cols][:len(s0)]
		s3 := src[(r0+3)*cols : (r0+4)*cols][:len(s0)]
		s4 := src[(r0+4)*cols : (r0+5)*cols][:len(s0)]
		s5 := src[(r0+5)*cols : (r0+6)*cols][:len(s0)]
		s6 := src[(r0+6)*cols : (r0+7)*cols][:len(s0)]
		s7 := src[(r0+7)*cols : (r0+8)*cols][:len(s0)]
		for c := range s0 {
			d := dst[c*rows+r0 : c*rows+r0+8]
			d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
			d[4], d[5], d[6], d[7] = s4[c], s5[c], s6[c], s7[c]
		}
	}
	for r := r0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// convZeroRun zeroes count packed elements of one B-panel row, starting
// at write index di with intra-panel offset j; hop is the (k-1)·nr jump
// between consecutive panels of the same row. It returns the advanced
// (di, j) so the packer can thread a whole row's runs through
// sequentially — no index division anywhere (nr is a variable, so a
// pos/nr per run would be a hardware divide on the hottest path).
func convZeroRun(packed []float64, nr, hop, di, j, count int) (int, int) {
	for count > 0 {
		c := min(nr-j, count)
		clear(packed[di : di+c])
		di += c
		if j += c; j == nr {
			di += hop
			j = 0
		}
		count -= c
	}
	return di, j
}

// convCopyRun copies count contiguous staged values starting at in[si]
// into one B-panel row at (di, j) — the same threading contract as
// convZeroRun. Chunks are short (≤ nr), so inline element loops beat
// memmove calls; the aligned full-chunk case is unrolled for the AVX2
// panel width, since it is the inner loop of every forward gather.
func convCopyRun(packed, in []float64, nr, hop, di, j, count, si int) (int, int) {
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
		c := min(nr-j, count)
		copy(packed[di:di+c], in[si:si+c])
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

// packConvCols gathers column panels [pLo, pHi) of the implicit K×N
// column matrix of a batch-image minibatch (N = OutH·OutW·batch, column
// j = pos·batch + b) from its staged input into GEBP B-panel layout:
// packed[(p-pLo)·K·nr + kk·nr + jj] = cols[kk][p·nr+jj]. Every tap of an
// output row is one contiguous staged run, so a row of the panel block
// is a few copies. Lanes past column N in the ragged last panel are
// zeroed; they only feed accumulators that clipped stores drop. packed
// must hold (pHi-pLo)·K·nr elements.
func packConvCols(packed, staged []float64, g *ConvGeom, batch, nr, pLo, pHi int) {
	k, n := g.K(), g.Cols()*batch
	colLo := pLo * nr
	padEnd := pHi * nr
	colHi := min(padEnd, n)
	hop := (k - 1) * nr
	rowLen := g.OutW * batch
	step := g.stagedRow(batch)
	oy0, off0 := colLo/rowLen, colLo%rowLen
	for kk, cell := range g.tapCell {
		di, j := kk*nr, 0
		src := cell*batch + oy0*step
		for c, off := colLo, off0; c < colHi; c, off, src = c+rowLen-off, 0, src+step {
			di, j = convCopyRun(packed, staged, nr, hop, di, j, min(rowLen-off, colHi-c), src+off)
		}
		if padEnd > colHi {
			convZeroRun(packed, nr, hop, di, j, padEnd-colHi)
		}
	}
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
// fit the pack-buffer budget (at least one).
func convPackBlock(g *ConvGeom, nr int) int {
	return max(convPackBlockFloats/(g.K()*nr), 1)
}

// convGrain returns a panel/channel sharding grain for units of the
// given per-unit cost: enough units per chunk that each chunk is at
// least one matMulCutoff worth of work. Depends only on the geometry
// and batch size, so chunk boundaries are fixed per call shape at any
// width.
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
// escapes), and all transient buffers — the staged input, the
// column-order output and g_out, the input-gradient planes — come from
// the shared Scratch arena and go back before the call returns. A
// ConvKernel is owned by one layer and is not goroutine-safe; the
// parallelism inside a call shards over disjoint output tiles.
type ConvKernel struct {
	g    ConvGeom
	impl *kernelImpl

	fwdGrain int // forward: panels per shard chunk
	fwdBlock int // panels per cache-resident gather block

	// Per-call operands, set by Forward/Backward before dispatching the
	// persistent shard closures, cleared after.
	batch      int
	w, out     []float64 // out: forward product in column order
	staged     []float64 // stageInput of the call's input
	gout       []float64 // backward: g_out in column order
	goutT      []float64 // backward: g_outᵀ in nr-wide channel panels
	gradW      []float64
	gradStaged []float64 // backward: staged input-gradient planes
	packedW    []float64 // forward: W's full row blocks
	fwdShard   func(lo, hi int)
	bwdChShard func(lo, hi int)
	bwdWShard  func(lo, hi int)
}

// NewConvKernel builds the implicit-GEMM kernel for a geometry using the
// dispatched implementation.
func NewConvKernel(g ConvGeom) *ConvKernel {
	return newConvKernel(g, kern)
}

// newConvKernel is the implementation-injection constructor the
// bit-identity tests use to exercise every kernelImpl explicitly.
func newConvKernel(g ConvGeom, impl *kernelImpl) *ConvKernel {
	if len(g.tapCell) != g.K() {
		panic("tensor: ConvKernel needs a geometry built by NewConvGeom")
	}
	ck := &ConvKernel{
		g: g, impl: impl,
		fwdGrain: convGrain(impl.nr * g.K() * g.OutC),
		fwdBlock: convPackBlock(&g, impl.nr),
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
	k, n, nr := g.K(), g.Cols()*ck.batch, ck.impl.nr
	blk := min(ck.fwdBlock, pHi-pLo)
	pb := Scratch.Get(blk * k * nr)
	local := *pb
	for b := pLo; b < pHi; b += blk {
		bHi := min(b+blk, pHi)
		packConvCols(local, ck.staged, g, ck.batch, nr, b, bHi)
		colLo := b * nr
		colHi := min(bHi*nr, n)
		ck.impl.gebpTile(ck.out[colLo:], n, tailRows(ck.w, g.OutC, k), ck.packedW, local, g.OutC, k, colHi-colLo)
	}
	Scratch.Put(pb)
}

// runBwdWShard computes the weight-gradient taps of row blocks
// [bLo, bHi): block b covers taps [b·microM, b·microM+microM). It runs
// the transposed product gradWProdᵀ = cols × g_outᵀ one microM×nr tile
// at a time — microM taps against nr output channels — reading each tap
// straight from its staged input row (no column panel is gathered) and
// g_outᵀ from its channel panels. The fold over the N columns runs one
// output row (OutW·batch columns) per tileStrided call, continuing from
// the stored partial tile, so every element folds ascending column from
// zero exactly as MatMulABTInto does (the product's two factors swap,
// which FMA does not see). Lanes past the last tap re-read a live tap
// and are dropped.
func (ck *ConvKernel) runBwdWShard(bLo, bHi int) {
	g := &ck.g
	k, batch, nr := g.K(), ck.batch, ck.impl.nr
	n := g.Cols() * batch
	rowLen := g.OutW * batch
	step := g.stagedRow(batch)
	var base [microM]int
	var a [microM][]float64
	pt := Scratch.Get(microM * nr)
	tile := *pt
	for b := bLo; b < bHi; b++ {
		t0 := b * microM
		live := min(microM, k-t0)
		for r := range base {
			base[r] = g.tapCell[t0+min(r, live-1)] * batch
		}
		for q := 0; q*nr < g.OutC; q++ {
			bq := ck.goutT[q*n*nr : (q+1)*n*nr]
			for oy := 0; oy < g.OutH; oy++ {
				for r := range a {
					a[r] = ck.staged[base[r]+oy*step:]
				}
				ck.impl.tileStrided(tile, nr, a, 1, bq[oy*rowLen*nr:], nr, rowLen, 1, oy > 0)
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

// runBwdChShard computes the staged input gradient for channels
// [chLo, chHi). It walks the channels' taps in ascending microM-row
// blocks: each block computes its rows of the cols-gradient stripe =
// Wᵀ × g_out with tileStrided, reading weight columns (row stride K) and
// g_out rows (row stride N) in place — fold ascending output channel
// from zero, exactly MatMulATBInto's — then adds each tap's row onto its
// channel's staged gradient plane, one contiguous OutW·batch run per
// output row. Taps reach a plane in ascending order and the plane is
// zeroed before its first tap, which is Col2ImInto's order; adds that
// land on the border are dropped by unstageInput. Rows past the shard's
// last tap re-read a live weight column and are dropped; the ragged
// last nr columns run through a zero-padded copy of g_out.
func (ck *ConvKernel) runBwdChShard(chLo, chHi int) {
	g := &ck.g
	k, batch, nr := g.K(), ck.batch, ck.impl.nr
	n := g.Cols() * batch
	taps := g.KH * g.KW
	outC := g.OutC
	plane := g.stagedLen(batch) / g.InC
	rowLen := g.OutW * batch
	step := g.stagedRow(batch)
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
			if t%taps == 0 {
				clear(ck.gradStaged[t/taps*plane : (t/taps+1)*plane])
			}
			ck.impl.addRows(ck.gradStaged[g.tapCell[t]*batch:], stripe[r*n:(r+1)*n], rowLen, g.OutH, step, rowLen)
		}
	}
	Scratch.Put(ps)
}

// batchOf returns how many images a (batch, InC, InH, InW) input
// holds, panicking unless it is a positive whole number.
func (ck *ConvKernel) batchOf(in []float64) int {
	img := ck.g.InC * ck.g.InH * ck.g.InW
	if len(in) == 0 || len(in)%img != 0 {
		panic(fmt.Sprintf("tensor: ConvKernel in length %d, want a positive multiple of %d (geom %+v)", len(in), img, ck.g))
	}
	return len(in) / img
}

// Forward computes out = W × im2col(in) for every image of a minibatch
// as one product, without materializing the column matrix. in is
// (batch, InC, InH, InW), w is the row-major (OutC × K) filter matrix,
// out is the (batch, OutC, OutH·OutW) pre-bias output. Weights are
// packed once per call (the training path mutates them every step); the
// compiled serving path prepacks once via PrepackConv instead. Output
// column panels shard over the worker pool; each image's output is
// bit-identical to Im2Col+MatMulNaiveInto on it alone, at any width.
func (ck *ConvKernel) Forward(out, in, w []float64) {
	g := &ck.g
	batch := ck.batchOf(in)
	k, n := g.K(), g.Cols()*batch
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("out", out, g.OutC*n)
	var pw *[]float64
	if blocks := g.OutC / microM; blocks > 0 {
		pw = Scratch.Get(blocks * microM * k)
		packRows(*pw, w, k, blocks)
		ck.packedW = *pw
	}
	ps := Scratch.Get(g.stagedLen(batch))
	stageInput(*ps, in, g, batch)
	ck.out = out
	var po *[]float64
	if batch > 1 {
		po = Scratch.Get(g.OutC * n)
		ck.out = *po
	}
	ck.batch, ck.staged, ck.w = batch, *ps, w
	parallel.For((n+ck.impl.nr-1)/ck.impl.nr, ck.fwdGrain, ck.fwdShard)
	if po != nil {
		transposeRows(out, *po, g.OutC*g.Cols(), batch)
		Scratch.Put(po)
	}
	ck.staged, ck.w, ck.out, ck.packedW = nil, nil, nil, nil
	Scratch.Put(ps)
	Scratch.Put(pw)
}

// Backward computes, for a minibatch, the weight-gradient product
// gradWProd = g_out × im2col(in)ᵀ (overwritten, one fold per element
// from zero over the minibatch's columns in ascending column order
// j = pos·batch + b; the caller adds it into the accumulated gradient)
// and the input gradient gradIn (overwritten, each image's bit-equal to
// running it alone), without materializing the column matrix or its
// gradient. gout is the (batch, OutC, OutH·OutW) output gradient; in
// must be the same buffer passed to the matching Forward. Bit-identical
// to the MatMulABTInto / MatMulATBInto+Col2ImInto reference over the
// concatenated minibatch lowering at any width.
func (ck *ConvKernel) Backward(gradWProd, gradIn, in, w, gout []float64) {
	g := &ck.g
	batch := ck.batchOf(in)
	k, n, nr := g.K(), g.Cols()*batch, ck.impl.nr
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("gout", gout, g.OutC*n)
	ck.checkOperand("gradWProd", gradWProd, g.OutC*k)
	ck.checkOperand("gradIn", gradIn, len(in))
	ck.gout = gout
	var pc *[]float64
	if batch > 1 {
		pc = Scratch.Get(g.OutC * n)
		transposeRows(*pc, gout, batch, g.OutC*g.Cols())
		ck.gout = *pc
	}
	pg := Scratch.Get((g.OutC + nr - 1) / nr * nr * n)
	packPanelsT(*pg, ck.gout, n, g.OutC, nr)
	ps := Scratch.Get(g.stagedLen(batch))
	stageInput(*ps, in, g, batch)
	pgi := Scratch.Get(g.stagedLen(batch))
	ck.batch, ck.goutT, ck.staged, ck.gradStaged = batch, *pg, *ps, *pgi
	ck.w, ck.gradW = w, gradWProd
	taps := g.KH * g.KW
	parallel.For(g.InC, convGrain(taps*g.OutC*n), ck.bwdChShard)
	parallel.For((k+microM-1)/microM, convGrain(microM*n*g.OutC), ck.bwdWShard)
	unstageInput(gradIn, *pgi, g, batch)
	ck.goutT, ck.staged, ck.gradStaged, ck.w, ck.gout, ck.gradW = nil, nil, nil, nil, nil, nil
	Scratch.Put(pgi)
	Scratch.Put(ps)
	Scratch.Put(pg)
	Scratch.Put(pc)
}

func (ck *ConvKernel) checkOperand(name string, s []float64, want int) {
	if len(s) != want {
		panic(fmt.Sprintf("tensor: ConvKernel %s length %d, want %d (geom %+v)", name, len(s), want, ck.g))
	}
}

// PackedConv is a convolution's filter matrix packed once for the
// compiled serving path (the conv analogue of PackedDense): the GEBP
// row blocks plus the raw row-major snapshot for the ragged tail.
// Forward stages and gathers the input per call — that work depends on
// the input — but never packs or copies the weights again.
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
	if len(g.tapCell) != g.K() {
		panic("tensor: PrepackConv needs a geometry built by NewConvGeom")
	}
	p := &PackedConv{g: g, w: append([]float64(nil), w.Data()...)}
	if blocks := g.OutC / microM; blocks > 0 {
		p.packedW = make([]float64, blocks*microM*g.K())
		packRows(p.packedW, p.w, g.K(), blocks)
	}
	p.blk = min(convPackBlock(&p.g, kern.nr), (g.Cols()+kern.nr-1)/kern.nr)
	return p
}

// Geom returns the packed convolution's geometry.
func (p *PackedConv) Geom() ConvGeom { return p.g }

// PackedColsLen returns the scratch length Forward needs — the staged
// input plus one cache-resident gather block — under the active
// kernel's geometry.
func (p *PackedConv) PackedColsLen() int {
	return p.g.stagedLen(1) + p.blk*p.g.K()*kern.nr
}

// Forward computes the pre-bias (OutC × N) output of one image
// sequentially — the compiled-plan contract puts parallelism above the
// plan — staging the input and gathering its receptive-field columns in
// the caller-owned scratch (length ≥ PackedColsLen) and running one GEBP
// over the prepacked filters. No allocation, no weight packing,
// bit-identical to the training path and the naive reference.
func (p *PackedConv) Forward(out, in, scratch []float64) {
	g := &p.g
	k, n, nr := g.K(), g.Cols(), kern.nr
	if len(in) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: PackedConv input %d, want %d", len(in), g.InC*g.InH*g.InW))
	}
	if len(out) != g.OutC*n {
		panic(fmt.Sprintf("tensor: PackedConv output %d, want %d", len(out), g.OutC*n))
	}
	if need := p.PackedColsLen(); len(scratch) < need {
		panic(fmt.Sprintf("tensor: PackedConv scratch %d, need %d", len(scratch), need))
	}
	staged, packedCols := scratch[:g.stagedLen(1)], scratch[g.stagedLen(1):]
	stageInput(staged, in, g, 1)
	panels := (n + nr - 1) / nr
	for b := 0; b < panels; b += p.blk {
		bHi := min(b+p.blk, panels)
		packConvCols(packedCols, staged, g, 1, nr, b, bHi)
		colLo := b * nr
		colHi := min(bHi*nr, n)
		kern.gebpTile(out[colLo:], n, tailRows(p.w, g.OutC, k), p.packedW, packedCols, g.OutC, k, colHi-colLo)
	}
}
