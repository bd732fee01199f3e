// kernel.go holds the cache-blocked, destination-passing matrix kernels
// behind the NN hot path. Three ideas, layered:
//
//   - Destination passing: every kernel has an *Into form that writes into
//     a caller-owned tensor, so steady-state forward/backward passes reuse
//     scratch instead of allocating per call.
//
//   - Transpose-free products: MatMulATBInto computes aᵀ×b and
//     MatMulABTInto computes a×bᵀ by packing the transposed operand
//     straight into the micro-kernel's layout, so the dense layer's three
//     batch products (X·Wᵀ, Gᵀ·X, G·W) never materialize a transposed
//     copy.
//
//   - Cache blocking: all three products pack b into panel-major
//     micro-panels (one contiguous stream per nr-column panel) and a into
//     4-row blocks, then run the dispatched GEBP micro-kernel (dispatch.go),
//     so each loaded value feeds several flops instead of one.
//
// Determinism contract: every kernel folds each output element's terms
// with math.FMA in ascending-k order starting from zero. Blocking
// reorders which elements are computed when, never the per-element fold
// order, and sharding assigns whole output rows to workers — so all
// results are bit-identical to the naive reference kernel at any worker
// count. The equivalence is enforced by tests against MatMulNaiveInto.
//
// math.FMA (fused multiply-add, a single rounding per term) is the
// per-term operation everywhere, including the naive reference: it
// compiles to one instruction on every modern CPU and roughly halves the
// floating-point op count of the register micro-kernels. What matters
// for determinism is only that every path uses the same operation in
// the same order.
package tensor

import (
	"fmt"
	"math"
	"sync"

	"github.com/autonomizer/autonomizer/internal/parallel"
)

// microM×microN is the register micro-tile: 16 accumulators held in
// registers across the full k loop, fed by 8 loads per iteration.
const (
	microM = 4
	microN = 4
)

// blockCutoff is the m·k·n flop count below which the single-pass naive
// loop beats the pack-and-block path's setup cost.
const blockCutoff = 8 * 1024

// matMulDims validates a rank-2 product a×b and returns (m, k, n).
func matMulDims(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d vs %d", k, b.shape[0]))
	}
	return m, k, b.shape[1]
}

// checkDst validates a rank-2 destination shape.
func checkDst(dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d]", dst.shape, m, n))
	}
}

// rowGrain returns the row-sharding grain for an m-row kernel whose rows
// cost k·n flops each: enough rows per chunk that each chunk is at least
// one matMulCutoff worth of work.
func rowGrain(k, n int) int {
	if g := matMulCutoff / (k*n + 1); g > 1 {
		return g
	}
	return 1
}

// MatMulInto computes dst = a×b, overwriting dst (which must be a
// caller-owned m×n tensor distinct from a and b). See gemm for the
// execution strategy; every path is bit-identical to MatMulNaiveInto at
// any worker count.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	checkDst(dst, m, n)
	gemm(dst.data, a.data, b.data, m, k, n, false, false)
	return dst
}

// MatMulATBInto computes dst = aᵀ×b for a (k×m) and b (k×n) without a
// transposed copy of a: dst[i][j] = Σ_kk a[kk][i]·b[kk][j], ascending kk.
// dst is overwritten. This is the dense weight-gradient product
// (gradW = Gᵀ·X), where kk runs over the examples of a batch in
// ascending order.
func MatMulATBInto(dst, a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulATB requires rank-2 tensors")
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulATB inner dimensions %d vs %d", k, b.shape[0]))
	}
	checkDst(dst, m, n)
	gemm(dst.data, a.data, b.data, m, k, n, true, false)
	return dst
}

// MatMulABTInto computes dst = a×bᵀ for a (m×k) and b (n×k) without a
// transposed copy of b: dst[i][j] = Σ_kk a[i][kk]·b[j][kk], ascending kk.
// dst is overwritten. This is the dense forward product (X·Wᵀ).
func MatMulABTInto(dst, a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulABT requires rank-2 tensors")
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulABT inner dimensions %d vs %d", k, b.shape[1]))
	}
	checkDst(dst, m, n)
	gemm(dst.data, a.data, b.data, m, k, n, false, true)
	return dst
}

// gemm computes the m×n product dst = op(a)×op(b), where op(a) is m×k
// and op(b) is k×n. ta says a is stored transposed (k×m), tb that b is
// (n×k). Small products, and products without a full microM-row block,
// run the unpacked naive loop inline. Larger ones pack op(b) into the
// active kernel's nr-wide panels and op(a) into microM-row blocks from
// the shared Scratch arena — reading the transposed layouts directly, so
// no transposed copy is ever made — then run the dispatched GEBP kernel
// over output row-blocks sharded on the worker pool. Each element is
// computed by exactly one fold, ascending-k with math.FMA from zero, so
// the result is the same at any width and on either path.
func gemm(dst, a, b []float64, m, k, n int, ta, tb bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := range dst[:m*n] {
			dst[i] = 0
		}
		return
	}
	if m*k*n < blockCutoff || m < microM || k < microM {
		// Too small, too short (no full row block) or too shallow (k
		// terms cannot amortize a register tile's loads and stores) to
		// pay for packing: fold in place.
		switch {
		case tb:
			matMulABTNaive(dst, a, b, m, k, n)
		case ta:
			matMulNaiveRange(dst, a, b, 1, m, 0, m, k, n)
		default:
			matMulNaiveRange(dst, a, b, k, 1, 0, m, k, n)
		}
		return
	}
	pb := Scratch.Get((n + kern.nr - 1) / kern.nr * kern.nr * k)
	if tb {
		packPanelsT(*pb, b, k, n, kern.nr)
	} else {
		packPanels(*pb, b, k, n, kern.nr)
	}
	// The full row-blocks of op(a) are packed so the micro-kernel streams
	// both operands from contiguous memory; the ragged tail (m % microM
	// rows) stays row-major after them and runs the scalar path.
	blocks := m / microM
	pa := Scratch.Get(m * k)
	packedA := (*pa)[:blocks*microM*k]
	tail := (*pa)[blocks*microM*k:]
	if ta {
		packRowsT(packedA, a, m, k, blocks)
		for r := 0; r < m-blocks*microM; r++ {
			i := blocks*microM + r
			for kk := 0; kk < k; kk++ {
				tail[r*k+kk] = a[kk*m+i]
			}
		}
	} else {
		packRows(packedA, a, k, blocks)
		tail = a[blocks*microM*k : m*k]
	}
	job := gemmJobs.Get().(*gemmJob)
	job.dst, job.tail, job.packedA, job.packedB, job.k, job.n = dst, tail, packedA, *pb, k, n
	parallel.ForAligned(m, rowGrain(k, n), microM, job.run)
	job.dst, job.tail, job.packedA, job.packedB = nil, nil, nil, nil
	gemmJobs.Put(job)
	Scratch.Put(pa)
	Scratch.Put(pb)
}

// gemmJob carries one packed product to its row shards. Jobs are pooled
// with their shard method value bound once, so handing the shard to the
// worker pool allocates nothing in the steady state (a closure over the
// operands would escape to the heap on every call).
type gemmJob struct {
	dst, tail, packedA, packedB []float64
	k, n                        int
	run                         func(lo, hi int)
}

var gemmJobs = sync.Pool{New: func() any {
	j := &gemmJob{}
	j.run = j.rows
	return j
}}

func (j *gemmJob) rows(lo, hi int) {
	gebpRows(kern, j.dst, j.tail, j.packedA, j.packedB, lo, hi, j.k, j.n)
}

// matMulABTNaive is the unpacked a×bᵀ loop (b stored n×k): both
// operands stream row-major in k, four output columns at a time so four
// independent folds overlap. Each output folds ascending-k with math.FMA
// from zero — the reference semantics.
func matMulABTNaive(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 = math.FMA(av, b0[kk], s0)
				s1 = math.FMA(av, b1[kk], s1)
				s2 = math.FMA(av, b2[kk], s2)
				s3 = math.FMA(av, b3[kk], s3)
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s = math.FMA(av, brow[kk], s)
			}
			orow[j] = s
		}
	}
}

// MatMulNaiveInto is the sequential reference kernel: a single-pass ikj
// loop with no blocking, no packing and no sharding, folding terms with
// the same ascending-k math.FMA as the blocked path. It defines the
// bit-exact semantics every optimized kernel must reproduce, and is the
// baseline for BenchmarkKernels. Note the inner loop never skips
// zero multipliers: 0×NaN must stay NaN and 0×Inf must stay NaN, per
// IEEE-754, so sparse shortcuts are not semantics-preserving.
func MatMulNaiveInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	checkDst(dst, m, n)
	dst.Fill(0)
	matMulNaiveRange(dst.data, a.data, b.data, k, 1, 0, m, k, n)
	return dst
}

// matMulNaiveRange computes rows [lo, hi) of dst = op(a)×b with the
// reference ikj loop, where element (i, kk) of op(a) is a[i*ai+kk*ak]
// (ai, ak = k, 1 for a row-major a; 1, m for a stored transposed). dst
// rows are fully overwritten.
func matMulNaiveRange(dst, a, b []float64, ai, ak, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		orow := dst[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := a[i*ai+kk*ak]
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] = math.FMA(av, bv, orow[j])
			}
		}
	}
}

// packPanels packs b (k×n, row-major) into panel-major micro-panels of
// the active kernel's width nr: for panel p covering columns
// [p·nr, p·nr+nr), packed[p·k·nr + kk·nr + jj] = b[kk][p·nr+jj]. The
// ragged last panel is zero-padded; the padding only feeds accumulators
// that are never stored.
func packPanels(packed, b []float64, k, n, nr int) {
	panels := (n + nr - 1) / nr
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := n - j0
		if w > nr {
			w = nr
		}
		dst := packed[p*k*nr : (p+1)*k*nr]
		for kk := 0; kk < k; kk++ {
			d := dst[kk*nr : kk*nr+nr]
			copy(d, b[kk*n+j0:kk*n+j0+w])
			for jj := w; jj < nr; jj++ {
				d[jj] = 0
			}
		}
	}
}

// packRows packs the first blocks·4 rows of a (m×k, row-major) into
// row-major micro-panels: for block r covering rows [r·4, r·4+4),
// packed[r·k·4 + kk·4 + ii] = a[r·4+ii][kk]. Unlike b's column panels no
// padding is needed — callers pack only whole blocks.
func packRows(packed, a []float64, k, blocks int) {
	for r := 0; r < blocks; r++ {
		i0 := r * microM
		dst := packed[r*k*microM : (r+1)*k*microM]
		r0 := a[(i0+0)*k : (i0+1)*k]
		r1 := a[(i0+1)*k : (i0+2)*k]
		r2 := a[(i0+2)*k : (i0+3)*k]
		r3 := a[(i0+3)*k : (i0+4)*k]
		for kk := 0; kk < k; kk++ {
			d := dst[kk*microM:]
			_ = d[3]
			d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		}
	}
}

// packPanelsT is packPanels for a b stored transposed (n×k, so column j
// of the k×n operand is row j of b): the same panel layout, gathered
// from b's rows. A full 8-wide panel (every AVX2 panel but a ragged
// last one) reads its eight rows in step and writes each k step as one
// contiguous group; other panels fill one lane at a time.
func packPanelsT(packed, b []float64, k, n, nr int) {
	for p := 0; p*nr < n; p++ {
		j0 := p * nr
		w := min(nr, n-j0)
		dst := packed[p*k*nr : (p+1)*k*nr]
		if w == 8 && nr == 8 {
			r0, r1, r2, r3 := b[j0*k:(j0+1)*k], b[(j0+1)*k:(j0+2)*k], b[(j0+2)*k:(j0+3)*k], b[(j0+3)*k:(j0+4)*k]
			r4, r5, r6, r7 := b[(j0+4)*k:(j0+5)*k], b[(j0+5)*k:(j0+6)*k], b[(j0+6)*k:(j0+7)*k], b[(j0+7)*k:(j0+8)*k]
			for kk := range r0 {
				d := dst[kk*8 : kk*8+8]
				d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
				d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
			}
			continue
		}
		for jj := 0; jj < nr; jj++ {
			if jj >= w {
				for di := jj; di < len(dst); di += nr {
					dst[di] = 0
				}
				continue
			}
			for kk, v := range b[(j0+jj)*k : (j0+jj+1)*k] {
				dst[kk*nr+jj] = v
			}
		}
	}
}

// packRowsT is packRows for an a stored transposed (k×m): each k step of
// a row block is four consecutive elements of one row of a.
func packRowsT(packed, a []float64, m, k, blocks int) {
	for r := 0; r < blocks; r++ {
		i0 := r * microM
		dst := packed[r*k*microM : (r+1)*k*microM]
		for kk := 0; kk < k; kk++ {
			copy(dst[kk*microM:kk*microM+microM], a[kk*m+i0:kk*m+i0+microM])
		}
	}
}

// storeClipped writes up to four accumulated values into drow starting at
// column j0, dropping the lanes that fall past column n (the padded lanes
// of a ragged panel).
func storeClipped(drow []float64, j0, n int, c0, c1, c2, c3 float64) {
	switch n - j0 {
	case 1:
		drow[j0] = c0
	case 2:
		drow[j0], drow[j0+1] = c0, c1
	case 3:
		drow[j0], drow[j0+1], drow[j0+2] = c0, c1, c2
	default:
		drow[j0], drow[j0+1], drow[j0+2], drow[j0+3] = c0, c1, c2, c3
	}
}

// gebpRows runs an implementation's GEBP tile kernel over output rows
// [lo, hi) of an m×n product whose packed operands cover the full
// matrix: the row-sharding adapter behind gemm. lo is a multiple of
// microM (ForAligned), so the local view of packedA starts on a block
// boundary, and only the last shard reaches the ragged tail rows, which
// tail holds row-major.
func gebpRows(impl *kernelImpl, dst, tail, packedA, packedB []float64, lo, hi, k, n int) {
	var pa []float64
	if off := (lo / microM) * k * microM; off < len(packedA) {
		pa = packedA[off:]
	}
	impl.gebpTile(dst[lo*n:], n, tail, pa, packedB, hi-lo, k, n)
}

// tailRows returns the ragged-row tail of a row-major m×k matrix — rows
// [m/microM·microM, m), the rows GEBP does not pack — as a tile kernel's
// a operand.
func tailRows(a []float64, m, k int) []float64 {
	return a[m/microM*microM*k : m*k]
}

// matMulPackedTile computes the m×cols tile dst[i*ldd+j] (i < m,
// j < cols) = packed(a)×packed(b) with the 4×4 register micro-kernel.
// dst points at the tile origin inside a larger row-major matrix of row
// stride ldd; packedB holds ceil(cols/4) zero-padded column panels local
// to the tile; packedA holds a's full microM-row blocks and a holds the
// ragged row tail (rows [m/4·4, m), row-major), read only there. Both
// packed operands stream from contiguous micro-panels; the loop
// condition on the two slice lengths lets the compiler drop every bounds
// check in the hot loop. Every accumulator folds ascending-k from zero
// with math.FMA, so each stored element is bit-identical to the naive
// loop.
func matMulPackedTile(dst []float64, ldd int, a, packedA, packedB []float64, m, k, cols int) {
	panels := (cols + microN - 1) / microN
	i := 0
	for ; i+microM <= m; i += microM {
		r := i / microM
		pa := packedA[r*k*microM : (r+1)*k*microM]
		for p := 0; p < panels; p++ {
			qa := pa
			qb := packedB[p*k*microN : p*k*microN+len(qa)]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			// qa and qb have identical length (4·k), so the prove pass
			// drops every bounds check in this loop; the ×2 unroll halves
			// the loop overhead per 16-FMA group. The fold order per
			// accumulator stays strictly ascending in k.
			o := 0
			for ; o+8 <= len(qa); o += 8 {
				b0, b1, b2, b3 := qb[o], qb[o+1], qb[o+2], qb[o+3]
				av := qa[o]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[o+1]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[o+2]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[o+3]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
				b0, b1, b2, b3 = qb[o+4], qb[o+5], qb[o+6], qb[o+7]
				av = qa[o+4]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[o+5]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[o+6]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[o+7]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
			}
			for ; o+4 <= len(qa); o += 4 {
				b0, b1, b2, b3 := qb[o], qb[o+1], qb[o+2], qb[o+3]
				av := qa[o]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[o+1]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[o+2]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[o+3]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
			}
			j0 := p * microN
			storeClipped(dst[(i+0)*ldd:(i+0)*ldd+cols], j0, cols, c00, c01, c02, c03)
			storeClipped(dst[(i+1)*ldd:(i+1)*ldd+cols], j0, cols, c10, c11, c12, c13)
			storeClipped(dst[(i+2)*ldd:(i+2)*ldd+cols], j0, cols, c20, c21, c22, c23)
			storeClipped(dst[(i+3)*ldd:(i+3)*ldd+cols], j0, cols, c30, c31, c32, c33)
		}
	}
	// Ragged row tail: 1×4 kernel over the packed b panels, reading the
	// row-major tail rows (they are never packed).
	for t := 0; i < m; i, t = i+1, t+1 {
		arow := a[t*k : (t+1)*k]
		drow := dst[i*ldd : i*ldd+cols]
		for p := 0; p < panels; p++ {
			pb := packedB[p*k*microN : (p+1)*k*microN]
			var c0, c1, c2, c3 float64
			for kk := 0; kk < k; kk++ {
				q := pb[kk*microN:]
				_ = q[3]
				av := arow[kk]
				c0 = math.FMA(av, q[0], c0)
				c1 = math.FMA(av, q[1], c1)
				c2 = math.FMA(av, q[2], c2)
				c3 = math.FMA(av, q[3], c3)
			}
			storeClipped(drow, p*microN, cols, c0, c1, c2, c3)
		}
	}
}

// TransposeInto writes the transpose of rank-2 a into dst (n×m),
// overwriting it. Large inputs shard source rows over the worker pool;
// each source row writes a disjoint stride-m comb of the output, so the
// result is unaffected by sharding.
func TransposeInto(dst, a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	checkDst(dst, n, m)
	grain := m
	if n > 0 && m*n >= matMulCutoff {
		if grain = matMulCutoff / n; grain < 1 {
			grain = 1
		}
	}
	parallel.For(m, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				dst.data[j*m+i] = a.data[i*n+j]
			}
		}
	})
	return dst
}
