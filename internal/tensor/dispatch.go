// dispatch.go is the init-time CPU-feature dispatch behind the kernel
// layer (DESIGN.md §5g). PR 5's micro-kernels guarded every math.FMA with
// a per-call CPU-feature branch on the default (GOAMD64=v1) build, which
// cost the 4×4 register tile most of its win. Instead of paying that
// branch per multiply, the feature check now runs exactly once, at
// package init, and selects a kernelImpl — a table binding the packed
// matmul micro-kernel (GEBP), the lane-blocked dense forward (GEMV) and
// their packing geometry. amd64 hosts with FMA+AVX2 get hand-written
// assembly kernels with a wider 4×8 tile; every other host gets the
// portable Go kernels.
//
// Determinism contract: every implementation folds each output element's
// terms in ascending-k order from zero with math.FMA (one rounding per
// term) — the matmul family and the dense forward alike, so the serving
// GEMV reproduces the training layer's GEMM bit for bit — and results
// are bit-identical across implementations, builds and worker counts.
// Packing geometry (panel width nr, dense lane count) varies per
// implementation, but geometry only decides which elements are computed
// together — never the per-element fold order.
package tensor

import (
	"math"
	"os"
)

// kernelImpl is one selectable kernel implementation. All fields are
// bound once at package init; pack-once callers (PackDense, PrepackConv) bake
// the implementation's geometry into their packed buffers, which is safe
// precisely because the selection never changes after init.
type kernelImpl struct {
	// name identifies the implementation ("generic", "avx2") for
	// diagnostics and the AUTONOMIZER_KERNEL override.
	name string

	// nr is the packed-B panel width of the GEBP micro-kernel. The
	// micro-tile is microM×nr.
	nr int

	// gebpTile computes an m×cols output tile from packed operands:
	// dst[i*ldd+j] (i < m, j < cols) = packed(a)×packed(b), where dst
	// points at the tile origin inside a row-major matrix of row stride
	// ldd ≥ cols. packedA holds a's full microM-row blocks (kk-major),
	// packedB holds ceil(cols/nr) nr-wide zero-padded column panels
	// (kk-major) local to the tile, and a holds the ragged row tail —
	// rows [m/microM·microM, m), row-major (see tailRows) — read only
	// when m is not a multiple of microM. The tile form is what lets
	// implicit-GEMM convolution aim the micro-kernel at arbitrary strided
	// sub-blocks of the output feature map; gebpRows adapts it back to
	// whole-matrix row sharding.
	gebpTile func(dst []float64, ldd int, a, packedA, packedB []float64, m, k, cols int)

	// tileStrided computes a row of panels microM×nr tiles from strided,
	// unpacked operands: c[r*ldc+j] = Σ_kk a[r][kk*sa]·b[kk*ldb+j] for
	// r < microM, j < panels·nr, folded ascending-k with math.FMA from
	// zero — or from c's current values when acc is set (a fold stored
	// and reloaded is the same fold, so a caller may split one k loop
	// over several calls). sa may be 0. Implicit-GEMM conv backward uses
	// it to read taps straight from input rows, weight columns and g_out
	// rows without packing them.
	tileStrided func(c []float64, ldc int, a [microM][]float64, sa int, b []float64, ldb, k, panels int, acc bool)

	// addRows adds rows of src into rows of dst: dst[r*ldd+i] +=
	// src[r*lds+i] for r < rows, i < n, each sum with the dst value as
	// its first operand (which fixes the NaN payload a sum of two NaNs
	// keeps). It is the unit-stride col2im accumulate of conv backward.
	addRows func(dst, src []float64, n, rows, ldd, lds int)

	// lanes is the dense-forward output block width: gemv processes
	// blocks of this many outputs at once, one independent FMA chain per
	// output lane.
	lanes int

	// gemv computes dst[0:blocks*lanes] = W·x + bias over lane-packed
	// weights: packedW[blk*k*lanes + kk*lanes + lane] = W[blk*lanes+lane][kk].
	// Each output folds ascending-k with math.FMA from zero, then adds
	// its bias once — the exact semantics of the Dense layer's X·Wᵀ GEMM
	// followed by its bias pass.
	gemv func(dst, packedW, x, bias []float64, blocks, k int)
}

// genericImpl is the portable Go implementation, available everywhere:
// the 4×4 math.FMA GEBP tile from PR 5 and a 4-lane dense forward.
var genericImpl = &kernelImpl{
	name:        "generic",
	nr:          microN,
	gebpTile:    matMulPackedTile,
	tileStrided: tileStridedGeneric,
	addRows:     addRowsGeneric,
	lanes:       4,
	gemv:        gemvGeneric,
}

// kern is the implementation selected at package init. Immutable
// afterwards (tests that need to exercise a specific implementation call
// its functions directly).
var kern = pickKernel()

// KernelName reports which kernel implementation was selected at init
// ("avx2", "generic"), for diagnostics and bench provenance.
func KernelName() string { return kern.name }

// pickKernel selects the kernel implementation: the architecture's
// accelerated kernels when the CPU supports them, the generic Go kernels
// otherwise. AUTONOMIZER_KERNEL=generic forces the portable kernels (the
// escape hatch for A/B benchmarking and for diagnosing a miscompiled
// accelerated path); AUTONOMIZER_KERNEL=<name> selects an accelerated
// implementation only if it is actually available.
func pickKernel() *kernelImpl {
	want := os.Getenv("AUTONOMIZER_KERNEL")
	if want == genericImpl.name {
		return genericImpl
	}
	if k := archKernel(); k != nil && (want == "" || want == k.name) {
		return k
	}
	return genericImpl
}

// tileStridedGeneric is the portable kernelImpl.tileStrided: 4×4
// tiles, sixteen FMA chains each, so every loaded b value feeds four
// rows.
func tileStridedGeneric(c []float64, ldc int, a [microM][]float64, sa int, b []float64, ldb, k, panels int, acc bool) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for j0 := 0; j0 < panels*microN; j0 += microN {
		d0 := c[j0 : j0+microN]
		d1 := c[ldc+j0 : ldc+j0+microN]
		d2 := c[2*ldc+j0 : 2*ldc+j0+microN]
		d3 := c[3*ldc+j0 : 3*ldc+j0+microN]
		var c00, c01, c02, c03, c10, c11, c12, c13 float64
		var c20, c21, c22, c23, c30, c31, c32, c33 float64
		if acc {
			c00, c01, c02, c03 = d0[0], d0[1], d0[2], d0[3]
			c10, c11, c12, c13 = d1[0], d1[1], d1[2], d1[3]
			c20, c21, c22, c23 = d2[0], d2[1], d2[2], d2[3]
			c30, c31, c32, c33 = d3[0], d3[1], d3[2], d3[3]
		}
		for kk, ai := 0, 0; kk < k; kk, ai = kk+1, ai+sa {
			q := b[kk*ldb+j0 : kk*ldb+j0+microN]
			b0, b1, b2, b3 := q[0], q[1], q[2], q[3]
			av := a0[ai]
			c00 = math.FMA(av, b0, c00)
			c01 = math.FMA(av, b1, c01)
			c02 = math.FMA(av, b2, c02)
			c03 = math.FMA(av, b3, c03)
			av = a1[ai]
			c10 = math.FMA(av, b0, c10)
			c11 = math.FMA(av, b1, c11)
			c12 = math.FMA(av, b2, c12)
			c13 = math.FMA(av, b3, c13)
			av = a2[ai]
			c20 = math.FMA(av, b0, c20)
			c21 = math.FMA(av, b1, c21)
			c22 = math.FMA(av, b2, c22)
			c23 = math.FMA(av, b3, c23)
			av = a3[ai]
			c30 = math.FMA(av, b0, c30)
			c31 = math.FMA(av, b1, c31)
			c32 = math.FMA(av, b2, c32)
			c33 = math.FMA(av, b3, c33)
		}
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		d2[0], d2[1], d2[2], d2[3] = c20, c21, c22, c23
		d3[0], d3[1], d3[2], d3[3] = c30, c31, c32, c33
	}
}

// addRowsGeneric is the portable kernelImpl.addRows.
func addRowsGeneric(dst, src []float64, n, rows, ldd, lds int) {
	for r := 0; r < rows; r++ {
		d := dst[r*ldd : r*ldd+n]
		s := src[r*lds : r*lds+n]
		for i := range d {
			d[i] += s[i]
		}
	}
}

// gemvGeneric is the portable lane-blocked dense forward: 4 independent
// FMA chains, one per output lane, folding ascending-k from zero, then
// the bias — bit-identical to the Dense layer's GEMM forward per output.
func gemvGeneric(dst, packedW, x, bias []float64, blocks, k int) {
	const lanes = 4
	for blk := 0; blk < blocks; blk++ {
		p := packedW[blk*k*lanes : (blk+1)*k*lanes]
		var c0, c1, c2, c3 float64
		for kk := 0; kk < k; kk++ {
			q := p[kk*lanes:]
			_ = q[3]
			xv := x[kk]
			c0 = math.FMA(q[0], xv, c0)
			c1 = math.FMA(q[1], xv, c1)
			c2 = math.FMA(q[2], xv, c2)
			c3 = math.FMA(q[3], xv, c3)
		}
		o := blk * lanes
		b := bias[o:]
		_ = b[3]
		d := dst[o:]
		_ = d[3]
		d[0], d[1], d[2], d[3] = c0+b[0], c1+b[1], c2+b[2], c3+b[3]
	}
}
