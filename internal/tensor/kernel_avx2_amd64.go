//go:build amd64

package tensor

import "math"

// The AVX2+FMA kernel implementation. The hot loops live in
// kernel_avx2_amd64.s; this file holds the Go drivers that walk the
// packed operands, call the assembly on full tiles, and fall back to
// portable scalar code on the ragged edges. Selected at package init by
// archKernel when the CPU supports FMA3+AVX2 (see feature_amd64.go).
//
// Determinism: the assembly folds every output element's terms in
// ascending-k order with exactly the reference operation — one fused
// multiply-add per term (VFMADD231PD lanes are the vector form of
// math.FMA), for the GEBP matmul tile and the dense GEMV lanes alike —
// so results are bit-identical to the generic Go kernels and to the
// naive references.

const (
	// avx2NR is the packed-B panel width: the GEBP micro-tile is 4×8,
	// held in eight YMM accumulators across the full k loop.
	avx2NR = 8
	// avx2Lanes is the dense-forward block width: 16 outputs per block,
	// four independent YMM FMA chains.
	avx2Lanes = 16
)

var avx2Impl = &kernelImpl{
	name:        "avx2",
	nr:          avx2NR,
	gebpTile:    gebpTileAVX2,
	tileStrided: tileStridedAVX2,
	addRows:     addRowsAVX2,
	lanes:       avx2Lanes,
	gemv:        gemvAVX2,
}

// dgemm4x8 computes a full 4×8 tile: dst[r][c] (row stride n) gets
// Σ_kk pa[kk*4+r]·pb[kk*8+c], folded ascending-k with FMA from zero.
//
//go:noescape
func dgemm4x8(dst, pa, pb *float64, k, n int)

// dgemm4x8s computes panels consecutive 4×8 tiles from strided
// operands: c[r][8p+j] (row stride ldc) gets Σ_kk ar[kk*sa]·b[kk*ldb+8p+j],
// folded ascending-k with FMA from zero, or from c's current values
// when acc is set.
//
//go:noescape
func dgemm4x8s(c, a0, a1, a2, a3, b *float64, sa, ldb, ldc, k, panels int, acc bool)

// addRows adds rows of src into rows of dst: dst[r*ldd+i] +=
// src[r*lds+i] for r < rows, i < n.
//
//go:noescape
func addRows(dst, src *float64, n, rows, ldd, lds int)

// gemv16 computes one 16-output dense block: dst[l] = Σ_kk
// w[kk*16+l]·x[kk] + bias[l], each lane an independent ascending-k FMA
// chain from zero, the bias added after the fold.
//
//go:noescape
func gemv16(dst, w, x, bias *float64, k int)

// gebpTileAVX2 is the AVX2 GEBP tile driver: full 4-row × 8-column
// tiles go to the assembly micro-kernel (dgemm4x8's n operand is purely
// the dst row stride, so ldd aims it at arbitrary sub-tiles); the
// ragged column panel computes into a stack tile and clips the store;
// the ragged row tail past the last full row block runs a scalar 1×8
// kernel over the row-major tail rows in a, exactly like the generic
// implementation.
func gebpTileAVX2(dst []float64, ldd int, a, packedA, packedB []float64, m, k, cols int) {
	panels := (cols + avx2NR - 1) / avx2NR
	var tile [microM * avx2NR]float64
	i := 0
	for ; i+microM <= m; i += microM {
		r := i / microM
		pa := packedA[r*k*microM:]
		for p := 0; p < panels; p++ {
			pb := packedB[p*k*avx2NR:]
			j0 := p * avx2NR
			if j0+avx2NR <= cols {
				dgemm4x8(&dst[i*ldd+j0], &pa[0], &pb[0], k, ldd)
				continue
			}
			dgemm4x8(&tile[0], &pa[0], &pb[0], k, avx2NR)
			w := cols - j0
			for ii := 0; ii < microM; ii++ {
				copy(dst[(i+ii)*ldd+j0:(i+ii)*ldd+cols], tile[ii*avx2NR:ii*avx2NR+w])
			}
		}
	}
	for t := 0; i < m; i, t = i+1, t+1 {
		arow := a[t*k : (t+1)*k]
		drow := dst[i*ldd : i*ldd+cols]
		for p := 0; p < panels; p++ {
			pb := packedB[p*k*avx2NR:]
			var c [avx2NR]float64
			for kk := 0; kk < k; kk++ {
				q := pb[kk*avx2NR:]
				_ = q[7]
				av := arow[kk]
				c[0] = math.FMA(av, q[0], c[0])
				c[1] = math.FMA(av, q[1], c[1])
				c[2] = math.FMA(av, q[2], c[2])
				c[3] = math.FMA(av, q[3], c[3])
				c[4] = math.FMA(av, q[4], c[4])
				c[5] = math.FMA(av, q[5], c[5])
				c[6] = math.FMA(av, q[6], c[6])
				c[7] = math.FMA(av, q[7], c[7])
			}
			j0 := p * avx2NR
			w := cols - j0
			if w > avx2NR {
				w = avx2NR
			}
			copy(drow[j0:j0+w], c[:w])
		}
	}
}

// tileStridedAVX2 is the AVX2 kernelImpl.tileStrided: one dgemm4x8s
// call, after bounds checks on the last element the assembly touches in
// each operand.
func tileStridedAVX2(c []float64, ldc int, a [microM][]float64, sa int, b []float64, ldb, k, panels int, acc bool) {
	if panels <= 0 {
		return
	}
	_ = c[(microM-1)*ldc+panels*avx2NR-1]
	if k > 0 {
		for r := range a {
			_ = a[r][(k-1)*sa]
		}
		_ = b[(k-1)*ldb+panels*avx2NR-1]
	}
	dgemm4x8s(&c[0], &a[0][0], &a[1][0], &a[2][0], &a[3][0], &b[0], sa, ldb, ldc, k, panels, acc)
}

// addRowsAVX2 is the AVX2 kernelImpl.addRows: one addRows call, after
// bounds checks on the last element it touches in each operand.
func addRowsAVX2(dst, src []float64, n, rows, ldd, lds int) {
	if n <= 0 || rows <= 0 {
		return
	}
	_ = dst[(rows-1)*ldd+n-1]
	_ = src[(rows-1)*lds+n-1]
	addRows(&dst[0], &src[0], n, rows, ldd, lds)
}

// gemvAVX2 runs the 16-lane assembly block over the packed dense
// weights; the caller (PackedDense.Forward) handles the out%16 tail with
// a scalar FMA fold.
func gemvAVX2(dst, packedW, x, bias []float64, blocks, k int) {
	if k == 0 {
		copy(dst[:blocks*avx2Lanes], bias[:blocks*avx2Lanes])
		return
	}
	for blk := 0; blk < blocks; blk++ {
		o := blk * avx2Lanes
		gemv16(&dst[o], &packedW[blk*k*avx2Lanes], &x[0], &bias[o], k)
	}
}
