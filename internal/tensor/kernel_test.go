package tensor

import (
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/parallel"
)

// refMatMul is the per-element semantic reference for every product
// kernel: each output element folds its k terms with math.FMA in
// ascending order from zero. at/bt select the transpose-free index
// remappings.
func refMatMul(a, b *Tensor, at, bt bool) *Tensor {
	var m, k, n int
	switch {
	case at:
		m, k, n = a.shape[1], a.shape[0], b.shape[1]
	case bt:
		m, k, n = a.shape[0], a.shape[1], b.shape[0]
	default:
		m, k, n = a.shape[0], a.shape[1], b.shape[1]
	}
	dst := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				var av, bv float64
				if at {
					av = a.data[kk*m+i]
				} else {
					av = a.data[i*k+kk]
				}
				if bt {
					bv = b.data[j*k+kk]
				} else {
					bv = b.data[kk*n+j]
				}
				s = math.FMA(av, bv, s)
			}
			dst.data[i*n+j] = s
		}
	}
	return dst
}

// kernelShapes covers the edge and straddle cases every kernel must get
// right: degenerate 1×N / N×1 / 1×1, zero dimensions, shapes straddling
// the 4×4 register tile, the blockCutoff boundary between the naive and
// packed paths, and shapes big enough to shard across workers
// (m·k·n ≥ matMulCutoff).
var kernelShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {1, 16, 33}, {33, 16, 1},
	{0, 5, 4}, {5, 0, 4}, {5, 4, 0},
	{3, 5, 3}, {4, 4, 4}, {5, 9, 7}, {8, 8, 8}, {9, 13, 11},
	{12, 14, 48},               // 8064 flops: just below blockCutoff
	{12, 16, 48}, {16, 32, 16}, // just above blockCutoff
	{64, 64, 64}, {65, 50, 67}, // above matMulCutoff: sharded
}

func workersList() []int { return []int{1, 2, 8} }

// TestMatMulIntoMatchesNaive checks the blocked kernel is bit-identical
// to the naive reference at every shape and worker width.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, sh := range kernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(m, k), New(k, n)
		fillPseudo(a, 11)
		fillPseudo(b, 12)
		want := MatMulNaiveInto(New(m, n), a, b)
		for _, w := range workersList() {
			parallel.SetWorkers(w)
			got := MatMulInto(New(m, n), a, b)
			bitsEqual(t, "MatMulInto", want, got)
		}
	}
}

// TestMatMulATBMatchesReference checks the transpose-free aᵀ×b kernel
// against the ascending-k reference at every shape and width.
func TestMatMulATBMatchesReference(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, sh := range kernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(k, m), New(k, n) // a is stored transposed
		fillPseudo(a, 21)
		fillPseudo(b, 22)
		want := refMatMul(a, b, true, false)
		for _, w := range workersList() {
			parallel.SetWorkers(w)
			bitsEqual(t, "MatMulATBInto", want, MatMulATBInto(New(m, n), a, b))
		}
	}
}

// TestMatMulABTMatchesReference checks the transpose-free a×bᵀ kernel
// against the ascending-k reference at every shape and width.
func TestMatMulABTMatchesReference(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, sh := range kernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(m, k), New(n, k) // b is stored transposed
		fillPseudo(a, 31)
		fillPseudo(b, 32)
		want := refMatMul(a, b, false, true)
		for _, w := range workersList() {
			parallel.SetWorkers(w)
			bitsEqual(t, "MatMulABTInto", want, MatMulABTInto(New(m, n), a, b))
		}
	}
}

// TestMatMulNaNInfPropagation is the regression test for the old MatMul
// zero-skip: skipping av == 0 dropped IEEE-754 propagation, because
// 0×NaN and 0×Inf are NaN, not 0. Both the sequential (below-cutoff) and
// the sharded/blocked (above-cutoff, multiple workers) paths must keep
// the poison.
func TestMatMulNaNInfPropagation(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)

	check := func(name string, m, k, n int) {
		a, b := New(m, k), New(k, n)
		fillPseudo(a, 41)
		fillPseudo(b, 42)
		// Row 0 of a is all zeros; b carries NaN and Inf in column 0 and
		// column n-1 of row 0. 0×NaN = NaN and 0×Inf = NaN must reach the
		// output despite every multiplier being zero.
		for kk := 0; kk < k; kk++ {
			a.data[kk] = 0
		}
		b.data[0] = math.NaN()
		b.data[n-1] = math.Inf(1)
		for _, w := range []int{1, 2, 8} {
			parallel.SetWorkers(w)
			got := MatMul(a, b)
			if !math.IsNaN(got.data[0]) {
				t.Errorf("%s workers=%d: 0×NaN gave %v, want NaN", name, w, got.data[0])
			}
			if !math.IsNaN(got.data[n-1]) {
				t.Errorf("%s workers=%d: 0×Inf gave %v, want NaN", name, w, got.data[n-1])
			}
		}
	}
	check("sequential", 2, 3, 4) // below blockCutoff: naive inline path
	check("blocked", 64, 64, 64) // packed, sharded path
}

// TestTransposeIntoEdgeShapes checks the destination-passing transpose on
// degenerate and sharded shapes.
func TestTransposeIntoEdgeShapes(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {0, 4}, {4, 0}, {257, 193}} {
		m, n := sh[0], sh[1]
		a := New(m, n)
		fillPseudo(a, 51)
		got := TransposeInto(New(n, m), a)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if got.data[j*m+i] != a.data[i*n+j] {
					t.Fatalf("Transpose(%d,%d): [%d %d] mismatch", m, n, j, i)
				}
			}
		}
	}
}

// TestKernelDstValidation checks the destination-shape panics.
func TestKernelDstValidation(t *testing.T) {
	a, b := New(3, 4), New(4, 5)
	for name, fn := range map[string]func(){
		"MatMulInto":    func() { MatMulInto(New(3, 4), a, b) },
		"MatMulATBInto": func() { MatMulATBInto(New(3, 5), a, b) }, // aᵀ×b is 4×5
		"MatMulABTInto": func() { MatMulABTInto(New(4, 4), New(3, 5), b) },
		"TransposeInto": func() { TransposeInto(New(3, 4), a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad destination did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestArenaReuse checks the size-class arithmetic and that a returned
// buffer is actually recycled (same backing array on the next Get of the
// same class).
func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	p := ar.Get(100)
	if len(*p) != 100 {
		t.Fatalf("Get(100) len = %d", len(*p))
	}
	if cap(*p) != 128 {
		t.Fatalf("Get(100) cap = %d, want the 128 size class", cap(*p))
	}
	(*p)[0] = 42
	ar.Put(p)
	q := ar.Get(128) // same class: must reuse the pooled buffer
	// sync.Pool drops items at random under the race runtime, so the
	// identity assertion only holds in a normal build.
	if !raceEnabled && q != p {
		t.Errorf("Get after Put did not recycle the buffer")
	}
	if len(*q) != 128 {
		t.Errorf("Get(128) len = %d", len(*q))
	}

	// Tiny requests round up to the smallest class.
	s := ar.Get(1)
	if cap(*s) != arenaMinClass {
		t.Errorf("Get(1) cap = %d, want %d", cap(*s), arenaMinClass)
	}
	// Oversized requests fall through to plain make and are not pooled.
	huge := 1<<arenaMaxBits + 1
	h := ar.Get(huge)
	if len(*h) != huge {
		t.Errorf("oversized Get len = %d, want %d", len(*h), huge)
	}
	ar.Put(h)   // dropped, must not corrupt a class
	ar.Put(nil) // no-op
	if got := ar.Get(64); cap(*got) != 64 {
		t.Errorf("smallest class cap = %d after oversized Put", cap(*got))
	}
}

// TestReuse checks the layer-scratch primitive: recycle when capacity
// suffices, allocate otherwise.
func TestReuse(t *testing.T) {
	a := New(4, 8)
	a.Fill(7)
	b := Reuse(a, 2, 16) // same element count: must recycle
	if &b.Data()[0] != &a.Data()[0] {
		t.Errorf("Reuse with sufficient capacity reallocated")
	}
	if b.Shape()[0] != 2 || b.Shape()[1] != 16 {
		t.Errorf("Reuse shape = %v", b.Shape())
	}
	c := Reuse(b, 3, 16) // larger: must allocate fresh
	if c.Size() != 48 {
		t.Fatalf("Reuse grow size = %d", c.Size())
	}
	for _, v := range c.Data() {
		if v != 0 {
			t.Fatalf("grown Reuse not zeroed")
		}
	}
	if d := Reuse(nil, 3); d.Size() != 3 {
		t.Errorf("Reuse(nil) size = %d", d.Size())
	}
}

// TestViewOf checks the allocation-free reshape header.
func TestViewOf(t *testing.T) {
	src := New(2, 6)
	fillPseudo(src, 61)
	v := View(nil, src, 3, 4)
	if &v.Data()[0] != &src.Data()[0] {
		t.Fatalf("View does not share data")
	}
	v2 := View(v, src, 12)
	if v2 != v {
		t.Errorf("View allocated a new header instead of recycling")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("View with mismatched count did not panic")
		}
	}()
	View(v, src, 5)
}
