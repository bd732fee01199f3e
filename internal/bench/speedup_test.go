package bench

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// speedupWorkload is the NN hot path the parallel engine shards: a
// MatMul above the row-sharding cutoff plus one batch-major training
// batch (sharded GEMMs) on a mid-sized DNN.
func speedupWorkload(b *testing.B) {
	b.Helper()
	rng := stats.NewRNG(5)
	dim := 192
	x := tensor.New(dim, dim)
	y := tensor.New(dim, dim)
	for i := range x.Data() {
		x.Data()[i] = rng.Range(-1, 1)
		y.Data()[i] = rng.Range(-1, 1)
	}
	net := nn.NewDNN(64, []int{128, 64}, 16, rng.Split())
	net.UseAdam(1e-3)
	batch := 32
	ins := make([]*tensor.Tensor, batch)
	outs := make([]*tensor.Tensor, batch)
	for i := range ins {
		in := make([]float64, 64)
		out := make([]float64, 16)
		for j := range in {
			in[j] = rng.Range(-1, 1)
		}
		for j := range out {
			out[j] = rng.Range(-1, 1)
		}
		ins[i] = tensor.FromSlice(in, 64)
		outs[i] = tensor.FromSlice(out, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
		net.TrainBatch(ins, outs)
	}
}

// BenchmarkParallelSpeedup runs the same workload with the engine forced
// sequential (workers=1) and at full width (GOMAXPROCS), the honesty
// gate for the parallel layer: compare the two ns/op figures to get the
// machine's actual speedup (recorded in BENCH_parallel.json).
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fmt.Sprintf("%s-w%d", cfg.name, cfg.workers), func(b *testing.B) {
			prev := parallel.SetWorkers(cfg.workers)
			defer parallel.SetWorkers(prev)
			speedupWorkload(b)
		})
	}
}
