package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// fitSmallModel configures and trains a small supervised model so the
// network is materialized and has non-trivial weights.
func fitSmallModel(t *testing.T, rt *Runtime, name string) {
	t.Helper()
	if err := rt.Config(ModelSpec{Name: name, Algo: AdamOpt, Hidden: []int{6}, LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		x := []float64{float64(i) / 32, float64(31-i) / 32}
		if err := rt.RecordExample(name, x, []float64{x[0] - x[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Fit(name, 3, 8); err != nil {
		t.Fatal(err)
	}
}

// TestCompileModelEager covers the explicit compile entry point: errors
// for unknown and unmaterialized models, success after materialize.
func TestCompileModelEager(t *testing.T) {
	rt := NewRuntime(Train, 1)
	if err := rt.CompileModel("nope"); err == nil {
		t.Error("CompileModel on unknown model succeeded")
	}
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{4}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.CompileModel("m"); err == nil {
		t.Error("CompileModel before materialize succeeded")
	}
	fitSmallModel(t, rt, "m2")
	if err := rt.CompileModel("m2"); err != nil {
		t.Errorf("CompileModel on materialized model: %v", err)
	}
}

// fitCNNModel configures a small CNN model and trains it to tell two
// brightness classes of 16x16 images apart.
func fitCNNModel(t *testing.T, rt *Runtime, name string) {
	t.Helper()
	err := rt.Config(ModelSpec{
		Name: name, Type: CNN, Algo: AdamOpt, LR: 1e-3,
		InputShape: []int{1, 16, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(43)
	for i := 0; i < 12; i++ {
		in := make([]float64, 16*16)
		bright := float64(i % 2) // label = brightness class
		for j := range in {
			in[j] = bright*0.8 + 0.1*rng.Float64()
		}
		if err := rt.RecordExample(name, in, []float64{bright}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Fit(name, 3, 4); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledPredictorBitIdentical checks the cross-representation
// contract at the core surface: Predictor closures and PredictCtx — both
// backed by the compiled plan — return bit-identical results to the
// training network's forward pass, for a DNN and a CNN model.
func TestCompiledPredictorBitIdentical(t *testing.T) {
	rt := NewRuntime(Train, 7)
	fitSmallModel(t, rt, "dnn")
	fitCNNModel(t, rt, "cnn")
	rng := stats.NewRNG(8)
	for _, name := range []string{"dnn", "cnn"} {
		m, _ := rt.getModel(name)
		pred, err := rt.Predictor(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			in := make([]float64, m.inSize)
			for j := range in {
				in[j] = rng.Float64()*2 - 1
			}
			want := m.forward(in)
			got, err := rt.PredictCtx(context.Background(), name, in)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, name+" PredictCtx", got, want)
			bitsEqual(t, name+" Predictor", pred(in), want)
		}
	}
}

// bitsEqual fails unless got and want hold the same float64 bits.
func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: %v, want the training network's %v", what, got, want)
		}
	}
}

// TestBuilderCompileErrorIsSpecInvalid covers the one way a plan can
// fail to compile: a Builder network that cannot take the model's
// input. Every call that needs the plan returns ErrSpecInvalid, and
// none falls back or panics.
func TestBuilderCompileErrorIsSpecInvalid(t *testing.T) {
	rt := NewRuntime(Train, 9)
	err := rt.Config(ModelSpec{
		Name: "bad", Algo: AdamOpt,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			return nn.NewNetwork(nn.NewDense(inSize+1, outSize, rng))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recording an example materializes the network without running it.
	if err := rt.RecordExample("bad", []float64{0.1, 0.2}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.PredictCtx(context.Background(), "bad", []float64{0.1, 0.2}); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("PredictCtx = %v, want ErrSpecInvalid", err)
	}
	if _, err := rt.Predictor("bad"); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("Predictor = %v, want ErrSpecInvalid", err)
	}
	if err := rt.CompileModel("bad"); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("CompileModel = %v, want ErrSpecInvalid", err)
	}
}

// TestPredictorSeesPublishedWeights pins the recompile-on-publish
// contract: a predictor taken before training observes the new weights
// after a weight publication, because its per-call version check
// triggers a plan recompile.
func TestPredictorSeesPublishedWeights(t *testing.T) {
	rt := NewRuntime(Train, 11)
	fitSmallModel(t, rt, "m")
	pred, err := rt.Predictor("m")
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.4, 0.7}
	before := append([]float64(nil), pred(in)...)

	// Publish new weights through another round of offline training.
	if _, err := rt.Fit("m", 3, 8); err != nil {
		t.Fatal(err)
	}
	want, err := rt.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	got := pred(in)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("stale predictor after publish: %v, want %v", got, want)
		}
	}
	same := true
	for j := range before {
		if before[j] != got[j] {
			same = false
		}
	}
	if same {
		t.Fatal("training left the prediction unchanged; test cannot distinguish staleness")
	}

	// PredictorInto must track publications the same way.
	predInto, err := rt.PredictorInto("m")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(want))
	if _, err := rt.Fit("m", 1, 8); err != nil {
		t.Fatal(err)
	}
	want2, err := rt.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	got2 := predInto(in, out)
	for j := range want2 {
		if math.Float64bits(got2[j]) != math.Float64bits(want2[j]) {
			t.Fatalf("stale PredictorInto after publish: %v, want %v", got2, want2)
		}
	}
}
