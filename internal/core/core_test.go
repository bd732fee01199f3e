package core

import (
	"math"
	"strings"
	"testing"

	"github.com/autonomizer/autonomizer/internal/ckpt"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// hostProg is a tiny stand-in for an annotated host program's state σ.
type hostProg struct {
	vars map[string]float64
}

func newHostProg() *hostProg { return &hostProg{vars: map[string]float64{}} }

func (p *hostProg) Snapshot() any {
	cp := make(map[string]float64, len(p.vars))
	for k, v := range p.vars {
		cp[k] = v
	}
	return cp
}

func (p *hostProg) Restore(s any) {
	snap := s.(map[string]float64)
	p.vars = make(map[string]float64, len(snap))
	for k, v := range snap {
		p.vars[k] = v
	}
}

func TestModeStrings(t *testing.T) {
	if Train.String() != "TR" || Test.String() != "TS" {
		t.Error("mode strings wrong")
	}
	if DNN.String() != "DNN" || CNN.String() != "CNN" {
		t.Error("model type strings wrong")
	}
	if QLearn.String() != "QLearn" || AdamOpt.String() != "AdamOpt" {
		t.Error("algorithm strings wrong")
	}
	if Mode(99).String() == "" || ModelType(99).String() == "" || Algorithm(99).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec ModelSpec
		ok   bool
	}{
		{"valid sl", ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{8}}, true},
		{"valid rl", ModelSpec{Name: "m", Algo: QLearn, Actions: 3}, true},
		{"no name", ModelSpec{Algo: AdamOpt}, false},
		{"bad hidden", ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{0}}, false},
		{"cnn no shape", ModelSpec{Name: "m", Type: CNN, Algo: AdamOpt}, false},
		{"rl no actions", ModelSpec{Name: "m", Algo: QLearn}, false},
		{"bad activation", ModelSpec{Name: "m", Algo: AdamOpt, OutputActivation: "softplus"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRuntime(Train, 1)
			err := rt.Config(tc.spec)
			if tc.ok && err != nil {
				t.Errorf("Config(%+v) = %v, want nil", tc.spec, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Config(%+v) succeeded, want error", tc.spec)
			}
		})
	}
}

func TestConfigIdempotent(t *testing.T) {
	rt := NewRuntime(Train, 1)
	spec := ModelSpec{Name: "m", Algo: AdamOpt}
	if err := rt.Config(spec); err != nil {
		t.Fatal(err)
	}
	// Reconfiguring must be a no-op, not an error (θ(mdName) ≢ ⊥ case).
	spec.Hidden = []int{123}
	if err := rt.Config(spec); err != nil {
		t.Fatalf("second Config: %v", err)
	}
	if len(rt.ModelNames()) != 1 {
		t.Errorf("ModelNames = %v", rt.ModelNames())
	}
}

func TestExtractSerializeWriteBackFlow(t *testing.T) {
	rt := NewRuntime(Train, 2)
	rt.Extract("PX", 1)
	rt.Extract("PY", 2)
	rt.Extract("MnX", 3, 4)
	key := rt.Serialize("PX", "PY", "MnX")
	if key != "PX+PY+MnX" {
		t.Errorf("Serialize key = %q", key)
	}
	got, ok := rt.DB().Get(key)
	if !ok || len(got) != 4 {
		t.Fatalf("serialized = %v", got)
	}
	if rt.TraceValueCount() != 4 {
		t.Errorf("TraceValueCount = %d, want 4", rt.TraceValueCount())
	}
}

func TestWriteBackErrors(t *testing.T) {
	rt := NewRuntime(Train, 3)
	if _, err := rt.WriteBack("nope", make([]float64, 1)); err == nil {
		t.Error("WriteBack of unbound name succeeded")
	}
	if _, err := rt.WriteBackAction("nope"); err == nil {
		t.Error("WriteBackAction of unbound name succeeded")
	}
	rt.DB().Put("empty", nil)
	if _, err := rt.WriteBackAction("empty"); err == nil {
		t.Error("WriteBackAction of empty binding succeeded")
	}
}

// TestSLOnlineTraining exercises the literal TRAIN rule: the program
// binds oracle targets under the write-back names, calls au_NN, and the
// model takes a gradient step before predicting.
func TestSLOnlineTraining(t *testing.T) {
	rt := NewRuntime(Train, 4)
	if err := rt.Config(ModelSpec{Name: "SigmaNN", Algo: AdamOpt, Hidden: []int{8}, LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	// Teach the model f(x) = [x0+x1] over a few hundred annotated runs.
	rng := stats.NewRNG(5)
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		rt.Extract("IMG", x...)
		rt.DB().Put("SIGMA", []float64{x[0] + x[1]}) // oracle target
		if err := rt.NN("SigmaNN", "IMG", "SIGMA"); err != nil {
			t.Fatal(err)
		}
		// Input list must be consumed (extName ↦ ⊥).
		if rt.DB().Len("IMG") != 0 {
			t.Fatal("au_NN did not reset the input list")
		}
	}
	rt.Extract("IMG", 0.3, 0.4)
	rt.DB().Put("SIGMA", []float64{0.7})
	if err := rt.NN("SigmaNN", "IMG", "SIGMA"); err != nil {
		t.Fatal(err)
	}
	var sigma [1]float64
	if _, err := rt.WriteBack("SIGMA", sigma[:]); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sigma[0]-0.7) > 0.15 {
		t.Errorf("predicted sigma = %v, want ~0.7", sigma[0])
	}
}

// TestSLOfflineFit exercises the offline path: record examples during
// training runs, then Fit, then predict.
func TestSLOfflineFit(t *testing.T) {
	rt := NewRuntime(Train, 6)
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{8}, LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64()}
		if err := rt.RecordExample("m", x, []float64{2 * x[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if rt.ExampleCount("m") != 200 {
		t.Fatalf("ExampleCount = %d", rt.ExampleCount("m"))
	}
	loss, err := rt.Fit("m", 30, 16)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Errorf("Fit final loss = %v, want < 0.01", loss)
	}
	out, err := rt.Predict("m", []float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 0.1 {
		t.Errorf("Predict(0.25) = %v, want ~0.5", out[0])
	}
}

func TestNNSplitsOutputAcrossWriteBackNames(t *testing.T) {
	rt := NewRuntime(Train, 8)
	if err := rt.Config(ModelSpec{Name: "MinNN", Algo: AdamOpt, Hidden: []int{4}}); err != nil {
		t.Fatal(err)
	}
	rt.Extract("HIST", 1, 2, 3)
	rt.DB().Put("LO", []float64{0.1})
	rt.DB().Put("HI", []float64{0.9})
	if err := rt.NN("MinNN", "HIST", "LO", "HI"); err != nil {
		t.Fatal(err)
	}
	lo, okLo := rt.DB().Get("LO")
	hi, okHi := rt.DB().Get("HI")
	if !okLo || !okHi || len(lo) != 1 || len(hi) != 1 {
		t.Fatalf("split outputs: LO=%v HI=%v", lo, hi)
	}
}

func TestNNErrors(t *testing.T) {
	rt := NewRuntime(Train, 9)
	if err := rt.NN("ghost", "X", "Y"); err == nil {
		t.Error("NN on unconfigured model succeeded")
	}
	if err := rt.Config(ModelSpec{Name: "sl", Algo: AdamOpt}); err != nil {
		t.Fatal(err)
	}
	if err := rt.NN("sl", "X", "Y"); err == nil {
		t.Error("NN with empty input succeeded")
	}
	rt.Extract("X", 1)
	if err := rt.NN("sl", "X"); err == nil {
		t.Error("NN with no targets and unmaterialized net succeeded")
	}
	if err := rt.Config(ModelSpec{Name: "q", Algo: QLearn, Actions: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rt.NN("q", "X", "Y"); err == nil {
		t.Error("NN on QLearn model succeeded")
	}
	rt.Extract("S", 1)
	if err := rt.NNRL("sl", "S", 0, false, "out"); err == nil {
		t.Error("NNRL on AdamOpt model succeeded")
	}
	if err := rt.NNRL("ghost", "S", 0, false, "out"); err == nil {
		t.Error("NNRL on unconfigured model succeeded")
	}
	if err := rt.NNRL("q", "NOPE", 0, false, "out"); err == nil {
		t.Error("NNRL with empty input succeeded")
	}
}

// TestRLFlow runs the full annotated game-loop protocol from Fig. 2:
// extract → serialize → NNRL → write-back action, with checkpoint and
// restore at episode boundaries.
func TestRLFlow(t *testing.T) {
	rt := NewRuntime(Train, 10)
	err := rt.Config(ModelSpec{
		Name: "Mario", Algo: QLearn, Hidden: []int{16}, Actions: 3,
		EpsilonDecaySteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := newHostProg()
	prog.vars["px"] = 0
	rt.Checkpoint(prog, 8)

	for step := 0; step < 50; step++ {
		rt.Extract("PX", prog.vars["px"])
		rt.Extract("PY", 1.0)
		key := rt.Serialize("PX", "PY")
		terminal := prog.vars["px"] > 5
		reward := 1.0
		if terminal {
			reward = -10
		}
		if err := rt.NNRL("Mario", key, reward, terminal, "output"); err != nil {
			t.Fatal(err)
		}
		act, err := rt.WriteBackAction("output")
		if err != nil {
			t.Fatal(err)
		}
		if act < 0 || act >= 3 {
			t.Fatalf("action out of range: %d", act)
		}
		if terminal {
			if err := rt.Restore(prog); err != nil {
				t.Fatal(err)
			}
			if prog.vars["px"] != 0 {
				t.Fatal("restore did not roll back program state")
			}
			continue
		}
		prog.vars["px"]++
	}
	st, ok := rt.RLStats("Mario")
	if !ok {
		t.Fatal("RLStats missing")
	}
	if st.Steps == 0 || st.ReplayLen == 0 {
		t.Errorf("agent never observed transitions: %+v", st)
	}
	if st.TraceBytes == 0 {
		t.Error("TraceBytes = 0")
	}
}

func TestRLStatsUnknown(t *testing.T) {
	rt := NewRuntime(Train, 11)
	if _, ok := rt.RLStats("nope"); ok {
		t.Error("RLStats of unknown model reported ok")
	}
}

// TestModelSurvivesRestore is the paper's key checkpointing property:
// au_restore rolls back σ and π but θ keeps its learned weights.
func TestModelSurvivesRestore(t *testing.T) {
	rt := NewRuntime(Train, 12)
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt, LR: 0.05}); err != nil {
		t.Fatal(err)
	}
	prog := newHostProg()
	rt.Checkpoint(prog, 8)

	// Train the model a bit.
	for i := 0; i < 50; i++ {
		rt.Extract("X", 1)
		rt.DB().Put("Y", []float64{3})
		if err := rt.NN("m", "X", "Y"); err != nil {
			t.Fatal(err)
		}
	}
	before, err := rt.Predict("m", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Restore(prog); err != nil {
		t.Fatal(err)
	}
	after, err := rt.Predict("m", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if before[0] != after[0] {
		t.Errorf("model changed across restore: %v -> %v", before[0], after[0])
	}
	// But π must have been rolled back (the post-checkpoint "Y" binding
	// is gone).
	if _, ok := rt.DB().Get("Y"); ok {
		t.Error("db store not rolled back by restore")
	}
}

// TestSaveLoadModelRoundTrip covers the TR→TS lifecycle: train, save,
// then a fresh Test-mode runtime loads and reproduces predictions.
func TestSaveLoadModelRoundTrip(t *testing.T) {
	tr := NewRuntime(Train, 13)
	if err := tr.Config(ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{6}, LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(14)
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := tr.RecordExample("m", x, []float64{x[0] - x[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Fit("m", 20, 16); err != nil {
		t.Fatal(err)
	}
	data, err := tr.SaveModel("m")
	if err != nil {
		t.Fatal(err)
	}

	ts := NewRuntime(Test, 15)
	ts.LoadModel("m", data)
	if err := ts.Config(ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{6}}); err != nil {
		t.Fatal(err)
	}
	in := []float64{0.8, 0.3}
	want, err := tr.Predict("m", in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ts.Predict("m", in)
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != got[0] {
		t.Errorf("TS prediction %v != TR prediction %v", got[0], want[0])
	}

	// In TS mode, NN must not learn: predictions are stable across calls
	// with contradictory targets present.
	ts.Extract("X", in...)
	ts.DB().Put("OUT", []float64{99})
	if err := ts.NN("m", "X", "OUT"); err != nil {
		t.Fatal(err)
	}
	var out [1]float64
	if _, err := ts.WriteBack("OUT", out[:]); err != nil {
		t.Fatal(err)
	}
	if out[0] != got[0] {
		t.Errorf("TS-mode NN output %v differs from pure prediction %v", out[0], got[0])
	}
}

func TestConfigTestModeRequiresSavedModel(t *testing.T) {
	ts := NewRuntime(Test, 16)
	if err := ts.Config(ModelSpec{Name: "missing", Algo: AdamOpt}); err == nil {
		t.Error("TS-mode Config without saved model succeeded")
	}
	ts.LoadModel("bad", []byte{1, 2, 3})
	if err := ts.Config(ModelSpec{Name: "bad", Algo: AdamOpt}); err == nil {
		t.Error("TS-mode Config with corrupt model succeeded")
	}
}

func TestSaveModelErrors(t *testing.T) {
	rt := NewRuntime(Train, 17)
	if _, err := rt.SaveModel("ghost"); err == nil {
		t.Error("SaveModel of unknown model succeeded")
	}
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SaveModel("m"); err == nil {
		t.Error("SaveModel of unmaterialized model succeeded")
	}
	if _, err := rt.ModelSizeBytes("m"); err == nil {
		t.Error("ModelSizeBytes of unmaterialized model succeeded")
	}
	if _, err := rt.ModelSizeBytes("ghost"); err == nil {
		t.Error("ModelSizeBytes of unknown model succeeded")
	}
	if _, err := rt.ModelParamCount("ghost"); err == nil {
		t.Error("ModelParamCount of unknown model succeeded")
	}
	if _, err := rt.Predict("ghost", nil); err == nil {
		t.Error("Predict of unknown model succeeded")
	}
	if _, err := rt.Fit("ghost", 1, 1); err == nil {
		t.Error("Fit of unknown model succeeded")
	}
	if _, err := rt.Fit("m", 1, 1); err == nil {
		t.Error("Fit with no examples succeeded")
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	rt := NewRuntime(Train, 18)
	if err := rt.Restore(newHostProg()); err != ckpt.ErrNoCheckpoint {
		t.Errorf("Restore err = %v, want ErrNoCheckpoint", err)
	}
}

func TestModelSizeAccounting(t *testing.T) {
	rt := NewRuntime(Train, 19)
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{10}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecordExample("m", []float64{1, 2, 3}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	size, err := rt.ModelSizeBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	count, err := rt.ModelParamCount("m")
	if err != nil {
		t.Fatal(err)
	}
	// dense(3->10)=40 params, dense(10->1)=11 params.
	if count != 51 {
		t.Errorf("ModelParamCount = %d, want 51", count)
	}
	if size <= 8*count {
		t.Errorf("ModelSizeBytes = %d, must exceed raw param bytes %d", size, 8*count)
	}
}

func TestInputSizeChangeRejected(t *testing.T) {
	rt := NewRuntime(Train, 20)
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecordExample("m", []float64{1, 2}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecordExample("m", []float64{1, 2, 3}, []float64{1}); err == nil {
		t.Error("input size change accepted")
	}
	rt.Extract("X", 1, 2)
	rt.DB().Put("Y", []float64{1, 2}) // wrong target width
	if err := rt.NN("m", "X", "Y"); err == nil {
		t.Error("target width change accepted")
	}
}

func TestErrorMessagesNamePrimitive(t *testing.T) {
	rt := NewRuntime(Train, 21)
	err := rt.NN("ghost", "X", "Y")
	if err == nil || !strings.Contains(err.Error(), "au_NN") {
		t.Errorf("error %v does not mention the primitive", err)
	}
	_, err = rt.WriteBack("ghost", nil)
	if err == nil || !strings.Contains(err.Error(), "au_write_back") {
		t.Errorf("error %v does not mention the primitive", err)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := NewRuntime(Test, 40)
	if rt.Mode() != Test {
		t.Errorf("Mode = %v", rt.Mode())
	}
	if rt.Checkpoints() == nil {
		t.Error("Checkpoints nil")
	}
	if rt.ExampleCount("ghost") != 0 {
		t.Error("ExampleCount of unknown model nonzero")
	}
	if err := rt.LoadModelParams("ghost", nil); err == nil {
		t.Error("LoadModelParams of unknown model succeeded")
	}
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt}); err == nil {
		// TS mode without saved model must fail; reaching here is wrong.
		t.Error("TS config without saved model succeeded")
	}
}

func TestLoadModelParamsErrors(t *testing.T) {
	rt := NewRuntime(Train, 41)
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt}); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModelParams("m", nil); err == nil {
		t.Error("LoadModelParams on unmaterialized model succeeded")
	}
	if err := rt.RecordExample("m", []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModelParams("m", []byte{1, 2, 3}); err == nil {
		t.Error("LoadModelParams with garbage succeeded")
	}
	good, err := rt.SaveModel("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModelParams("m", good); err != nil {
		t.Errorf("round trip failed: %v", err)
	}
}

// TestCNNSupervisedPath covers the CNN branch of the SL model: fit and
// predict over (C,H,W)-shaped inputs.
func TestCNNSupervisedPath(t *testing.T) {
	rt := NewRuntime(Train, 42)
	fitCNNModel(t, rt, "cnn")
	in := make([]float64, 16*16)
	out, err := rt.Predict("cnn", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("CNN output = %v", out)
	}
}
