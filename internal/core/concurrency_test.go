package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentConfigDistinctModels exercises the registry lock: many
// goroutines configuring (and immediately using) distinct models must
// not race. Run under -race.
func TestConcurrentConfigDistinctModels(t *testing.T) {
	rt := NewRuntime(Train, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("m%d", i)
			if err := rt.Config(ModelSpec{Name: name, Algo: AdamOpt, Hidden: []int{4}}); err != nil {
				errs <- err
				return
			}
			if err := rt.RecordExample(name, []float64{1, 2, 3}, []float64{0.5}); err != nil {
				errs <- err
				return
			}
			if _, err := rt.Fit(name, 1, 2); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(rt.ModelNames()); got != 16 {
		t.Fatalf("registered %d models, want 16", got)
	}
}

// TestConcurrentInference checks that Predict (per-model lock) and
// Predictor plan instances can run from many goroutines at once, alongside
// registry reads and SaveModel, with no data races and consistent
// outputs.
func TestConcurrentInference(t *testing.T) {
	rt := NewRuntime(Train, 2)
	if err := rt.Config(ModelSpec{Name: "net", Algo: AdamOpt, Hidden: []int{8, 4}}); err != nil {
		t.Fatal(err)
	}
	in := []float64{0.1, -0.2, 0.3, -0.4}
	if err := rt.RecordExample("net", in, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Fit("net", 2, 1); err != nil {
		t.Fatal(err)
	}
	want, err := rt.Predict("net", in)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pred, err := rt.Predictor("net")
			if err != nil {
				fail <- err.Error()
				return
			}
			for i := 0; i < 20; i++ {
				got, err := rt.Predict("net", in)
				if err != nil {
					fail <- err.Error()
					return
				}
				rep := pred(in)
				for j := range want {
					if got[j] != want[j] || rep[j] != want[j] {
						fail <- fmt.Sprintf("prediction diverged: got %v / %v, want %v", got, rep, want)
						return
					}
				}
				if _, err := rt.SaveModel("net"); err != nil {
					fail <- err.Error()
					return
				}
				rt.ModelNames()
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
