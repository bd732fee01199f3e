package serve

import (
	"context"
	"fmt"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
)

// engine is one immutable, servable model snapshot: the destination-
// passing predictor over the snapshot's compiled plan, and the
// snapshot's version. Reloads never mutate an engine; they build a new
// one and atomically swap the pointer, so an in-flight batch keeps
// computing on the snapshot it started with.
type engine struct {
	name    string
	version int
	spec    core.ModelSpec
	inSize  int
	outSize int

	// predict runs one instance of the compiled plan. Building it
	// compiles the plan — weights packed once, before the engine is
	// published — so the first request after a hot reload pays no
	// packing or compilation cost. Only the model's batcher goroutine
	// calls it.
	predict func(in, out []float64) []float64
}

// buildEngine constructs a servable engine from a model spec and a
// SaveModel image. The runtime inside is deliberately detached from
// process-wide telemetry (WithMetrics(nil)): serving engines come and
// go with every reload and must not steal the host's db/model gauges.
func buildEngine(name string, spec core.ModelSpec, data []byte, version int) (*engine, error) {
	inSize, outSize, err := core.SavedModelSizes(data)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	spec.Name = name
	rt := core.NewRuntimeWith(core.Test, core.WithMetrics(nil))
	rt.LoadModel(name, data)
	if err := rt.ConfigCtx(context.Background(), spec); err != nil {
		return nil, err
	}
	predict, err := rt.PredictorInto(name)
	if err != nil {
		return nil, err
	}
	return &engine{
		name: name, version: version, spec: spec,
		inSize: inSize, outSize: outSize, predict: predict,
	}, nil
}

// checkInput validates one request vector against the snapshot's input
// size before it joins a batch, so one malformed request fails alone
// instead of poisoning its batchmates.
func (e *engine) checkInput(in []float64) error {
	if len(in) != e.inSize {
		return auerr.E(auerr.ErrSpecInvalid, "serve: model %q expects %d inputs, got %d",
			e.name, e.inSize, len(in))
	}
	return nil
}

// predictBatchInto runs one coalesced minibatch through the compiled
// plan: outs[i] must have length outSize and receives the prediction for
// ins[i]. Each example runs the same plan as an in-process PredictCtx
// (same weights, same accumulation order), so batching is bit-identical
// by construction regardless of batch composition. Beyond the outs
// buffers the steady-state batch performs no heap allocation.
func (e *engine) predictBatchInto(ins, outs [][]float64) {
	for i, in := range ins {
		outs[i] = e.predict(in, outs[i])
	}
}
