package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"
)

// batchCall is one request's slot in the batching queue. The submitter
// blocks on done; the collector fills out/err and closes it.
type batchCall struct {
	ctx  context.Context
	in   []float64
	out  []float64
	err  error
	enq  time.Time
	done chan struct{}
}

// batcher is the dynamic micro-batcher for one served model. It is
// work-conserving (DESIGN.md §5d): the collector blocks for the first
// request, takes whatever else is already queued without blocking, up
// to maxBatch, and dispatches at once. A lone request therefore never
// waits for company, while requests that queue during a running batch
// form the next one. Backpressure is a bounded queue: submit on a full
// queue fails immediately with auerr.ErrOverloaded rather than queuing
// unboundedly.
type batcher struct {
	model    *servedModel
	queue    chan *batchCall
	maxBatch int
	met      *metricsSet

	// ins and outs are the collector's per-batch scratch; only the
	// goroutine running execute touches them.
	ins, outs [][]float64

	// shed counts requests rejected by backpressure for this model —
	// the /statusz shed figure; shedC is its metric twin (nil-safe).
	shed  atomic.Uint64
	shedC *obs.Counter

	stop    chan struct{}
	stopped sync.WaitGroup
	closed  atomic.Bool
}

func newBatcher(m *servedModel, maxBatch, depth int, met *metricsSet) *batcher {
	b := &batcher{
		model:    m,
		queue:    make(chan *batchCall, depth),
		maxBatch: maxBatch,
		met:      met,
		shedC:    met.shedCounter(m.name),
		stop:     make(chan struct{}),
	}
	b.stopped.Add(1)
	go b.loop()
	return b
}

// depth reports the live queue occupancy (the queue-depth gauge).
func (b *batcher) depth() int { return len(b.queue) }

// submit enqueues one request and blocks until its batch executes or
// ctx is done. A full queue rejects immediately with ErrOverloaded (the
// HTTP surface turns that into 429); a canceled caller stops waiting —
// the collector may still compute the batch, but the result is
// discarded.
func (b *batcher) submit(ctx context.Context, in []float64) ([]float64, error) {
	if b.closed.Load() {
		return nil, auerr.E(auerr.ErrUnknownModel, "serve: model %q is shutting down", b.model.name)
	}
	c := &batchCall{ctx: ctx, in: in, enq: time.Now(), done: make(chan struct{})}
	select {
	case b.queue <- c:
	default:
		b.shed.Add(1)
		b.shedC.Inc()
		b.met.overloaded()
		return nil, auerr.E(auerr.ErrOverloaded, "serve: model %q queue full (%d waiting)",
			b.model.name, cap(b.queue))
	}
	select {
	case <-c.done:
		return c.out, c.err
	case <-ctx.Done():
		return nil, auerr.Canceled(ctx)
	}
}

// close stops the collector and fails whatever was still queued. Safe
// to call once; submit refuses new work afterwards.
func (b *batcher) close() {
	if b.closed.Swap(true) {
		return
	}
	close(b.stop)
	b.stopped.Wait()
	for {
		select {
		case c := <-b.queue:
			c.err = auerr.E(auerr.ErrUnknownModel, "serve: model %q is shutting down", b.model.name)
			close(c.done)
		default:
			return
		}
	}
}

// loop is the collector goroutine: block for the first request, drain
// what is already queued up to maxBatch, execute and fan the results
// back out.
func (b *batcher) loop() {
	defer b.stopped.Done()
	batch := make([]*batchCall, 0, b.maxBatch)
	for {
		select {
		case c := <-b.queue:
			batch = append(batch[:0], c)
		case <-b.stop:
			return
		}
	drain:
		for len(batch) < b.maxBatch {
			select {
			case c := <-b.queue:
				batch = append(batch, c)
			default:
				break drain
			}
		}
		b.execute(batch)
		// Drop the finished calls so an idle model does not pin their
		// contexts and buffers until the next request.
		clear(batch)
	}
}

// execute runs one coalesced batch on the engine current at dispatch
// time. Requests whose context died in the queue, or whose input does
// not match the engine's snapshot, fail individually; the survivors run
// through the engine's compiled plan. A panic escaping the kernels is
// recovered here and surfaced as ErrInvariant on every member — one
// poisoned batch must not take down the collector.
//
// Observability: every member's queue wait and the batch's assembly
// time land in the per-stage histograms, and — when tracing is on —
// the batch opens a serve.batch span continuing the first live
// request's trace, with a serve.engine_predict child carrying one span
// link per coalesced request, so a trace shows exactly which
// batchmates shared the forward pass.
func (b *batcher) execute(batch []*batchCall) {
	eng := b.model.eng.Load()
	b.met.observeBatch(batch)

	live := batch[:0]
	for _, c := range batch {
		if c.ctx != nil && c.ctx.Err() != nil {
			c.err = auerr.Canceled(c.ctx)
		} else if c.err = eng.checkInput(c.in); c.err == nil {
			live = append(live, c)
			continue
		}
		close(c.done)
	}
	if len(live) == 0 {
		return
	}
	var bsp, psp *obs.Span
	if obs.TracingEnabled() {
		bctx, sp := obs.StartSpan(live[0].ctx, "serve.batch")
		bsp = sp
		_, psp = obs.StartSpan(bctx, "serve.engine_predict")
		for _, c := range live {
			if tid, sid, ok := obs.SpanContextFrom(c.ctx); ok {
				psp.AddLink(tid, sid)
			}
		}
	}
	// One flat allocation per batch holds every member's output; the
	// predictor writes straight into the per-request slots. It is
	// the batch's only allocation: submitters keep their c.out slices,
	// so the block cannot be reused.
	ins, outs := b.ins[:0], b.outs[:0]
	flat := make([]float64, len(live)*eng.outSize)
	for i, c := range live {
		ins = append(ins, c.in)
		outs = append(outs, flat[i*eng.outSize:(i+1)*eng.outSize])
	}
	b.ins, b.outs = ins, outs
	var batchErr error
	tm := b.met.stageTimer(stageEnginePredict)
	func() {
		defer func() {
			if r := recover(); r != nil {
				batchErr = auerr.FromPanic(r)
				for _, c := range live {
					c.err = batchErr
				}
			}
		}()
		eng.predictBatchInto(ins, outs)
		for i, c := range live {
			c.out = outs[i]
		}
	}()
	tm.Stop()
	psp.End(batchErr)
	bsp.End(batchErr)
	for _, c := range live {
		close(c.done)
	}
}
