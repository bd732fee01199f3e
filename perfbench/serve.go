package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/fleet"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/serve"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// serveWork sizes one serving workload. Request counts are fixed work:
// a per-second count times --seconds.
type serveWork struct {
	fleet     bool
	models    int
	satPerSec int
}

var (
	serveDirect = serveWork{models: 1, satPerSec: 200}
	serveFleet  = serveWork{fleet: true, models: 4, satPerSec: 120}
)

const (
	inWidth, outWidth = 16, 4
	poolSize          = 256 // distinct inputs per model
	lonePerSec        = 100
	openShare         = 0.4 // of --seconds, at --open-rps
	observeEvery      = 8
	reloadEvery       = 250 * time.Millisecond // in the open phase
	reloadsPerRound   = 20
	layerReps         = 200 // lone requests per traced layer probe
	serveSetups       = 31  // set-ups per run; setup_s is their median
)

var dnnHidden = []int{64, 32}

func servedSpec(name string) core.ModelSpec {
	return core.ModelSpec{Name: name, Algo: core.AdamOpt, Hidden: dnnHidden, LR: 1e-3}
}

// served is one model's two snapshots and the reference answers of each
// for every pool input.
type served struct {
	name     string
	img      [2][]byte
	plan     [2]*nn.Plan
	in       [][]float64
	want     [2][][]float64
	observed [][]float64
}

// trainSnapshot fits a seeded 16-[64,32]-4 AdamOpt DNN for one epoch on
// seeded data and returns its SaveModel image.
func trainSnapshot(name string, seed uint64) ([]byte, error) {
	rt := core.NewRuntimeWith(core.Train, core.WithSeed(seed), core.WithMetrics(nil), core.WithLogger(quiet))
	if err := rt.ConfigCtx(bg, servedSpec(name)); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed ^ 0x5eed)
	for i := 0; i < 64; i++ {
		x, y := make([]float64, inWidth), make([]float64, outWidth)
		for j := range x {
			x[j] = rng.Range(-1, 1)
		}
		for j := range y {
			y[j] = x[j] - x[j+outWidth]
		}
		if err := rt.RecordExample(name, x, y); err != nil {
			return nil, err
		}
	}
	if _, err := rt.FitCtx(bg, name, 1, 16); err != nil {
		return nil, err
	}
	return rt.SaveModel(name)
}

func newServed(name string, seed uint64) (*served, error) {
	m := &served{name: name}
	for s := 0; s < 2; s++ {
		img, err := trainSnapshot(name, seed*2+uint64(s))
		if err != nil {
			return nil, err
		}
		net := nn.NewDNN(inWidth, dnnHidden, outWidth, stats.NewRNG(1))
		if err := net.UnmarshalParams(img[8:]); err != nil {
			return nil, err
		}
		plan, err := nn.Compile(net)
		if err != nil {
			return nil, err
		}
		m.img[s], m.plan[s] = img, plan
	}
	rng := stats.NewRNG(seed ^ 0x1b)
	for i := 0; i < poolSize; i++ {
		x, obsd := make([]float64, inWidth), make([]float64, outWidth)
		for j := range x {
			x[j] = rng.Range(-2, 2)
		}
		for j := range obsd {
			obsd[j] = rng.Range(-1, 1)
		}
		m.in = append(m.in, x)
		m.observed = append(m.observed, obsd)
		for s := 0; s < 2; s++ {
			m.want[s] = append(m.want[s], m.plan[s].NewInstance().Predict(x))
		}
	}
	return m, nil
}

// matches reports whether out is bit-identical to pool input k's answer
// under either live snapshot.
func (m *served) matches(k int, out []float64) bool {
	return sameBits(out, m.want[0][k]) || sameBits(out, m.want[1][k])
}

// stack is one running deployment: servers on loopback listeners and,
// for the fleet, a router in front of them.
type stack struct {
	models   []*served
	backends []*serve.Server
	regs     []*obs.Registry
	urls     []string
	https    []*http.Server
	router   *fleet.Router
	base     string // where clients send requests
	hc       *http.Client
	client   *serve.Client
	owner    map[string]int // model -> backend index
	nreload  map[string]int
	reloadMu sync.Mutex
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

func (w serveWork) start(models []*served, traced bool) (*stack, error) {
	s := &stack{models: models, owner: map[string]int{}, nreload: map[string]int{}}
	nb := 1
	if w.fleet {
		nb = 2
	}
	for i := 0; i < nb; i++ {
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
		}
		srv := serve.NewServer(serve.Config{Logger: quiet, Registry: reg, DriftThreshold: -1})
		hs, url, err := listen(srv.Handler())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.backends, s.regs = append(s.backends, srv), append(s.regs, reg)
		s.https, s.urls = append(s.https, hs), append(s.urls, url)
	}
	s.base = s.urls[0]
	if w.fleet {
		s.router = fleet.NewRouter(fleet.Config{Backends: s.urls, Logger: quiet})
		s.router.Start()
		hs, url, err := listen(s.router.Handler())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.https, s.base = append(s.https, hs), url
		ring := fleet.NewRing(fleet.DefaultVNodes)
		for _, u := range s.urls {
			ring.Add(u)
		}
		for _, m := range models {
			o, _ := ring.Owner(m.name)
			for i, u := range s.urls {
				if u == o {
					s.owner[m.name] = i
				}
			}
		}
	}
	n := runtime.NumCPU()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	s.client = serve.NewClient(s.base, serve.WithHTTPClient(s.hc))
	var snap []serve.SnapshotModel
	for _, m := range models {
		snap = append(snap, serve.SnapshotModel{Name: m.name, Spec: servedSpec(m.name), Data: m.img[0]})
	}
	if err := s.client.InstallSnapshot(bg, snap); err != nil {
		s.stop()
		return nil, err
	}
	// Open the connections the load will use.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, m := range models {
				if _, err := s.client.PredictCtx(bg, m.name, m.in[c]); err != nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *stack) stop() {
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	for _, hs := range s.https {
		_ = hs.Shutdown(ctx) // teardown: a slow close changes nothing
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, b := range s.backends {
		b.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
}

// opKind is what one scheduled operation does.
type opKind int

const (
	opPredict opKind = iota
	opObserve
	opReload
)

// tally counts one phase's outcomes.
type tally struct {
	mu                                        sync.Mutex
	sent, ok, failed, shed, mismatch, observe int
	reloads                                   int
}

func (t *tally) record(kind opKind, err error, mismatch bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch kind {
	case opPredict:
		t.sent++
	case opObserve:
		t.observe++
	case opReload:
		t.reloads++
	}
	switch {
	case err != nil:
		t.failed++
		if errors.Is(err, auerr.ErrOverloaded) {
			t.shed++
		}
	case mismatch:
		t.mismatch++
	default:
		if kind == opPredict {
			t.ok++
		}
	}
}

// do runs operation seq against the stack with client c.
func (s *stack) do(c *serve.Client, kind opKind, seq int, t *tally) error {
	m := s.models[seq%len(s.models)]
	k := (seq / len(s.models)) % poolSize
	var err error
	bad := false
	switch kind {
	case opPredict:
		var out []float64
		out, err = c.PredictCtx(bg, m.name, m.in[k])
		bad = err == nil && !m.matches(k, out)
	case opObserve:
		_, err = c.ObserveCtx(bg, m.name, m.want[0][k], m.observed[k])
	case opReload:
		s.reloadMu.Lock()
		s.nreload[m.name]++
		img := m.img[s.nreload[m.name]%2]
		s.reloadMu.Unlock()
		_, err = c.Reload(bg, m.name, img)
	}
	t.record(kind, err, bad)
	return err
}

// servePass is one pass over the three phases.
type servePass struct {
	setup       setups
	lone, open  dist
	observe     dist
	reload      []float64
	late        dist
	satRPS      []float64 // one per round
	t           tally
	spans       []span
	heap        float64
	handler     float64
	hop         float64
	queueWait   float64
	assemble    float64
	batchMean   float64
	overloaded  float64
	planPredict float64
}

func (w serveWork) pass(o opts, traced bool, nSetups int, scale float64) (*servePass, error) {
	p := &servePass{}
	setup := func(i int) (*stack, error) {
		start := setupStart(i)
		var models []*served
		for j := 0; j < w.models; j++ {
			m, err := newServed(fmt.Sprintf("m%d", j), o.seed*16+uint64(j))
			if err != nil {
				return nil, err
			}
			models = append(models, m)
		}
		s, err := w.start(models, traced)
		if err == nil {
			p.setup.add(time.Since(start))
		}
		return s, err
	}
	s, err := setup(0)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	nproc := runtime.NumCPU()
	epoch := time.Now()
	recs := make([]*recorder, nproc)
	if traced {
		for i := range recs {
			recs[i] = newRecorder(epoch)
		}
	}

	// The three phases and a burst of reloads run in interleaved rounds,
	// so host noise that comes and goes over seconds reaches every metric
	// alike.
	nLone := (max(minTimed, int(scale*float64(lonePerSec*o.seconds))) + rounds - 1) / rounds
	nSat := (max(minTimed, int(scale*float64(w.satPerSec*o.seconds))) + rounds - 1) / rounds
	openSecs := scale * openShare * float64(o.seconds) / rounds
	for r := 0; r < rounds; r++ {
		// Repeat the set-up, discarding the result.
		for i := 0; i < setupsPerRound(nSetups); i++ {
			extra, err := setup(1)
			if err != nil {
				return nil, err
			}
			extra.stop()
		}
		runtime.GC()
		// (a) lone: one closed-loop client.
		for i := 0; i < nLone; i++ {
			seq := r*nLone + i
			sp := recs[0].begin("client.predict.lone", -1, int64(seq))
			t0 := time.Now()
			err := s.do(s.client, opPredict, seq, &p.t)
			d := time.Since(t0)
			recs[0].end(sp)
			if err == nil {
				p.lone.addDur(d)
			} else {
				p.lone.add(math.Inf(1))
			}
		}

		// (b) open: a seeded schedule at a fixed rate over nproc
		// connections, with observes and periodic reloads mixed in.
		sched := openSchedule(o.seed*rounds+uint64(r), o.openRPS, openSecs, reloadEvery)
		res := runOpen(sched, nproc, func(worker, i int) error {
			sp := recs[worker].begin("client."+sched[i].kind.String()+".open", -1, int64(i))
			defer recs[worker].end(sp)
			return s.do(s.client, sched[i].kind, sched[i].seq, &p.t)
		})
		for i, x := range res {
			switch sched[i].kind {
			case opPredict:
				p.open.add(x.lat)
			case opObserve:
				p.observe.add(x.lat)
			}
			p.late.add(x.late)
		}

		// (c) sat: nproc closed-loop clients.
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < nproc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < nSat; i += nproc {
					seq := r*nSat + i
					sp := recs[c].begin("client.predict.sat", -1, int64(seq))
					s.do(s.client, opPredict, seq, &p.t)
					recs[c].end(sp)
				}
			}(c)
		}
		wg.Wait()
		p.satRPS = append(p.satRPS, float64(nSat)/time.Since(t0).Seconds())

		// (d) reloads from one closed-loop client, starting from a
		// collected heap like the set-ups do: a reload allocates a whole
		// engine, so garbage left by the sat phase would otherwise decide
		// how many of them pay for a GC.
		runtime.GC()
		for i := 0; i < reloadsPerRound; i++ {
			seq := r*reloadsPerRound + i
			sp := recs[0].begin("client.reload", -1, int64(seq))
			t0 := time.Now()
			if s.do(s.client, opReload, seq, &p.t) == nil {
				p.reload = append(p.reload, float64(time.Since(t0))/float64(time.Millisecond))
			}
			recs[0].end(sp)
		}
	}
	p.heap = heapMB()
	if !traced {
		return p, nil
	}

	for _, r := range recs {
		p.spans = mergeSpans(p.spans, r.spans)
	}
	if p.handler, err = s.handlerTime(layerReps); err != nil {
		return nil, err
	}
	if w.fleet {
		if p.hop, err = s.hopTime(layerReps); err != nil {
			return nil, err
		}
	}
	p.queueWait, p.assemble, p.batchMean, p.overloaded, err = s.serverStages()
	if err != nil {
		return nil, err
	}
	m := s.models[0]
	p.planPredict = planPredict(m.plan[0], m.in, 20000)
	return p, nil
}

func (k opKind) String() string {
	switch k {
	case opObserve:
		return "observe"
	case opReload:
		return "reload"
	}
	return "predict"
}

// mergeSpans appends b to a, rebasing b's parent indices.
func mergeSpans(a, b []span) []span {
	off := len(a)
	for _, s := range b {
		if s.parent >= 0 {
			s.parent += off
		}
		a = append(a, s)
	}
	return a
}

// inMemory is a RoundTripper that serves each request by calling a
// handler's ServeHTTP directly and times that call: the client builds
// the real wire request, no socket is involved.
type inMemory struct {
	h http.Handler
	d *dist
}

func (t inMemory) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	s := time.Now()
	t.h.ServeHTTP(rec, req)
	t.d.addDur(time.Since(s))
	return rec.Result(), nil
}

// handlerTime is the median in-memory Server.Handler().ServeHTTP time
// of lone predict requests on the first model's backend.
func (s *stack) handlerTime(reps int) (float64, error) {
	m := s.models[0]
	d := &dist{}
	c := serve.NewClient("http://in-memory", serve.WithHTTPClient(&http.Client{Transport: inMemory{s.backends[s.owner[m.name]].Handler(), d}}))
	for i := 0; i < reps; i++ {
		out, err := c.PredictCtx(bg, m.name, m.in[i%poolSize])
		if err != nil {
			return 0, err
		}
		if !m.matches(i%poolSize, out) {
			return 0, fmt.Errorf("in-memory handler answer mismatch")
		}
	}
	return d.p50(), nil
}

// hopTime alternates lone requests through the router and straight to
// the model's ring owner and returns the difference of the medians.
func (s *stack) hopTime(reps int) (float64, error) {
	m := s.models[0]
	direct := serve.NewClient(s.urls[s.owner[m.name]], serve.WithHTTPClient(s.hc))
	var via, dir dist
	for i := 0; i < 2*reps; i++ {
		c, d := s.client, &via
		if i%2 == 1 {
			c, d = direct, &dir
		}
		k := (i / 2) % poolSize
		t0 := time.Now()
		out, err := c.PredictCtx(bg, m.name, m.in[k])
		d.addDur(time.Since(t0))
		if err != nil {
			return 0, err
		}
		if !m.matches(k, out) {
			return 0, fmt.Errorf("hop probe answer mismatch")
		}
	}
	return via.p50() - dir.p50(), nil
}

// serverStages reads the servers' Prometheus histograms, summed over
// the backends: queue-wait and batch-assembly medians (us), mean batch
// size and the overload count.
func (s *stack) serverStages() (queue, assemble, batchMean, overloaded float64, err error) {
	var all []promSample
	for _, reg := range s.regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return 0, 0, 0, 0, err
		}
		all = append(all, parseProm(buf.String())...)
	}
	queue = 1e6 * histQuantile(all, "autonomizer_serve_stage_duration_seconds", `stage="queue_wait"`, 0.5)
	assemble = 1e6 * histQuantile(all, "autonomizer_serve_stage_duration_seconds", `stage="batch_assemble"`, 0.5)
	sum, count := 0.0, 0.0
	for _, x := range all {
		switch x.name {
		case "autonomizer_serve_batch_size_sum":
			sum += x.value
		case "autonomizer_serve_batch_size_count":
			count += x.value
		case "autonomizer_serve_overloaded_total":
			overloaded += x.value
		}
	}
	if count > 0 {
		batchMean = sum / count
	}
	return queue, assemble, batchMean, overloaded, nil
}

func runServe(w serveWork, o opts) (*result, error) {
	if o.openRPS <= 0 {
		return nil, fmt.Errorf("the serve and fleet workloads need --open-rps > 0")
	}
	p, err := w.pass(o, false, serveSetups, passScale(o))
	if err != nil {
		return nil, err
	}
	r := newResult()
	p.setup.report(r)
	r.timing("predict_us", &p.lone)
	r.timing("mixed_us", &p.open)
	// Serving latency is mostly the batching window, a timer that does
	// not follow the host's speed, so it is reported as measured.
	r.e2e["predict_raw_us_p50"] = r.e2e["predict_us_p50"]
	r.e2e["mixed_raw_us_p50"] = r.e2e["mixed_us_p50"]
	r.detail["predict_raw_us_p50"] = r.detail["predict_us_p50"]
	r.detail["mixed_raw_us_p50"] = r.detail["mixed_us_p50"]
	r.e2e["ops_per_s"] = medianOf(p.satRPS)
	r.detail["ops_per_s"] = fmt.Sprintf("rounds=%d", len(p.satRPS))
	r.e2e["reload_ms"] = medianOf(p.reload)
	r.detail["reload_ms"] = fmt.Sprintf("n=%d", len(p.reload))
	r.e2e["heap_mb"] = p.heap
	r.attempted = p.t.sent + p.t.observe + p.t.reloads
	r.mismatch = p.t.mismatch
	r.failed = p.t.failed + p.t.mismatch
	if !o.trace {
		return r, nil
	}
	t, err := w.pass(o, true, 1, passScale(o))
	if err != nil {
		return nil, err
	}
	r.attempted += t.t.sent + t.t.observe + t.t.reloads
	r.mismatch += t.t.mismatch
	r.failed += t.t.failed + t.t.mismatch
	L := r.layer
	L["serve.handler_us_p50"] = t.handler
	L["serve.queue_wait_us_p50"] = t.queueWait
	L["serve.batch_assemble_us_p50"] = t.assemble
	L["serve.batch_size_mean"] = t.batchMean
	L["serve.overloaded"] = t.overloaded
	L["serve.observe_us_p50"] = p.observe.p50()
	L["fleet.hop_us_p50"] = t.hop
	_, L["loadgen.late_us_p99"] = p.late.tail()
	L["nn.plan_predict_us"] = t.planPredict
	L["trace.predict_overhead_us"] = t.lone.p50() - p.lone.p50()
	L["trace.mixed_overhead_us"] = t.open.p50() - p.open.p50()
	L["count.requests_sent"] = float64(p.t.sent)
	L["count.requests_ok"] = float64(p.t.ok)
	L["count.requests_failed"] = float64(p.t.failed)
	L["count.requests_shed"] = float64(p.t.shed)
	L["count.observes"] = float64(p.t.observe)
	L["count.reloads"] = float64(p.t.reloads)
	r.table = selfTimes(t.spans)
	return r, nil
}

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name, labels string
	value        float64
}

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i+1:len(name)-1]
		}
		out = append(out, promSample{name, labels, v})
	}
	return out
}

// histQuantile estimates quantile q of the histogram family whose bucket
// labels contain match, summing buckets across samples of the same bound
// (several servers), by linear interpolation inside the bucket, as
// Prometheus's histogram_quantile does. It returns 0 for an empty
// histogram.
func histQuantile(samples []promSample, family, match string, q float64) float64 {
	cum := map[float64]float64{}
	for _, s := range samples {
		if s.name != family+"_bucket" || !strings.Contains(s.labels, match) {
			continue
		}
		i := strings.Index(s.labels, `le="`)
		if i < 0 {
			continue
		}
		le := s.labels[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		cum[b] += s.value
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	lo, prev := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= target {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*(target-prev)/(cum[b]-prev)
		}
		lo, prev = b, cum[b]
	}
	return lo
}
