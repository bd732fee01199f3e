package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestTailRule checks that the tail is the highest ladder percentile with
// at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		p, v  float64
		found bool
	}{
		{1010, 99, 1000, true},
		{1000, 99, 990, true}, // exactly ten beyond p99
		{999, 95, 950, true},  // nine beyond p99: fall back
		{200, 95, 190, true},
		{100, 90, 90, true},
		{40, 75, 30, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		p, v, ok := tail(ramp(c.n))
		if ok != c.found || (ok && (p != c.p || v != c.v)) {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.v, c.found)
		}
		if ok && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
	if got := percentile(ramp(10), 50); got != 5 {
		t.Errorf("median of 1..10 = %g, want nearest-rank 5", got)
	}
}

// TestDueLatencies checks open-loop accounting: a stall charges its wait
// to the operations queued behind it, lateness is send minus due, and a
// failed operation counts as +Inf.
func TestDueLatencies(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms}
	sent := []time.Duration{0, 5 * ms, 6 * ms, 3 * ms} // op 0 stalled 5ms
	done := []time.Duration{5 * ms, 6 * ms, 7 * ms, 4 * ms}
	ok := []bool{true, true, true, false}
	lat, late := dueLatencies(due, sent, done, ok)
	if want := []float64{5000, 5000, 5000, math.Inf(1)}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latencies = %v, want %v", lat, want)
	}
	if want := []float64{0, 4000, 4000, 0}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
	// A failure lands at the top of the distribution.
	d := &dist{}
	for _, x := range lat {
		d.add(x)
	}
	if _, v := d.tail(); !math.IsNaN(v) {
		t.Errorf("tail of 4 samples = %g, want NaN (no percentile has ten beyond it)", v)
	}
	d.sort()
	if !math.IsInf(d.v[3], 1) {
		t.Errorf("failed op did not sort last: %v", d.v)
	}
}

// TestSelfTimes checks self time from nested spans: a span's children
// are subtracted once even when they overlap, and only the part inside
// the parent's interval counts.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "frame", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60}, // overlaps a: union 10..60
		{name: "leaf", parent: 1, start: 15, end: 20},
		{name: "late", parent: 0, start: 90, end: 120}, // only 90..100 is inside
		{name: "frame", parent: -1, start: 200, end: 210},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.name] = r
	}
	want := map[string]layerTime{
		"frame": {name: "frame", calls: 2, total: 110, self: 100 - 50 - 10 + 10},
		"a":     {name: "a", calls: 1, total: 30, self: 25},
		"b":     {name: "b", calls: 1, total: 30, self: 30},
		"leaf":  {name: "leaf", calls: 1, total: 5, self: 5},
		"late":  {name: "late", calls: 1, total: 30, self: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
	if c := coverage(spans, "frame"); math.Abs(c-(30+30+30)/110.0) > 1e-12 {
		t.Errorf("coverage = %g", c)
	}
}

// TestRecorderNext checks that next closes a span exactly where its
// sibling opens, and that a nil recorder records nothing.
func TestRecorderNext(t *testing.T) {
	r := newRecorder(time.Now())
	root := r.begin("frame", -1, 7)
	a := r.begin("a", root, 7)
	b := r.next(a, "b")
	r.end(b)
	r.end(root)
	if r.spans[a].end != r.spans[b].start || r.spans[b].parent != root || r.spans[b].req != 7 {
		t.Errorf("next: %+v", r.spans)
	}
	var off *recorder
	if id := off.next(off.begin("x", -1, 0), "y"); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
}

// TestOpenSchedule checks the schedule is a pure function of its
// arguments, mixes in every eighth arrival as an observe, and reloads at
// each multiple of the period.
func TestOpenSchedule(t *testing.T) {
	a := openSchedule(3, 400, 1, 250*time.Millisecond)
	b := openSchedule(3, 400, 1, 250*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := openSchedule(4, 400, 1, 250*time.Millisecond); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	var arrivals, observes, reloads int
	for i, op := range a {
		if i > 0 && op.due < a[i-1].due {
			t.Fatal("schedule not sorted by due time")
		}
		switch op.kind {
		case opReload:
			if op.due != time.Duration(op.seq+1)*250*time.Millisecond {
				t.Errorf("reload %d due at %v", op.seq, op.due)
			}
			reloads++
		case opObserve:
			if op.seq%observeEvery != observeEvery-1 {
				t.Errorf("observe at arrival %d", op.seq)
			}
			observes++
			arrivals++
		default:
			arrivals++
		}
	}
	if reloads != 3 || arrivals < 300 || arrivals > 500 || observes != arrivals/observeEvery {
		t.Errorf("arrivals %d observes %d reloads %d", arrivals, observes, reloads)
	}
}

// TestHistQuantile checks histogram_quantile-style interpolation over
// buckets summed across servers.
func TestHistQuantile(t *testing.T) {
	text := `# TYPE h histogram
h_bucket{stage="q",le="1"} 2
h_bucket{stage="q",le="2"} 6
h_bucket{stage="q",le="+Inf"} 8
h_bucket{stage="other",le="1"} 100
h_sum{stage="q"} 9
`
	s := append(parseProm(text), parseProm(text)...)
	if got := histQuantile(s, "h", `stage="q"`, 0.5); got != 1.5 {
		t.Errorf("p50 = %g, want 1.5", got)
	}
	if got := histQuantile(s, "h", `stage="q"`, 0.99); got != 2 {
		t.Errorf("p99 in +Inf bucket = %g, want the last finite bound 2", got)
	}
	if got := histQuantile(s, "h", `stage="none"`, 0.5); got != 0 {
		t.Errorf("empty histogram = %g", got)
	}
}

// TestProbe checks the probe's accounting: it runs once per p.every of
// measured time, and its scale follows the median of the recent probes.
func TestProbe(t *testing.T) {
	p := newProbe(time.Millisecond)
	if p.n != probeRing || p.all.n() != probeRing || p.scale <= 0 {
		t.Fatalf("new probe: n=%d samples=%d scale=%g", p.n, p.all.n(), p.scale)
	}
	p.after(600 * time.Microsecond)
	if p.n != probeRing {
		t.Errorf("probed after 0.6ms of a 1ms period")
	}
	p.after(600 * time.Microsecond)
	if p.n != probeRing+1 || p.since != 0 {
		t.Errorf("after 1.2ms: n=%d since=%v, want one probe and a reset", p.n, p.since)
	}
	us := time.Microsecond
	p.ring = [probeRing]time.Duration{160 * us, 159 * us, time.Second, 161 * us, 10 * us}
	p.rescale()
	// 160us is 8x the nominal 20us; 8^(2/3) = 4.
	if got := p.norm(400 * us); got < 100*us-time.Nanosecond || got > 100*us+time.Nanosecond {
		t.Errorf("norm(400us) at a 160us median probe = %v, want 100us (nominal %v, exponent %g)", got, probeNominal, probeExponent)
	}
	if p.ring[2] != time.Second {
		t.Errorf("rescale reordered the ring")
	}
}

// TestCatalogMatchesBenchmarkJSON holds the metric catalog and the
// repository's BENCHMARK.json together.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metric
	for _, m := range e2eCatalog {
		if m.bounded {
			e2e = append(e2e, metric{m.name, m.unit, m.better})
		} else {
			layer = append(layer, metric{"e2e." + m.name, m.unit, m.better})
		}
	}
	for _, m := range layerCatalog {
		layer = append(layer, metric{m.name, m.unit, m.better})
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end = %v\ncatalog     %v", b.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(b.PerLayer, layer) {
		t.Errorf("per_layer = %v\ncatalog   %v", b.PerLayer, layer)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
}
