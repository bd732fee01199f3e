// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed amount of work, checks every output it produces,
// and prints as its last line one JSON object with the end-to-end metrics
// (untraced) or the per-layer metrics (--trace 1). See README.md for the
// workloads, the metrics and the layer each metric should move.
//
//	go build -o perfbench . && ./perfbench --workload serve --seed 1 --seconds 20 --trace 0 --open-rps 400
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// procStart approximates process start: package variables initialize
// before main runs.
var procStart = time.Now()

// quiet discards the library's structured logs so stdout stays ours.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

var bg = context.Background()

// opts is one run's configuration.
type opts struct {
	seed    uint64
	seconds int
	trace   bool
	openRPS float64
}

// result is what a workload hands back for printing.
type result struct {
	e2e       map[string]float64
	detail    map[string]string // sample count and percentile per e2e metric
	layer     map[string]float64
	table     []layerTime
	attempted int
	failed    int // failed, refused or mismatched operations
	mismatch  int
	sha       string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, detail: map[string]string{}, layer: map[string]float64{}}
}

// timing stores a distribution's median as <base>_p50 and its tail, by
// the tail rule, as <base>_p99.
func (r *result) timing(base string, d *dist) {
	p, v := d.tail()
	r.e2e[base+"_p50"] = d.p50()
	r.e2e[base+"_p99"] = v
	r.detail[base+"_p50"] = fmt.Sprintf("n=%d", d.n())
	r.detail[base+"_p99"] = fmt.Sprintf("n=%d tail=p%g", d.n(), p)
}

type workload struct {
	why string
	// width is the parallel width the workload runs at; 0 keeps the
	// default (GOMAXPROCS). The rl workloads run at width 1: at width 2
	// a train frame waits for the DQN update's second worker, and on a
	// shared 2-vCPU host that wait follows the neighbours' load on the
	// second vCPU, which no probe on the frame's own thread can see.
	// Results are bit-identical at any width.
	width int
	run   func(o opts) (*result, error)
}

var workloads = map[string]workload{
	"rl_all": {"Flappybird, All features, DNN 64-32: core/rl/nn do the work", 1, func(o opts) (*result, error) { return runRL(rlAll, o) }},
	"rl_raw": {"Flappybird, Raw 16x16 pixels, CNN: tensor conv does the work", 1, func(o opts) (*result, error) { return runRL(rlRaw, o) }},
	"serve":  {"one serve.Server on loopback, lone/open/sat phases", 0, func(o opts) (*result, error) { return runServe(serveDirect, o) }},
	"fleet":  {"fleet.Router over 2 serve backends, 4 models, lone/open/sat phases", 0, func(o opts) (*result, error) { return runServe(serveFleet, o) }},
}

func main() {
	name := flag.String("workload", "", "workload: rl_all, rl_raw, serve or fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length: the fixed work is sized to take about this long on a 2-core 2.1 GHz Xeon")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	openRPS := flag.Float64("open-rps", 0, "open-loop arrival rate of the serve and fleet workloads, requests/s")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload rl_all|rl_raw|serve|fleet, --seed >= 1, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, openRPS: *openRPS}
	if w.width > 0 {
		parallel.SetWorkers(w.width)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	prov, _ := json.Marshal(provenance(*name, o))
	fmt.Fprintf(out, "provenance %s\n", prov)
	fmt.Fprintf(out, "workload %s: %s\n", *name, w.why)

	res, err := w.run(o)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(out, *name, o, res)
	if res.mismatch > 0 {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %d outputs did not match their reference\n", res.mismatch)
		os.Exit(1)
	}
}

// provenance stamps a result with where and how it was taken.
func provenance(workload string, o opts) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "dirty": dirty, "cpu": cpuModel(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel": tensor.KernelName(), "workers": parallel.Workers(), "go": runtime.Version(),
		"seed": o.seed, "workload": workload, "seconds": o.seconds, "trace": o.trace,
		"open_rps": o.openRPS,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report prints the human-readable table and then the JSON last line.
func report(out io.Writer, name string, o opts, res *result) {
	rl := strings.HasPrefix(name, "rl_")
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(out, "attempted %d failed %d failed_frac %g\n", res.attempted, res.failed, failedFrac)
	if res.sha != "" {
		fmt.Fprintf(out, "trained_params_sha256 %s\n", res.sha)
	}
	metrics := map[string]any{}
	for _, m := range e2eCatalog {
		as := m.serveAs
		if rl {
			as = m.rlAs
		}
		v := res.e2e[m.name]
		bound := ""
		if !m.bounded {
			bound = "(unbounded) "
		}
		fmt.Fprintf(out, "e2e   %-30s %14.4f %-5s %-22s %s%s\n", m.name, v, m.unit, res.detail[m.name], bound, as)
		switch {
		case !o.trace && m.bounded:
			metrics[m.name] = map[string]any{"value": finite(v), "unit": m.unit}
		case o.trace && !m.bounded:
			metrics["e2e."+m.name] = map[string]any{"value": finite(v), "unit": m.unit}
		}
	}
	if o.trace {
		for _, m := range layerCatalog {
			v := res.layer[m.name]
			fmt.Fprintf(out, "layer %-30s %14.4f %-5s moves %s\n", m.name, v, m.unit, m.moves)
			metrics[m.name] = map[string]any{"value": finite(v), "unit": m.unit}
		}
		writeSelfTable(out, res.table)
	}
	last, _ := json.Marshal(map[string]any{
		"correct": res.mismatch == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Fprintf(out, "%s\n", last)
}

// finite maps +Inf (a tail that landed on a failed request) to the
// largest float, since JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// heapMB reports the live heap in MiB after a final GC. The second
// cycle empties the sync.Pool victim caches the first one leaves behind.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// passScale is the share of the fixed work one pass does: a traced run
// makes an untraced and a traced pass, each of half the work, so that it
// takes about as long as an untraced run.
func passScale(o opts) float64 {
	if o.trace {
		return 0.5
	}
	return 1
}

const (
	// rounds is how many times a pass interleaves its phases, so that host
	// noise that comes and goes over seconds reaches every metric alike.
	rounds = 10
	// minTimed keeps p99 reachable by the tail rule at any --seconds.
	minTimed = 1010
)

// setupsPerRound is how many set-ups a pass of nSetups repeats in each
// round after the first one, which it times from process start. Set-ups
// spread over the run sample the host's state at as many moments as the
// frames and requests do, instead of only during the run's first
// fraction of a second.
func setupsPerRound(nSetups int) int { return (nSetups - 1) / rounds }

// setupStart begins timing set-up i. The first is timed from process
// start. Later ones start after a GC, so that each finds the heap in the
// same state instead of inheriting whatever garbage its predecessors
// left, which otherwise splits set-up times into modes from run to run.
func setupStart(i int) time.Time {
	if i == 0 {
		return procStart
	}
	runtime.GC()
	return time.Now()
}

// setups collects a run's set-up times, each as measured and rescaled by
// probes (calib.go) taken right after it, so that setup_s reads the work
// set-up does rather than the speed the host had while doing it.
type setups struct {
	raw, scaled []float64
	pr          *probe
}

func (s *setups) add(d time.Duration) {
	if s.pr == nil {
		s.pr = newProbe(0)
	} else {
		s.pr.refresh()
	}
	s.raw = append(s.raw, d.Seconds())
	s.scaled = append(s.scaled, s.pr.norm(d).Seconds())
}

// report stores the medians as setup_s and setup_raw_s.
func (s *setups) report(r *result) {
	r.e2e["setup_s"] = medianOf(s.scaled)
	r.e2e["setup_raw_s"] = medianOf(s.raw)
	r.detail["setup_s"] = fmt.Sprintf("n=%d", len(s.scaled))
	r.detail["setup_raw_s"] = r.detail["setup_s"]
}
