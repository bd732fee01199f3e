package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// schedOp is one operation of the open-loop schedule.
type schedOp struct {
	due  time.Duration // offset from the phase start
	kind opKind
	seq  int // picks the model and the pool input
}

// openSchedule draws a seeded Poisson arrival schedule at rps over the
// given seconds, every observeEvery-th arrival an observe, plus a reload
// at every multiple of reloadEvery. The same arguments always give the
// same schedule.
func openSchedule(seed uint64, rps, seconds float64, reloadEvery time.Duration) []schedOp {
	rng := stats.NewRNG(seed ^ 0x0be7)
	horizon := time.Duration(seconds * float64(time.Second))
	var ops []schedOp
	t := 0.0
	for n := 0; ; n++ {
		t += -math.Log(1-rng.Float64()) / rps
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			break
		}
		kind := opPredict
		if n%observeEvery == observeEvery-1 {
			kind = opObserve
		}
		ops = append(ops, schedOp{due: due, kind: kind, seq: n})
	}
	for k := 1; time.Duration(k)*reloadEvery < horizon; k++ {
		ops = append(ops, schedOp{due: time.Duration(k) * reloadEvery, kind: opReload, seq: k - 1})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// opResult is one open-loop operation's outcome in microseconds:
// latency from its due time (+Inf if it failed) and how late the
// generator handed it to a worker.
type opResult struct{ lat, late float64 }

// runOpen plays a schedule with a fixed pool of workers, one connection
// each at most. The generator sleeps until each operation is due and
// then hands it to the next free worker; when every worker is busy the
// hand-off waits, and the wait shows as lateness and as latency.
func runOpen(sched []schedOp, workers int, do func(worker, i int) error) []opResult {
	n := len(sched)
	due := make([]time.Duration, n)
	sent := make([]time.Duration, n)
	done := make([]time.Duration, n)
	ok := make([]bool, n)
	for i := range sched {
		due[i] = sched[i].due
	}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				sent[i] = time.Since(start)
				err := do(w, i)
				done[i] = time.Since(start)
				ok[i] = err == nil
			}
		}(w)
	}
	for i := range sched {
		if d := sched[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	lat, late := dueLatencies(due, sent, done, ok)
	out := make([]opResult, n)
	for i := range out {
		out[i] = opResult{lat[i], late[i]}
	}
	return out
}

// dueLatencies applies open-loop due-time accounting: each operation is
// timed from when it was due, not from when it was sent, so a stall
// charges its wait to every operation queued behind it; an operation that
// failed or was refused counts as +Inf. It also returns how late the
// generator handed each operation off.
func dueLatencies(due, sent, done []time.Duration, ok []bool) (lat, late []float64) {
	lat = make([]float64, len(due))
	late = make([]float64, len(due))
	for i := range due {
		late[i] = float64(sent[i]-due[i]) / float64(time.Microsecond)
		if !ok[i] {
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = float64(done[i]-due[i]) / float64(time.Microsecond)
	}
	return lat, late
}
