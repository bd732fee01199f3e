package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Times are nanoseconds since the recorder's
// epoch; parent is the index of the enclosing span or -1.
type span struct {
	name       string
	parent     int
	req        int64
	start, end int64
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced path: begin returns -1 and end ignores it, so timed runs
// read no clock for tracing. A recorder belongs to one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.epoch))
}

// next ends span id and begins its successor sibling with one clock
// read, so back-to-back calls leave no untimed gap between their spans.
func (r *recorder) next(id int, name string) int {
	if r == nil || id < 0 {
		return -1
	}
	prev := r.spans[id]
	r.spans = append(r.spans, span{name: name, parent: prev.parent, req: prev.req, start: int64(time.Since(r.epoch))})
	r.spans[id].end = r.spans[len(r.spans)-1].start
	return len(r.spans) - 1
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name  string
	calls int
	total int64 // summed span duration, ns
	self  int64 // summed self time, ns
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval covered by its children; the
// children's intervals are merged first, so overlapping children (from
// concurrent callers) are not subtracted twice. Rows are sorted by self
// time, largest first.
func selfTimes(spans []span) []layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range spans {
		dur := s.end - s.start
		covered := int64(0)
		if kids := children[i]; len(kids) > 0 {
			iv := make([][2]int64, 0, len(kids))
			for _, k := range kids {
				lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
				if hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			curLo, curHi := int64(0), int64(-1)
			for _, x := range iv {
				if x[0] > curHi {
					if curHi > curLo {
						covered += curHi - curLo
					}
					curLo, curHi = x[0], x[1]
				} else if x[1] > curHi {
					curHi = x[1]
				}
			}
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		row := rows[s.name]
		if row == nil {
			row = &layerTime{name: s.name}
			rows[s.name] = row
		}
		row.calls++
		row.total += dur
		row.self += dur - covered
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].self != out[b].self {
			return out[a].self > out[b].self
		}
		return out[a].name < out[b].name
	})
	return out
}

// durations returns the durations, in microseconds, of every span with
// the given name.
func durations(spans []span, name string) *dist {
	d := &dist{}
	for _, s := range spans {
		if s.name == name {
			d.add(float64(s.end-s.start) / 1e3)
		}
	}
	return d
}

// coverage is the share of the named root spans' wall time that their
// direct children account for.
func coverage(spans []span, root string) float64 {
	var wall, kids int64
	for _, s := range spans {
		if s.name == root {
			wall += s.end - s.start
		} else if s.parent >= 0 && spans[s.parent].name == root {
			kids += s.end - s.start
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(kids) / float64(wall)
}

// writeSelfTable prints the per-layer self-time table.
func writeSelfTable(w io.Writer, rows []layerTime) {
	var all int64
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "%-26s %10s %12s %12s %7s\n", "span", "calls", "self_ms", "total_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.self) / float64(all)
		}
		fmt.Fprintf(w, "%-26s %10d %12.3f %12.3f %6.1f%%\n", r.name, r.calls, float64(r.self)/1e6, float64(r.total)/1e6, share)
	}
}
