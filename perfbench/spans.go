package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval of the traced run, recorded by the
// benchmark around a call (or a loop of calls) into one layer's public
// functions.
type Span struct {
	// Name is the layer and call, e.g. "traffic.decode".
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	// End closes the interval; see Start.
	End int64 `json:"end_ns"`
	// Parent indexes the enclosing span in the tracer's list, -1 for
	// an op's root.
	Parent int `json:"parent"`
	// Op is the index of the op the span belongs to.
	Op int `json:"op"`
}

// tracer keeps every span of a traced run in memory; they are written
// out once the run ends, so no I/O lands inside a timed interval.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// aggregate records a layer whose calls were timed one by one inside
// parent (per slot, interleaved with other layers): their summed
// duration becomes one span laid at offset at within the parent.
// Callers lay the aggregates of one parent end to end from the
// parent's start, so siblings never overlap and the parent's self time
// is what the per-call timers did not cover. It returns the offset
// just past the new span.
func (t *tracer) aggregate(name string, parent, op int, at int64, total time.Duration) int64 {
	end := at + int64(total)
	t.spans = append(t.spans, Span{Name: name, Start: at, End: end, Parent: parent, Op: op})
	return end
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and children are clipped to the parent's interval.
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time (in ns) by span name.
func layerTotals(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// durations sums wall duration (in ns) by span name.
func durations(spans []Span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// write dumps the spans as JSON lines, one span per line, in record
// order (a span's index is its line number minus one).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
