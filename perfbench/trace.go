package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans nest: a span's parent is the span that was
// open on the same lane when it began. A lane is one goroutine timeline
// (a sweep worker, a client connection); spans on one lane never overlap
// except by nesting, and each lane has one root span covering its whole
// traced interval.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a lane root
	ID     int64  `json:"id"`     // request or cell id, 0 when the call has none
	Lane   int    `json:"lane"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(layer, name string, parent, lane int, id int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: now, End: -1, Parent: parent, ID: id, Lane: lane})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// durations returns the durations, in ns, of every closed span with the
// given layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.End >= 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	return writeJSONFile(path, t.spans)
}

// attribution is the self-time table of a traced run: each layer's self
// time (its spans' durations minus the part of each interval their
// child spans cover) plus "other", the root self time no layer span
// covers. The rows sum to the lanes' combined wall time.
type attribution struct {
	Rows  []attrRow
	Total int64 // Σ root span durations = lanes × wall
	Lanes int
	Wall  int64 // first root start to last root end
}

type attrRow struct {
	Layer string
	Self  int64
	Spans int
}

const otherLayer = "other"

// selfTimes returns every span's self time.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var tot, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			tot += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		tot += curB - curA
	}
	return tot
}

// attribution builds the self-time table. Root spans count as "other".
func (t *tracer) attribution() attribution {
	self := selfTimes(t.spans)
	byLayer := map[string]*attrRow{}
	var a attribution
	first, last := int64(-1), int64(0)
	for i, s := range t.spans {
		layer := s.Layer
		if s.Parent < 0 {
			layer = otherLayer
			a.Total += s.dur()
			a.Lanes++
			if first < 0 || s.Start < first {
				first = s.Start
			}
			if s.End > last {
				last = s.End
			}
		}
		r := byLayer[layer]
		if r == nil {
			r = &attrRow{Layer: layer}
			byLayer[layer] = r
		}
		r.Self += self[i]
		r.Spans++
	}
	a.Wall = last - first
	for _, r := range byLayer {
		a.Rows = append(a.Rows, *r)
	}
	sort.Slice(a.Rows, func(i, j int) bool { return a.Rows[i].Self > a.Rows[j].Self })
	return a
}

// selfFrac returns a layer's share of the table total.
func (a attribution) selfFrac(layer string) float64 {
	if a.Total == 0 {
		return 0
	}
	for _, r := range a.Rows {
		if r.Layer == layer {
			return float64(r.Self) / float64(a.Total)
		}
	}
	return 0
}

func printAttribution(w io.Writer, workload string, a attribution) {
	fmt.Fprintf(w, "layer self time, %s traced run (%d lane(s) × %.1f ms wall):\n", workload, a.Lanes, float64(a.Wall)/1e6)
	var rows int64
	for _, r := range a.Rows {
		fmt.Fprintf(w, "  %-20s %12.3f ms %7.2f%%  (%d spans)\n", r.Layer, float64(r.Self)/1e6, 100*float64(r.Self)/float64(a.Total), r.Spans)
		rows += r.Self
	}
	fmt.Fprintf(w, "  %-20s %12.3f ms %7.2f%%  (rows sum to the lanes' wall time: %.3f ms)\n", "total", float64(rows)/1e6, 100*float64(rows)/float64(a.Total), float64(a.Total)/1e6)
}
