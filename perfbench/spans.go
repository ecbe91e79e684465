package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one repetition (or one
// sweep) share a trace ID; Parent is the ID of the span that made the
// call, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name up to its first dot: "core.Replay" -> "core".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run writes them out. It is safe
// for concurrent use, and every method is a no-op on a nil recorder, which
// is what an untraced run holds.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(trace, name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// wrap runs f inside a span, passing f the span's ID as the parent of the
// calls it makes.
func (r *recorder) wrap(trace, name string, parent int, f func(id int) error) error {
	id := r.start(trace, name, parent)
	defer r.end(id)
	return f(id)
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSON writes every span to dir/<workload>-seed<seed>.json.
func (r *recorder) writeJSON(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": r.snapshot()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover (children that overlap each other count
// once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		slices.SortFunc(ks, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerTimes sums self time per layer over the spans of the traces keep
// accepts, and returns the summed duration of their root spans.
func layerTimes(spans []span, keep func(trace string) bool) (byLayer map[string]time.Duration, total time.Duration) {
	self := selfTimes(spans)
	byLayer = make(map[string]time.Duration)
	for _, s := range spans {
		if !keep(s.Trace) {
			continue
		}
		byLayer[s.layer()] += self[s.ID]
		if s.Parent == 0 {
			total += s.dur()
		}
	}
	return byLayer, total
}

// perTrace returns, for every trace whose ID has the given prefix, the
// self time of one layer and the trace's root duration, in seconds.
func perTrace(spans []span, prefix, layer string) (selfS, rootS []float64) {
	var traces []string
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, prefix) && !slices.Contains(traces, s.Trace) {
			traces = append(traces, s.Trace)
		}
	}
	for _, t := range traces {
		byLayer, total := layerTimes(spans, func(tr string) bool { return tr == t })
		selfS = append(selfS, byLayer[layer].Seconds())
		rootS = append(rootS, total.Seconds())
	}
	return selfS, rootS
}

// layerShare returns the medians over traces with the prefix of a layer's
// self seconds and of its share of the trace's wall time.
func layerShare(spans []span, prefix, layer string) (selfS, share float64) {
	s, root := perTrace(spans, prefix, layer)
	shares := make([]float64, len(s))
	for i := range s {
		if root[i] > 0 {
			shares[i] = s[i] / root[i]
		}
	}
	return median(s), median(shares)
}

// spanDurations returns the durations in seconds of the spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// writeLayerTable prints where the wall time of the traces with the given
// prefix went: each layer's self seconds and share, largest first.
func writeLayerTable(w io.Writer, spans []span, prefix string) {
	byLayer, total := layerTimes(spans, func(t string) bool { return strings.HasPrefix(t, prefix) })
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	slices.SortFunc(layers, func(a, b string) int { return cmp.Compare(byLayer[b], byLayer[a]) })
	fmt.Fprintf(w, "where the wall time went (%s* traces, %.3f s):\n", prefix, total.Seconds())
	fmt.Fprintf(w, "  %-12s %10s %7s\n", "layer", "self s", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s %10.3f %7.3f\n", l, byLayer[l].Seconds(), share)
	}
}
