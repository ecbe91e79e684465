package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuantilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=n) from Python 3.
	cases := []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{5.2, 4.9, 5.5, 6.1, 5.0}, 4, []float64{4.95, 5.2, 5.8}},
		{[]float64{3, 1}, 4, []float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		got := quantiles(c.xs, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
		}
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
				break
			}
		}
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if p90 := quantiles(hundred, 10)[8]; p90 < 90.9-1e-9 || p90 > 90.9+1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.9", p90)
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Trace: "rep-1", Name: "bench.rep", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 60) once: 50 ms.
		{ID: 2, Parent: 1, Trace: "rep-1", Name: "core.Replay", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Trace: "rep-1", Name: "core.Replay", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Trace: "rep-1", Name: "sim.solve", Start: 20 * ms, End: 25 * ms},
		{ID: 5, Trace: "rep-2", Name: "bench.rep", Start: 200 * ms, End: 300 * ms},
		{ID: 6, Parent: 5, Trace: "rep-2", Name: "core.Replay", Start: 200 * ms, End: 280 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * time.Millisecond, 2: 25 * time.Millisecond, 3: 30 * time.Millisecond,
		4: 5 * time.Millisecond, 5: 20 * time.Millisecond, 6: 80 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}

	byLayer, total := layerTimes(spans, func(tr string) bool { return tr == "rep-1" })
	if total != 100*time.Millisecond || byLayer["bench"] != 50*time.Millisecond ||
		byLayer["core"] != 55*time.Millisecond || byLayer["sim"] != 5*time.Millisecond {
		t.Errorf("rep-1 layers = %v over %v", byLayer, total)
	}
	selfS, share := layerShare(spans, "rep-", "core")
	// core's share is 0.55 in rep-1 and 0.8 in rep-2; the median of two
	// is their mean.
	if d := share - 0.675; d > 1e-9 || d < -1e-9 {
		t.Errorf("core share = %v, want 0.675", share)
	}
	if d := selfS - 0.0675; d > 1e-9 || d < -1e-9 {
		t.Errorf("core self = %v s, want 0.0675", selfS)
	}

	var table bytes.Buffer
	writeLayerTable(&table, spans, "rep-")
	if !strings.Contains(table.String(), "core") || !strings.Contains(table.String(), "0.200 s") {
		t.Errorf("layer table:\n%s", table.String())
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	called := false
	if err := r.wrap("t", "x.y", 0, func(id int) error { called = id == 0; return nil }); err != nil || !called {
		t.Fatalf("wrap on a nil recorder: err %v, called %v", err, called)
	}
	if r.len() != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder kept spans")
	}
}

// testDecl is a two-metric declaration for the steadiness check.
func testDecl() *declaration {
	d := &declaration{
		EndToEnd: []declared{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	d.Workloads = append(d.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	return d
}

func set(setup, points []float64) []setRun {
	var out []setRun
	for i := range setup {
		out = append(out, setRun{Workload: "w", Seed: uint64(i + 1), Result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"setup_s": {setup[i], "s"}, "points_per_s": {points[i], "1/s"}},
		}})
	}
	return out
}

func verdictFor(vs []verdict, name string) verdict {
	for _, v := range vs {
		if v.metric.Name == name {
			return v
		}
	}
	return verdict{}
}

func TestJudgeAppliesBounds(t *testing.T) {
	d := testDecl()
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisySetup := []float64{1, 2, 3, 1, 2, 3, 1, 2, 3, 2}

	// setup_s is held to its spread bound like every other metric.
	vs := judge(d, set(noisySetup, steady), set(noisySetup, steady))
	if v := verdictFor(vs, "setup_s"); v.pass {
		t.Errorf("setup_s with a spread of %.2f passed a 0.25 bound", v.a.rel)
	}
	vs = judge(d, set(steady, steady), set(steady, steady))
	for _, name := range []string{"setup_s", "points_per_s"} {
		if v := verdictFor(vs, name); !v.pass || v.why != "" {
			t.Errorf("steady %s: %+v", name, v)
		}
	}

	// Two sets of the same code must agree within the bound either way:
	// a 15% throughput drop and a 15% rise both fail the 10% bound.
	lower := make([]float64, len(steady))
	higher := make([]float64, len(steady))
	for i, x := range steady {
		lower[i], higher[i] = 0.85*x, 1.15*x
	}
	if v := verdictFor(judge(d, set(steady, steady), set(steady, lower)), "points_per_s"); v.pass || v.drift < 0.149 {
		t.Errorf("a 15%% throughput drop passed: %+v", v)
	}
	if v := verdictFor(judge(d, set(steady, steady), set(steady, higher)), "points_per_s"); v.pass || v.drift > -0.149 {
		t.Errorf("a 15%% throughput rise passed: %+v", v)
	}
	// A 5% gap either way is within the bound.
	near := make([]float64, len(steady))
	for i, x := range steady {
		near[i] = 1.05 * x
	}
	if v := verdictFor(judge(d, set(steady, steady), set(steady, near)), "points_per_s"); !v.pass {
		t.Errorf("a 5%% throughput rise failed: %+v", v)
	}

	// A spread beyond the bound fails even with equal medians.
	wide := []float64{80, 120, 100, 70, 130, 100, 90, 110, 100, 100}
	if v := verdictFor(judge(d, set(steady, wide), set(steady, wide)), "points_per_s"); v.pass {
		t.Errorf("a spread of %.2f passed a 0.1 bound", v.a.rel)
	}

	// A run that failed its output checks fails the pair.
	bad := set(steady, steady)
	bad[3].Result.Failed, bad[3].Result.Correct = 1, false
	if v := verdictFor(judge(d, bad, set(steady, steady)), "points_per_s"); v.pass {
		t.Error("a set with a failed run passed")
	}
}

func TestSteadyMainReadsSets(t *testing.T) {
	dir := t.TempDir()
	decl, err := json.Marshal(map[string]any{
		"workloads":  []map[string]string{{"name": "w", "why": "test"}},
		"end_to_end": testDecl().EndToEnd,
		"per_layer":  []declared{},
	})
	if err != nil {
		t.Fatal(err)
	}
	benchPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(benchPath, decl, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, runs []setRun) string {
		var b bytes.Buffer
		for _, r := range runs {
			r.Env = json.RawMessage(`{"gomaxprocs":2}`)
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	a := write("a.jsonl", set(steady, steady))
	b := write("b.jsonl", set(steady, steady))
	var out bytes.Buffer
	if code := steadyMain([]string{"-bench", benchPath, a, b}, &out); code != 0 {
		t.Fatalf("steady sets: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "points_per_s") || strings.Contains(out.String(), "FAIL") {
		t.Errorf("report:\n%s", out.String())
	}
	halved := make([]float64, len(steady))
	for i, x := range steady {
		halved[i] = x / 2
	}
	c := write("c.jsonl", set(steady, halved))
	out.Reset()
	if code := steadyMain([]string{"-bench", benchPath, a, c}, &out); code != 1 {
		t.Fatalf("halved throughput: exit %d, want 1\n%s", code, out.String())
	}
}

func TestConformRequiresDeclaredMetrics(t *testing.T) {
	want := testDecl().EndToEnd
	ok := map[string]metric{"setup_s": {0.5, "s"}, "points_per_s": {10, "1/s"}}
	if err := conform(ok, want, true); err != nil {
		t.Fatalf("conforming metrics: %v", err)
	}
	for name, m := range map[string]map[string]metric{
		"missing":    {"setup_s": {0.5, "s"}},
		"wrong unit": {"setup_s": {0.5, "ms"}, "points_per_s": {10, "1/s"}},
		"zero":       {"setup_s": {0, "s"}, "points_per_s": {10, "1/s"}},
		"undeclared": {"setup_s": {0.5, "s"}, "points_per_s": {10, "1/s"}, "extra": {1, "s"}},
	} {
		if conform(m, want, true) == nil {
			t.Errorf("%s: conform accepted %v", name, m)
		}
	}
}
