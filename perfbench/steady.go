package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// setRun is one line of a set file, as sets.sh writes it: one run's
// workload, seed, environment and result line.
type setRun struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Env      json.RawMessage `json:"env"`
	Result   result          `json:"result"`
}

// spread describes one workload x metric over one set of runs.
type spread struct {
	n          int
	median     float64
	q1, q3     float64
	rel        float64 // (q3 - q1) / median
	allCorrect bool
}

func describe(runs []setRun, workload, name string) spread {
	var xs []float64
	s := spread{allCorrect: true}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if !r.Result.Correct || r.Result.Failed != 0 {
			s.allCorrect = false
		}
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	s.n = len(xs)
	if s.n == 0 {
		return s
	}
	q := quantiles(xs, 4)
	s.q1, s.median, s.q3 = q[0], median(xs), q[2]
	s.rel = math.Inf(1)
	if s.median != 0 {
		s.rel = (s.q3 - s.q1) / math.Abs(s.median)
	}
	return s
}

// verdict is the steadiness judgement of one workload x metric.
type verdict struct {
	workload string
	metric   declared
	a, b     spread
	hasB     bool
	drift    float64 // how much worse B's median is than A's, as a share of A's (signed, for display)
	pass     bool
	why      string
}

// judge applies the acceptance rule to every metric, setup_s included:
// every spread within the metric's bound, and the two sets' medians apart
// by no more than the bound in either direction, since both sets run the
// same code. Runs with failed checks fail outright.
func judge(d *declaration, a, b []setRun) []verdict {
	var out []verdict
	for _, w := range d.Workloads {
		for _, m := range d.EndToEnd {
			v := verdict{workload: w.Name, metric: m, a: describe(a, w.Name, m.Name), hasB: b != nil, pass: true}
			if v.hasB {
				v.b = describe(b, w.Name, m.Name)
			}
			fail := func(why string) {
				if v.pass {
					v.pass, v.why = false, why
				}
			}
			sets := []spread{v.a}
			if v.hasB {
				sets = append(sets, v.b)
			}
			for _, s := range sets {
				switch {
				case s.n < 2:
					fail(fmt.Sprintf("only %d runs", s.n))
				case !s.allCorrect:
					fail("a run failed its output checks")
				case s.rel > m.Bound:
					fail("spread above bound")
				}
			}
			if v.hasB && v.a.median != 0 {
				v.drift = (v.b.median - v.a.median) / math.Abs(v.a.median)
				if m.Better == "higher" {
					v.drift = -v.drift
				}
				if math.Abs(v.drift) > m.Bound {
					fail("medians apart by more than bound")
				}
			}
			if v.pass && max(v.a.rel, v.b.rel) > m.Bound/3 {
				v.why = "passes, spread above a third of bound"
			}
			out = append(out, v)
		}
	}
	return out
}

func readSet(path string) ([]setRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []setRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r setRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// envDiffers reports whether the runs of a set were made under different
// configurations (seed and workload aside).
func envDiffers(runs []setRun) bool {
	var first map[string]any
	for _, r := range runs {
		var e map[string]any
		if json.Unmarshal(r.Env, &e) != nil {
			return true
		}
		for _, k := range []string{"seed", "workload", "traced"} {
			delete(e, k)
		}
		if first == nil {
			first = e
			continue
		}
		if fmt.Sprint(e) != fmt.Sprint(first) {
			return true
		}
	}
	return false
}

// steadyMain implements "perfbench steady [-bench BENCHMARK.json] A [B]":
// it prints each workload x end-to-end metric's median and quartile spread
// for one or two sets of runs and judges them against BENCHMARK.json's
// bounds. It exits 0 when every pair passes, 1 otherwise, 2 on bad usage.
func steadyMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench steady [-bench BENCHMARK.json] setA.jsonl [setB.jsonl]")
		return 2
	}
	d, err := loadDeclaration(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var sets [][]setRun
	for _, p := range fs.Args() {
		runs, err := readSet(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if envDiffers(runs) {
			fmt.Fprintf(w, "warning: %s mixes runs made under different configurations\n", p)
		}
		sets = append(sets, runs)
	}
	if len(sets) == 1 {
		sets = append(sets, nil)
	}
	verdicts := judge(d, sets[0], sets[1])
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian A\tQ1 A\tQ3 A\tspread A\tn\tmedian B\tQ1 B\tQ3 B\tspread B\tdrift\tbound\tverdict\t")
	allPass := true
	for _, v := range verdicts {
		allPass = allPass && v.pass
		verdict := "pass"
		if !v.pass {
			verdict = "FAIL"
		}
		if v.why != "" {
			verdict += ": " + v.why
		}
		b := "\t\t\t\t\t\t"
		if v.hasB {
			b = fmt.Sprintf("%d\t%.6g\t%.6g\t%.6g\t%.3f\t%+.3f\t", v.b.n, v.b.median, v.b.q1, v.b.q3, v.b.rel, v.drift)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t%s%.2f\t%s\t\n",
			v.workload, v.metric.Name, v.a.n, v.a.median, v.a.q1, v.a.q3, v.a.rel, b, v.metric.Bound, verdict)
	}
	tw.Flush()
	if !allPass {
		return 1
	}
	return 0
}
