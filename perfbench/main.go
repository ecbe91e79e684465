// Command perfbench is the repository's end-to-end benchmark. It drives the
// three pipelines a user of tireplay waits on — the paper's Figure 3/6
// accuracy pipeline, a scenario replay from text traces on a torus, and a
// sweep through the service — measures them for a fixed time, checks their
// outputs, and prints one JSON result line:
//
//	perfbench --workload paper_pipeline --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics BENCHMARK.json
// declares; with --trace 1 the run records spans around the calls into each
// layer and the result carries the per-layer metrics instead. The
// subcommand "steady" compares two sets of runs (see steady.go).
//
// Run it through run.sh, which builds it from the checkout's sources.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark run's settings and bookkeeping into a workload.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	// spans is nil in an untraced run; every recorder method is a no-op
	// on nil, so workloads call them unconditionally.
	spans *recorder
	// dir is the run's scratch directory, removed when the run ends.
	dir string
	// report receives the human-readable lines printed before the result.
	report io.Writer
	// digest accumulates the simulated outputs the run checked, so two
	// commits can be compared for identical predictions.
	digest hash.Hash

	attempted, failed int
}

func (r *run) traced() bool { return r.spans != nil }

// check counts one checked operation, and a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// logf writes one report line.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.report, format+"\n", args...)
}

// workloads maps each workload name to the function that runs it. Each
// returns the end-to-end metrics in an untraced run and the per-layer
// metrics it measures in a traced one.
var workloads = map[string]func(*run) (map[string]metric, error){
	"paper_pipeline":  runPaper,
	"torus_alltoallv": runTorus,
	"sweep_service":   runSweepService,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "measured time of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}

	// Pin GOMAXPROCS to the CPU count rather than inheriting whatever the
	// environment set: goroutine handoffs in ground emulation shift the
	// paper pipeline by ~20% between 1 and 2 Ps.
	runtime.GOMAXPROCS(runtime.NumCPU())

	work := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		dir:      dir,
		report:   os.Stdout,
		digest:   sha256.New(),
	}
	if *traceFlag == 1 {
		r.spans = newRecorder()
	}
	env := environment(r)
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	r.logf("%s", envLine)

	metrics, err := drive(r)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	want := decl.EndToEnd
	if r.traced() {
		want = decl.PerLayer
		// Layers a workload does not exercise report zero (see README.md
		// for which layer applies where).
		for _, m := range want {
			if _, ok := metrics[m.Name]; !ok {
				metrics[m.Name] = metric{0, m.Unit}
			}
		}
		path, err := r.spans.writeJSON(filepath.Join(buildDir, "spans"), *name, *seed)
		if err != nil {
			return err
		}
		r.logf("spans: %d written to %s", r.spans.len(), path)
	}
	if err := conform(metrics, want, !r.traced()); err != nil {
		return err
	}
	r.logf("outputs fingerprint: %s", hex.EncodeToString(r.digest.Sum(nil))[:16])

	line, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// declared is one metric entry of BENCHMARK.json.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json the benchmark itself reads:
// the metric lists it must print and the bounds the steadiness check
// applies.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// conform checks that metrics holds exactly the declared names with the
// declared units; end-to-end metrics must also be positive and finite.
func conform(metrics map[string]metric, want []declared, positive bool) error {
	var errs []error
	for _, m := range want {
		got, ok := metrics[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", m.Name))
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit))
		case positive && !(got.Value > 0 && got.Value < 1e300):
			errs = append(errs, fmt.Errorf("metric %s = %v, want a positive finite value", m.Name, got.Value))
		}
	}
	names := make([]string, 0, len(want))
	for _, m := range want {
		names = append(names, m.Name)
	}
	for n := range metrics {
		if !slices.Contains(names, n) {
			errs = append(errs, fmt.Errorf("metric %s is not declared in BENCHMARK.json", n))
		}
	}
	return errors.Join(errs...)
}

// env records how a run was configured, so figures from differently
// configured machines or settings are recognisable as such.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	CPUModel   string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
	// ScratchFS is the filesystem under the run's scratch directory,
	// which holds the traces and the sweep service's store and journal.
	ScratchFS string `json:"scratch_fs"`
}

func environment(r *run) env {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return env{
		Workload:   r.workload,
		Seed:       r.seed,
		Seconds:    int(r.seconds / time.Second),
		Traced:     r.traced(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
		GOGC:       gogc,
		ScratchFS:  fsType(r.dir),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
