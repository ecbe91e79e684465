package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"tireplay/internal/core"
	"tireplay/internal/ground"
	"tireplay/internal/mpi"
	"tireplay/internal/platform"
	"tireplay/internal/scenario"
	"tireplay/internal/trace"
)

// The torus_alltoallv workload: a 256-rank synthetic alltoallv trace,
// written as text trace files, compiled to the .tib cache and replayed by
// a scenario on an inline 16x16 torus. The max-min solver does most of the
// work; ground emulation is absent.
const (
	torusRanks        = 256
	torusIters        = 1
	torusSetupsPerRep = 4 // set-ups timed for setup_s before each repetition
)

func torusSpec() *platform.Spec {
	return &platform.Spec{
		Name:              "torus16x16",
		Topology:          "torus",
		TorusDims:         []int{16, 16},
		Speed:             1e9,
		LinkBandwidth:     1.25e9,
		LinkLatency:       1e-6,
		BackboneBandwidth: 5e9,
		BackboneLatency:   2e-6,
	}
}

// commModels returns the ground truth's communication model and the
// replay's: the same, less the eager memory copy the SMPI replay does not
// model (as in Figure 6).
func commModels() (replay, real mpi.ModelConfig) {
	real = ground.Bordereau().MPI
	replay = real
	replay.MemcpyBandwidth = 0
	replay.MemcpyLatency = 0
	return replay, real
}

func runTorus(r *run) (map[string]metric, error) {
	// The seed sets the alltoallv base payload: 64 KiB plus up to 255 bytes,
	// which keeps the flow structure (and so the solver's work) the same.
	bytes := 65536 + float64(r.rng(2).IntN(256))
	r.logf("torus_alltoallv: %d ranks, %d iteration(s), %.0f-byte base payload on a 16x16 torus", torusRanks, torusIters, bytes)

	// Every set-up writes the trace set into the same directory, as
	// re-acquiring traces in place does, and so recompiles the .tib. The
	// first set-up runs before the reference replay, the others a few at a
	// time before every repetition.
	dir := filepath.Join(r.dir, "traces")
	var desc string
	var writeS, compileS, decodeS, buildS []float64
	su := &setups{f: func(i int) error {
		tr := fmt.Sprintf("setup-%d", i)
		return r.spans.wrap(tr, "bench.setup", 0, func(root int) error {
			d, steps, err := torusSetup(r, tr, root, dir, bytes)
			if err != nil {
				return err
			}
			desc = d
			writeS = append(writeS, steps[0])
			compileS = append(compileS, steps[1])
			decodeS = append(decodeS, steps[2])
			buildS = append(buildS, steps[3])
			return nil
		})
	}}
	if err := su.run(1); err != nil {
		return nil, err
	}

	replay, real := commModels()
	sc := &scenario.Scenario{Name: "torus_alltoallv", Platform: torusSpec(), TraceDesc: desc, TraceCache: "on", MPI: replay}
	// The reference: the same trace replayed under the ground truth's
	// communication model. Computed once, outside the timed repetitions.
	refSc := *sc
	refSc.MPI = real
	refRes, err := refSc.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}

	var first *core.Result
	minReps := 3
	if r.traced() {
		minReps = 4
	}
	reps, err := r.repeat(minReps, func() error { return su.run(torusSetupsPerRep) }, func(i int, traced bool) error {
		var res *core.Result
		var err error
		if traced {
			res, err = tracedScenarioRun(r, fmt.Sprintf("rep-%d", i), sc)
		} else {
			res, err = sc.Run(context.Background())
		}
		if err != nil {
			return err
		}
		if first == nil {
			first = res
			return nil
		}
		r.check(sameResult(res, first), "torus_alltoallv rep %d (traced=%v): %+v differs from the warm-up's %+v", i, traced, res, first)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.digest, "%x %d %+v\n", math.Float64bits(first.SimulatedTime), first.Actions, first.Engine)
	absErr := 100 * math.Abs(first.SimulatedTime-refRes.SimulatedTime) / refRes.SimulatedTime
	r.logf("simulated %.9g s (ground-truth model %.9g s, |error| %.4f %%), %d actions, %+v",
		first.SimulatedTime, refRes.SimulatedTime, absErr, first.Actions, first.Engine)

	setupS := su.median(r)
	wall, alloc, peak := repMedians(reps, false)
	if !r.traced() {
		total := 0.0
		for _, s := range reps {
			total += s.wall.Seconds()
		}
		return map[string]metric{
			"setup_s":      {setupS, "s"},
			"wall_s":       {wall, "s"},
			"abs_err_pct":  {absErr, "%"},
			"points_per_s": {float64(len(reps)) / total, "1/s"},
			"alloc_mb":     {alloc, "MB"},
			"peak_heap_mb": {peak, "MB"},
		}, nil
	}

	spans := r.spans.snapshot()
	writeLayerTable(r.report, spans, "setup-")
	writeLayerTable(r.report, spans, "rep-")
	tracedWall, _, _ := repMedians(reps, true)
	coreS, coreShare := layerShare(spans, "rep-", "core")
	m := map[string]metric{
		"core.wall_s":              {coreS, "s"},
		"core.share":               {coreShare, "ratio"},
		"core.actions":             {float64(first.Actions), "count"},
		"core.actions_per_s":       {float64(first.Actions) / coreS, "1/s"},
		"trace.write_s":            {median(writeS), "s"},
		"trace.compile_s":          {median(compileS), "s"},
		"trace.decode_s":           {median(decodeS), "s"},
		"platform.build_s":         {median(buildS), "s"},
		"bench.trace_overhead_pct": {100 * (tracedWall - wall) / wall, "%"},
	}
	simMetrics(m, first.Engine)
	return m, nil
}

// torusSetup generates and writes the trace set into dir, compiles its
// .tib cache and builds the platform, returning the description path and
// the seconds of each step: write, compile, decode (traced runs only: every
// compiled rank stream drained once) and platform build.
func torusSetup(r *run, tr string, parent int, dir string, bytes float64) (string, [4]float64, error) {
	var steps [4]float64
	var desc string
	err := timed(&steps[0], func() error {
		return r.spans.wrap(tr, "trace.WriteSet", parent, func(int) error {
			perRank, err := trace.SyntheticMix("alltoallv", torusRanks, torusIters, bytes)
			if err != nil {
				return err
			}
			desc, err = trace.WriteSet(dir, "alltoallv", perRank)
			return err
		})
	})
	if err != nil {
		return "", steps, err
	}
	var tib string
	err = timed(&steps[1], func() error {
		return r.spans.wrap(tr, "trace.CompileDescription", parent, func(int) (err error) {
			tib, _, err = trace.CompileDescription(desc, torusRanks, 0)
			return err
		})
	})
	if err != nil {
		return "", steps, err
	}
	if r.traced() {
		err = timed(&steps[2], func() error {
			return r.spans.wrap(tr, "trace.decode", parent, func(int) error { return drainTIB(tib) })
		})
		if err != nil {
			return "", steps, err
		}
	}
	err = timed(&steps[3], func() error {
		return r.spans.wrap(tr, "platform.Spec.Build", parent, func(int) error {
			_, _, err := torusSpec().Build()
			return err
		})
	})
	return desc, steps, err
}

// drainTIB decodes every rank stream of a compiled trace once.
func drainTIB(path string) error {
	p, err := trace.OpenTIB(path)
	if err != nil {
		return err
	}
	defer p.Close()
	for rank := 0; rank < p.NumRanks(); rank++ {
		s, err := p.Rank(rank)
		if err != nil {
			return err
		}
		for {
			_, ok, err := s.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}
	return nil
}

// tracedScenarioRun makes the calls scenario.Run makes for this scenario
// (a TraceDesc source with the .tib cache required), each inside a span;
// its result must equal the untraced one.
func tracedScenarioRun(r *run, tr string, sc *scenario.Scenario) (*core.Result, error) {
	var res *core.Result
	err := r.spans.wrap(tr, "scenario.Run", 0, func(root int) error {
		if err := sc.Validate(); err != nil {
			return err
		}
		var plat *platform.Platform
		var model *platform.PiecewiseModel
		err := r.spans.wrap(tr, "platform.Spec.Build", root, func(int) (err error) {
			plat, model, err = sc.Platform.Build()
			return err
		})
		if err != nil {
			return err
		}
		var prov *trace.CompiledProvider
		err = r.spans.wrap(tr, "trace.OpenDescriptionCached", root, func(int) (err error) {
			prov, err = trace.OpenDescriptionCached(sc.TraceDesc, plat.Size(), 0)
			return err
		})
		if err != nil {
			return err
		}
		defer prov.Close()
		cfg := core.Config{Backend: sc.Backend, MPI: sc.MPI, MSG: sc.MSG}
		if model != nil {
			cfg.Network = model
		}
		return r.spans.wrap(tr, "core.Replay", root, func(int) (err error) {
			res, err = core.Replay(prov, plat, cfg)
			return err
		})
	})
	return res, err
}

// sameResult reports whether two replays predicted the same thing: equal
// simulated-time bits, action counts and kernel counters.
func sameResult(a, b *core.Result) bool {
	return math.Float64bits(a.SimulatedTime) == math.Float64bits(b.SimulatedTime) &&
		a.Actions == b.Actions && a.Engine == b.Engine
}
