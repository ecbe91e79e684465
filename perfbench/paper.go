package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tireplay/internal/calibrate"
	"tireplay/internal/core"
	"tireplay/internal/experiments"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/msgreplay"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/stats"
)

// The paper_pipeline workload: Figure 6 (new pipeline, SMPI) and Figure 3
// (old pipeline, MSG) for LU class B on the emulated bordereau cluster at
// 8, 16, 32 and 64 ranks. Every step runs: ground-truth emulation,
// calibration, acquisition and replay.
const (
	paperIterations    = 5 // SSOR iterations per run, scaled to itmax as the figures do
	paperCalIterations = 5 // the experiments package's default
	paperSetupsPerRep  = 3 // calibrations timed for setup_s before each repetition
)

var paperClasses = []npb.Class{npb.ClassB}

// figureCounts sums the kernel counters of one repetition's runs.
type figureCounts struct {
	groundSwitches, groundEvents int64
	actions                      int64
	sim                          sim.Stats
}

func (fc *figureCounts) addReplay(res *core.Result) {
	fc.actions += res.Actions
	addStats(&fc.sim, res.Engine)
}

// addStats adds b's counters to a, keeping the larger component maximum.
func addStats(a *sim.Stats, b sim.Stats) {
	a.ContextSwitches += b.ContextSwitches
	a.TimersFired += b.TimersFired
	a.CommsStarted += b.CommsStarted
	a.CommsCompleted += b.CommsCompleted
	a.ShareRecomputes += b.ShareRecomputes
	a.Events += b.Events
	a.ComponentsResolved += b.ComponentsResolved
	a.FlowsResolved += b.FlowsResolved
	a.MaxComponentFlows = max(a.MaxComponentFlows, b.MaxComponentFlows)
}

func runPaper(r *run) (map[string]metric, error) {
	c := ground.Bordereau()
	// The seed orders the instances; the figures' numbers do not depend on
	// the order, so the accuracy metric stays the paper's.
	procs := slices.Clone(experiments.BordereauProcs)
	r.rng(1).Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
	opt := experiments.Options{Iterations: paperIterations, CalibrationIterations: paperCalIterations}
	r.logf("paper_pipeline: LU %v on %s at %v ranks, %d iterations", paperClasses, c.Name, procs, paperIterations)

	// Set-up: the calibrations both pipelines need, timed a few at a time
	// before every repetition.
	var refRates []float64
	su := &setups{f: func(i int) error {
		return r.spans.wrap(fmt.Sprintf("setup-%d", i), "bench.setup", 0, func(id int) error {
			rates, err := calibrateBoth(r, fmt.Sprintf("setup-%d", i), id, c)
			if err != nil {
				return err
			}
			if refRates == nil {
				refRates = rates
			} else {
				r.check(slices.Equal(rates, refRates), "calibration %d: rates %v differ from %v", i, rates, refRates)
			}
			return nil
		})
	}}

	var ref []experiments.AccuracyRow
	var counts []figureCounts
	minReps := 3
	if r.traced() {
		minReps = 4
	}
	reps, err := r.repeat(minReps, func() error { return su.run(paperSetupsPerRep) }, func(i int, traced bool) error {
		var rows []experiments.AccuracyRow
		var err error
		if traced {
			var fc figureCounts
			rows, fc, err = tracedFigures(r, fmt.Sprintf("rep-%d", i), c, procs, opt)
			counts = append(counts, fc)
		} else {
			rows, err = figures(c, procs, opt)
		}
		if err != nil {
			return err
		}
		if ref == nil {
			ref = rows
			return nil
		}
		r.check(sameRows(rows, ref), "paper_pipeline rep %d (traced=%v): rows differ from the warm-up's", i, traced)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Figure 6 rows come first: the new pipeline's accuracy.
	fig6 := ref[:len(procs)]
	errSum := 0.0
	for _, row := range fig6 {
		errSum += math.Abs(row.ErrPct)
	}
	absErr := errSum / float64(len(fig6))
	sorted := slices.Clone(ref)
	slices.SortStableFunc(sorted, func(a, b experiments.AccuracyRow) int { return cmp.Compare(a.Procs, b.Procs) })
	for _, row := range sorted {
		fmt.Fprintf(r.digest, "%s %x %x %d\n", row.Instance, math.Float64bits(row.Real), math.Float64bits(row.Sim), row.ReplayActions)
		r.logf("  %-6s real %9.4f s  sim %9.4f s  err %+7.3f %%", row.Instance, row.Real, row.Sim, row.ErrPct)
	}
	r.logf("Figure 6 mean |error| %.4f %%", absErr)

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
			"points_per_s": {float64(len(ref)*len(reps)) / total, "1/s"},
			"alloc_mb":     {alloc, "MB"},
			"peak_heap_mb": {peak, "MB"},
		}, nil
	}

	for i := 1; i < len(counts); i++ {
		r.check(counts[i] == counts[0], "paper_pipeline: traced repetition counters differ: %+v vs %+v", counts[i], counts[0])
	}
	spans := r.spans.snapshot()
	writeLayerTable(r.report, spans, "setup-")
	writeLayerTable(r.report, spans, "rep-")
	tracedWall, _, _ := repMedians(reps, true)
	groundS, groundShare := layerShare(spans, "rep-", "ground")
	coreS, coreShare := layerShare(spans, "rep-", "core")
	calS, _ := layerShare(spans, "setup-", "calibrate")
	fc := counts[0]
	m := map[string]metric{
		"ground.wall_s":            {groundS, "s"},
		"ground.share":             {groundShare, "ratio"},
		"ground.context_switches":  {float64(fc.groundSwitches), "count"},
		"ground.events":            {float64(fc.groundEvents), "count"},
		"calibrate.wall_s":         {calS, "s"},
		"core.wall_s":              {coreS, "s"},
		"core.share":               {coreShare, "ratio"},
		"core.actions":             {float64(fc.actions), "count"},
		"core.actions_per_s":       {float64(fc.actions) / coreS, "1/s"},
		"bench.trace_overhead_pct": {100 * (tracedWall - wall) / wall, "%"},
	}
	simMetrics(m, fc.sim)
	return m, nil
}

// simMetrics adds the solver and event-loop counters of a repetition.
func simMetrics(m map[string]metric, st sim.Stats) {
	m["sim.events"] = metric{float64(st.Events), "count"}
	m["sim.share_recomputes"] = metric{float64(st.ShareRecomputes), "count"}
	m["sim.flows_resolved"] = metric{float64(st.FlowsResolved), "count"}
	if st.ShareRecomputes > 0 {
		m["sim.flows_per_recompute"] = metric{float64(st.FlowsResolved) / float64(st.ShareRecomputes), "count"}
	}
	m["sim.max_component_flows"] = metric{float64(st.MaxComponentFlows), "count"}
	m["sim.comms_completed"] = metric{float64(st.CommsCompleted), "count"}
}

// figures is one untraced repetition: both figures through the library's
// own entry point.
func figures(c *ground.Cluster, procs []int, opt experiments.Options) ([]experiments.AccuracyRow, error) {
	rows, err := experiments.FigureAccuracy(c, experiments.NewPipeline, paperClasses, procs, opt)
	if err != nil {
		return nil, err
	}
	old, err := experiments.FigureAccuracy(c, experiments.OldPipeline, paperClasses, procs, opt)
	if err != nil {
		return nil, err
	}
	return append(rows, old...), nil
}

// calibrateBoth runs the calibration of each pipeline and returns the
// classic rate followed by the cache-aware rates.
func calibrateBoth(r *run, trace string, parent int, c *ground.Cluster) ([]float64, error) {
	var classic float64
	var ca *calibrate.CacheAware
	err := r.spans.wrap(trace, "calibrate.ClassicA4", parent, func(int) (err error) {
		classic, err = calibrate.ClassicA4(c, paperCalIterations)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.spans.wrap(trace, "calibrate.NewCacheAware", parent, func(int) (err error) {
		ca, err = calibrate.NewCacheAware(c, paperClasses, paperCalIterations)
		return err
	})
	if err != nil {
		return nil, err
	}
	rates := []float64{classic, ca.ARate}
	for _, class := range paperClasses {
		rates = append(rates, ca.ClassRates[class])
	}
	return rates, nil
}

// tracedFigures is one traced repetition. It makes the calls
// experiments.FigureAccuracy makes, in the same order and with the same
// arguments, each inside a span; its rows must equal the untraced ones.
func tracedFigures(r *run, trace string, c *ground.Cluster, procs []int, opt experiments.Options) ([]experiments.AccuracyRow, figureCounts, error) {
	var rows []experiments.AccuracyRow
	var fc figureCounts
	for _, pipe := range []experiments.Pipeline{experiments.NewPipeline, experiments.OldPipeline} {
		err := r.spans.wrap(trace, "experiments.FigureAccuracy", 0, func(root int) error {
			var classic float64
			var ca *calibrate.CacheAware
			var err error
			if pipe == experiments.OldPipeline {
				err = r.spans.wrap(trace, "calibrate.ClassicA4", root, func(int) (err error) {
					classic, err = calibrate.ClassicA4(c, paperCalIterations)
					return err
				})
			} else {
				err = r.spans.wrap(trace, "calibrate.NewCacheAware", root, func(int) (err error) {
					ca, err = calibrate.NewCacheAware(c, paperClasses, paperCalIterations)
					return err
				})
			}
			if err != nil {
				return err
			}
			for _, class := range paperClasses {
				for _, p := range procs {
					row, err := tracedAccuracyOne(r, trace, root, c, pipe, class, p, classic, ca, opt, &fc)
					if err != nil {
						return err
					}
					rows = append(rows, *row)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fc, err
		}
	}
	return rows, fc, nil
}

// tracedAccuracyOne mirrors one instance of experiments.FigureAccuracy:
// the real (emulated) run, the acquisition, the target platform with the
// calibrated rate, and the replay.
func tracedAccuracyOne(r *run, trace string, parent int, c *ground.Cluster, pipe experiments.Pipeline, class npb.Class, p int,
	classicRate float64, cacheAware *calibrate.CacheAware, opt experiments.Options, fc *figureCounts) (*experiments.AccuracyRow, error) {

	lu, err := npb.NewLU(class, p, opt.Iterations)
	if err != nil {
		return nil, err
	}
	realCompile := instrument.O0
	if pipe == experiments.NewPipeline {
		realCompile = instrument.O3
	}
	var real *ground.RunResult
	err = r.spans.wrap(trace, "ground.Cluster.Run", parent, func(int) (err error) {
		real, err = c.Run(lu, c.InstrConfig(instrument.None, realCompile, class))
		return err
	})
	if err != nil {
		return nil, err
	}
	fc.groundSwitches += real.Engine.ContextSwitches
	fc.groundEvents += real.Engine.Events

	if lu, err = npb.NewLU(class, p, opt.Iterations); err != nil {
		return nil, err
	}
	acq := c.InstrConfig(instrument.Minimal, instrument.O3, class)
	if pipe == experiments.OldPipeline {
		acq = c.InstrConfig(instrument.Fine, instrument.O0, class)
	}
	prov := instrument.Acquired{W: lu, Cfg: acq}

	var plat *platform.Platform
	var pwModel *platform.PiecewiseModel
	err = r.spans.wrap(trace, "platform.Spec.Build", parent, func(int) (err error) {
		plat, pwModel, err = c.Spec(p).Build()
		return err
	})
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	if pipe == experiments.OldPipeline {
		plat.SetSpeed(classicRate)
		cfg = core.Config{Backend: core.MSG, MSG: msgreplay.PrototypeConfig()}
	} else {
		plat.SetSpeed(cacheAware.RateFor(lu, class))
		replayMPI := c.MPI
		replayMPI.MemcpyBandwidth = 0 // as the figures do: SMPI does not model the eager copy
		replayMPI.MemcpyLatency = 0
		cfg = core.Config{Backend: core.SMPI, Network: pwModel, MPI: replayMPI}
	}
	var res *core.Result
	err = r.spans.wrap(trace, "core.Replay", parent, func(int) (err error) {
		res, err = core.Replay(prov, plat, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	fc.addReplay(res)
	return &experiments.AccuracyRow{
		Instance:          fmt.Sprintf("%s-%d", class, p),
		Class:             class,
		Procs:             p,
		Real:              scaleToFull(real.Time, class, opt.Iterations),
		Sim:               scaleToFull(res.SimulatedTime, class, opt.Iterations),
		ErrPct:            stats.RelErr(res.SimulatedTime, real.Time),
		ReplayWallSeconds: res.Wall.Seconds(),
		ReplayActions:     res.Actions,
	}, nil
}

// scaleToFull converts a reduced-iteration time to the full instance, as
// the experiments package does for the rows it reports.
func scaleToFull(t float64, class npb.Class, iters int) float64 {
	full, err := npb.NewLU(class, 4, 0)
	if err != nil {
		return t
	}
	return t * float64(full.ItMax()) / float64(iters)
}

// sameRows reports whether two repetitions predicted bit-identical rows
// (replay wall time aside).
func sameRows(a, b []experiments.AccuracyRow) bool {
	return slices.EqualFunc(a, b, func(x, y experiments.AccuracyRow) bool {
		return x.Instance == y.Instance && x.Procs == y.Procs && x.ReplayActions == y.ReplayActions &&
			math.Float64bits(x.Real) == math.Float64bits(y.Real) &&
			math.Float64bits(x.Sim) == math.Float64bits(y.Sim) &&
			math.Float64bits(x.ErrPct) == math.Float64bits(y.ErrPct)
	})
}
