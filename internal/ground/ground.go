// Package ground emulates the *real* execution platforms of the paper's
// evaluation — the Grid'5000 bordereau and graphene clusters — which are the
// reference every accuracy figure is computed against. Since the physical
// machines are not available, the emulation is the same simulation kernel
// configured with a deliberately richer machine model than any replay
// backend has access to:
//
//   - cache-dependent instruction rates: a rank whose hot working set
//     exceeds the per-core L2 capacity computes at a reduced rate
//     (Section 2.3);
//   - the sender-side memory copy of eager messages, which the paper-era
//     SMPI does not model (Section 4.3);
//   - deterministic per-rank speed jitter (OS noise, aging hardware — the
//     paper calls bordereau "prone to failures and suspect behaviors");
//   - instrumentation probe time and counter inflation when running an
//     instrumented build (Sections 2.1/2.2).
//
// The controlled gaps between this model and the replay backends are what
// produce the error shapes of Figures 3, 6 and 7.
package ground

import (
	"fmt"

	"tireplay/internal/core"
	"tireplay/internal/instrument"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/stats"
	"tireplay/internal/trace"
)

// Cluster describes one emulated execution platform.
type Cluster struct {
	// Name of the cluster ("bordereau", "graphene").
	Name string
	// Hosts is the node count (one rank per node).
	Hosts int
	// BaseRate is the in-cache instruction rate of one core (instr/s).
	BaseRate float64
	// L2Bytes is the per-core L2 capacity.
	L2Bytes float64
	// OutOfCacheFactor multiplies the rate of ranks whose working set
	// exceeds L2Bytes.
	OutOfCacheFactor float64
	// JitterAmp is the amplitude of the per-rank slowdown: rank r computes
	// at BaseRate * cache * (1 - JitterAmp*u_r) with u_r deterministic in
	// [0,1). Real time can only be lost to noise, never gained.
	JitterAmp float64
	// Seed drives the deterministic jitter streams.
	Seed uint64
	// MPI is the ground-truth communication model (memcpy modelled).
	MPI mpi.ModelConfig
	// O3Scales holds per-class -O3 instruction factors measured on this
	// cluster's compiler/ISA pair (nil entries fall back to the class
	// defaults of the instrument package).
	O3Scales map[npb.Class]float64
	// ProbeCosts overrides the instrumentation cost model for this cluster
	// (TAU version, local disk speed); nil keeps the defaults.
	ProbeCosts *instrument.Costs
	// Spec describes the cluster's network for n ranks as a serializable
	// platform description (including its piece-wise-linear factor model),
	// which is what lets declarative sweeps target the cluster.
	Spec func(n int) *platform.Spec
}

// Platform materializes the cluster's network for n ranks, together with
// its piece-wise-linear factor model — Spec(n), built.
func (c *Cluster) Platform(n int) (*platform.Platform, *platform.PiecewiseModel, error) {
	return c.Spec(n).Build()
}

// RunResult is one emulated execution.
type RunResult struct {
	// Time is the wall-clock time of the run in seconds (the "real"
	// execution time of the paper's comparisons).
	Time float64
	// ComputeSeconds is the per-rank time spent outside MPI (application
	// compute plus in-application probe time) — what TAU reports as
	// exclusive application time. Calibration divides counters by it.
	ComputeSeconds []float64
	// Engine exposes the kernel counters of the emulation.
	Engine sim.Stats
}

// rateFor returns the effective compute rate of one rank.
func (c *Cluster) rateFor(w npb.Workload, rank int) float64 {
	rate := c.BaseRate
	if w.WorkingSet(rank) > c.L2Bytes {
		rate *= c.OutOfCacheFactor
	}
	if c.JitterAmp > 0 {
		u := stats.NewRNG(c.Seed).Fork(uint64(rank)).Float64()
		rate *= 1 - c.JitterAmp*u
	}
	return rate
}

// InstrConfig builds an acquisition configuration for this cluster,
// installing its measured -O3 factor for the class.
func (c *Cluster) InstrConfig(mode instrument.Mode, compile instrument.Compile, class npb.Class) instrument.Config {
	cfg := instrument.Config{Mode: mode, Compile: compile, Class: class, Costs: c.ProbeCosts}
	if s, ok := c.O3Scales[class]; ok {
		cfg.O3ScaleOverride = s
	}
	return cfg
}

// CacheResident reports whether every rank of the workload fits in L2.
func (c *Cluster) CacheResident(w npb.Workload) bool {
	for r := 0; r < w.Ranks(); r++ {
		if w.WorkingSet(r) > c.L2Bytes {
			return false
		}
	}
	return true
}

// Run emulates one execution of w built and instrumented as icfg describes,
// and returns its wall-clock time. Use instrument.Counters for the counter
// readings and instrument.Acquired for the trace the run would produce.
// A failing operation stream or a malformed operation aborts the run with
// an error wrapping a *core.TraceError.
func (c *Cluster) Run(w npb.Workload, icfg instrument.Config) (*RunResult, error) {
	return c.run(w, icfg, spawnRank)
}

// rankSpawner starts one rank of an emulated run computing at rate,
// accumulating its time outside MPI into *busy.
type rankSpawner func(world *mpi.World, rank int, rate float64, stream npb.OpStream, icfg instrument.Config, busy *float64)

// run is Run with the rank spawner as a parameter, so the tests can run the
// same set-up on their goroutine reference.
func (c *Cluster) run(w npb.Workload, icfg instrument.Config, spawn rankSpawner) (*RunResult, error) {
	n := w.Ranks()
	if n > c.Hosts {
		return nil, fmt.Errorf("ground: %s has %d nodes, workload needs %d", c.Name, c.Hosts, n)
	}
	plat, model, err := c.Platform(n)
	if err != nil {
		return nil, err
	}
	var opts []sim.Option
	if model != nil {
		opts = append(opts, sim.WithNetworkModel(model))
	}
	engine := sim.NewEngine(plat, opts...)
	hosts := plat.Hosts()[:n]
	world, err := mpi.NewWorld(engine, hosts, c.MPI)
	if err != nil {
		return nil, err
	}
	busy := make([]float64, n)
	for rank, h := range hosts {
		stream, err := w.Rank(rank)
		if err != nil {
			return nil, err
		}
		// One rank per node: the node's speed is the rank's effective
		// rate. The platform is built for this run alone.
		rate := c.rateFor(w, rank)
		h.Speed = rate
		spawn(world, rank, rate, stream, icfg, &busy[rank])
	}
	if err := engine.Run(); err != nil {
		return nil, fmt.Errorf("ground: emulating %s on %s: %w", w.Name(), c.Name, err)
	}
	return &RunResult{Time: engine.Now(), ComputeSeconds: busy, Engine: engine.Stats()}, nil
}

// groundBackend names the emulator in the TraceErrors of its runs.
const groundBackend = "ground"

// spawnRank compiles one rank's operation stream into a continuation
// program on the emulated machine. The actions lower exactly as in replay
// (core.RankCompiler), with compute at the node's speed, which run has set
// to the rank's rate. The emulator adds only its own costs: the compile
// level's instruction scaling, and the instrumentation probe time — after a
// compute segment, before an MPI call.
func spawnRank(world *mpi.World, rank int, rate float64, stream npb.OpStream, icfg instrument.Config, busy *float64) {
	rc := core.NewRankCompiler(groundBackend, world.TaskRank(rank), rank, world.Size())
	world.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
		op, ok, err := stream.Next()
		if err != nil {
			return false, rc.StreamError(err)
		}
		if !ok {
			return false, nil
		}
		a := op.Action
		var after float64 // probe time charged once the action is done
		if a.Kind == trace.Compute {
			base, _, probeTime := icfg.ComputeCost(op)
			a.Instructions = base
			after = probeTime
			*busy += base/rate + probeTime
		} else if a.Kind != trace.Init && a.Kind != trace.Finalize {
			if _, probeTime := icfg.MPICost(op); probeTime > 0 {
				p.Sleep(probeTime)
			}
		}
		if err := rc.Lower(p, a); err != nil {
			return false, err
		}
		if after > 0 {
			p.Sleep(after)
		}
		return true, nil
	})
}
