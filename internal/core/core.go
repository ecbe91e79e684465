// Package core is the time-independent trace replay engine: it drives
// per-rank action streams through a replay backend — the rewritten SMPI
// backend (Section 3.3) or the original MSG prototype (Section 2.4) the
// paper compares, or any backend plugged in via Register — and reports the
// simulated execution time.
//
// Replaying a trace amounts to what the paper's smpi_replay main does:
// initialize, run every rank's action stream to completion, finalize, and
// read the simulated clock. Every rank runs as a continuation program: one
// action lowering (RankCompiler, driver.go) compiles its stream into sim
// micro-ops through the backend's TaskOps (backend.go), and the engine steps
// the programs inline from its event loop. Malformed traces surface as
// structured *TraceError values rather than panics.
package core

import (
	"fmt"
	"io"
	"time"

	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// BackendKind names a registered replay backend. It is a string alias so
// the built-in constants below, scenario specs, and CLI flags all use the
// same vocabulary.
type BackendKind = string

const (
	// SMPI is the rewritten backend: eager/rendezvous point-to-point
	// protocols, piece-wise-linear network factors, collectives as trees of
	// point-to-point messages.
	SMPI BackendKind = "smpi"
	// MSG is the first-prototype backend: asynchronous sends for small
	// messages, factor-free network, monolithic collectives.
	MSG BackendKind = "msg"
)

// Config parameterizes a replay.
type Config struct {
	// Backend names the replay implementation; "" selects SMPI. Any name
	// registered via Register is accepted.
	Backend BackendKind
	// Network is the network model installed in the kernel; nil selects the
	// factor-free default. The SMPI pipeline passes the platform's
	// piece-wise-linear model here.
	Network sim.NetworkModel
	// MPI configures the SMPI backend's communication model.
	MPI mpi.ModelConfig
	// MSG configures the legacy backend.
	MSG msgreplay.Config
	// Hosts optionally maps ranks to specific hosts; by default rank i runs
	// on the platform's i-th host.
	Hosts []*sim.Host
}

// Result reports a completed replay. It is JSON-serializable (the sweep
// result store persists it); the float fields round-trip bit-identically.
type Result struct {
	// SimulatedTime is the predicted execution time in seconds — the value
	// compared against real executions throughout the paper's evaluation.
	SimulatedTime float64 `json:"simulated_time"`
	// Actions is the total number of trace actions replayed.
	Actions int64 `json:"actions"`
	// Wall is the wall-clock duration of the replay itself (the efficiency
	// axis of the paper), serialized in nanoseconds.
	Wall time.Duration `json:"wall_ns"`
	// Engine exposes kernel counters (events, context switches, ...).
	Engine sim.Stats `json:"engine"`
}

// ActionsPerSecond is the replay throughput in trace actions per wall
// second.
func (r *Result) ActionsPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Actions) / r.Wall.Seconds()
}

// Replay runs every rank of prov on plat under cfg and returns the
// simulated time. Malformed traces are reported as errors wrapping a
// *TraceError; a trace that deadlocks surfaces the kernel's DeadlockError.
func Replay(prov trace.Provider, plat *platform.Platform, cfg Config) (*Result, error) {
	return replay(prov, plat, cfg, spawnRank)
}

// spawnFunc starts one rank's replay process on world, counting the actions
// it replays into *actions.
type spawnFunc func(world World, backend string, rank, nranks int, stream trace.Stream, actions *int64)

// replay is Replay with the rank spawner as a parameter, so the differential
// tests can run the same set-up on their goroutine reference driver.
func replay(prov trace.Provider, plat *platform.Platform, cfg Config, spawn spawnFunc) (*Result, error) {
	n := prov.NumRanks()
	if n <= 0 {
		return nil, fmt.Errorf("core: trace has no ranks")
	}
	hosts := cfg.Hosts
	if hosts == nil {
		if n > plat.Size() {
			return nil, fmt.Errorf("core: trace has %d ranks but platform %s has only %d hosts",
				n, plat.Name, plat.Size())
		}
		hosts = plat.Hosts()[:n]
	}
	if len(hosts) != n {
		return nil, fmt.Errorf("core: host mapping has %d entries for %d ranks", len(hosts), n)
	}

	backend, err := Lookup(cfg.Backend)
	if err != nil {
		return nil, err
	}

	var opts []sim.Option
	if cfg.Network != nil {
		opts = append(opts, sim.WithNetworkModel(cfg.Network))
	}
	engine := sim.NewEngine(plat, opts...)

	world, err := backend.NewWorld(engine, hosts, cfg)
	if err != nil {
		return nil, err
	}
	// Streams of ranks that never finish — because another rank's malformed
	// trace aborted the simulation, the trace deadlocked, or the caller was
	// cancelled — would otherwise be abandoned mid-file; close every stream
	// that can be closed once the engine has stopped.
	streams := make([]trace.Stream, 0, n)
	defer func() {
		for _, s := range streams {
			if c, ok := s.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	var actions int64
	for rank := 0; rank < n; rank++ {
		stream, err := prov.Rank(rank)
		if err != nil {
			return nil, fmt.Errorf("core: opening stream for rank %d: %w", rank, err)
		}
		streams = append(streams, stream)
		spawn(world, backend.Name(), rank, n, stream, &actions)
	}

	start := time.Now()
	if err := engine.Run(); err != nil {
		return nil, fmt.Errorf("core: replay failed: %w", err)
	}
	return &Result{
		SimulatedTime: engine.Now(),
		Actions:       actions,
		Wall:          time.Since(start),
		Engine:        engine.Stats(),
	}, nil
}
