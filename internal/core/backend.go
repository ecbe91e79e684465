package core

// This file is the backend abstraction: both replay implementations (the
// accurate SMPI-style backend and the legacy MSG prototype) compile trace
// actions to sim micro-ops through the same TaskOps interface, driven by a
// single shared action lowering (see driver.go), and are looked up by name in
// a process-wide registry. Third parties can plug in further backends with
// Register; the Scenario/Runner layers select them by name.

import (
	"fmt"
	"sort"
	"sync"

	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/sim"
)

// TaskOps is the per-rank action compiler a replay backend provides: each
// method lowers one trace action into sim micro-ops appended to the given
// program. Wait/waitall are absent on purpose — the driver emits
// Prog.WaitPending/WaitAllPending itself, because the pending-request FIFO
// (and the no-outstanding-request trace check) is driver state, not backend
// state.
type TaskOps interface {
	// Compute executes instr instructions at the host's calibrated rate.
	Compute(p *sim.Prog, instr float64)

	// Point-to-point operations. Isend/Irecv push exactly one entry onto
	// the program's pending FIFO.
	Send(p *sim.Prog, dst int, bytes float64)
	Isend(p *sim.Prog, dst int, bytes float64)
	Recv(p *sim.Prog, src int)
	Irecv(p *sim.Prog, src int)

	// Collective operations. The vector collectives take one volume per rank
	// (already validated against the communicator size by the driver).
	Barrier(p *sim.Prog)
	Bcast(p *sim.Prog, bytes float64, root int)
	Reduce(p *sim.Prog, bytes float64, root int)
	AllReduce(p *sim.Prog, bytes float64)
	AllToAll(p *sim.Prog, bytes float64)
	Gather(p *sim.Prog, bytes float64, root int)
	AllGather(p *sim.Prog, bytes float64)
	AllToAllV(p *sim.Prog, vols []float64)
	AllGatherV(p *sim.Prog, vols []float64)
}

// World is one backend's replay context: a set of ranks bound to hosts on a
// shared engine. Every rank runs as a continuation program — a resumable
// state machine the event loop steps inline — fed by the shared driver.
type World interface {
	// TaskOps returns the per-rank action compiler.
	TaskOps(rank int) TaskOps
	// SpawnProg starts rank as a continuation program fed by feed.
	SpawnProg(rank int, feed sim.Feed)
}

// Backend builds replay worlds for one simulation model.
type Backend interface {
	// Name is the registry key ("smpi", "msg", ...).
	Name() string
	// NewWorld creates the replay context for len(hosts) ranks; cfg carries
	// the backend-specific knobs (Config.MPI, Config.MSG).
	NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg Config) (World, error)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Backend)
)

// Register makes a backend selectable by name in Config.Backend and
// Scenario.Backend. It panics on an empty name or a duplicate registration,
// like database/sql.Register.
func Register(name string, b Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" {
		panic("core: Register with empty backend name")
	}
	if b == nil {
		panic("core: Register with nil backend")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	registry[name] = b
}

// Lookup resolves a backend name; the empty string selects SMPI, the
// paper's accurate default.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = SMPI
	}
	registryMu.RLock()
	b, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown backend %q (registered: %v)", name, Backends())
	}
	return b, nil
}

// Backends returns the sorted names of all registered backends.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(SMPI, smpiBackend{})
	Register(MSG, msgBackend{})
}

// ---------------------------------------------------------------------------
// SMPI backend adapter.

type smpiBackend struct{}

func (smpiBackend) Name() string { return SMPI }

func (smpiBackend) NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg Config) (World, error) {
	w, err := mpi.NewWorld(engine, hosts, cfg.MPI)
	if err != nil {
		return nil, err
	}
	return smpiWorld{w}, nil
}

type smpiWorld struct{ w *mpi.World }

func (sw smpiWorld) TaskOps(rank int) TaskOps { return sw.w.TaskRank(rank) }

func (sw smpiWorld) SpawnProg(rank int, feed sim.Feed) { sw.w.SpawnProg(rank, feed) }

// ---------------------------------------------------------------------------
// MSG backend adapter.

type msgBackend struct{}

func (msgBackend) Name() string { return MSG }

func (msgBackend) NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg Config) (World, error) {
	w, err := msgreplay.NewWorld(engine, hosts, cfg.MSG)
	if err != nil {
		return nil, err
	}
	return msgWorld{w}, nil
}

type msgWorld struct{ w *msgreplay.World }

func (mw msgWorld) TaskOps(rank int) TaskOps { return mw.w.TaskRank(rank) }

func (mw msgWorld) SpawnProg(rank int, feed sim.Feed) { mw.w.SpawnProg(rank, feed) }
