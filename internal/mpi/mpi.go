// Package mpi implements MPI point-to-point and collective communication
// semantics on top of the simulation kernel. It corresponds to the SMPI
// layer the paper's new replay framework is re-implemented in (Section 3.3):
// small messages follow the eager protocol — the sender detaches and at most
// pays a local memory copy — large messages follow a rendezvous protocol,
// and collectives are simulated as sets of point-to-point messages rather
// than monolithic formulas.
//
// A ModelConfig selects the fidelity profile. The ground-truth cluster
// emulation and the SMPI replay backend share this package and differ only
// in their configs: most notably, the ground truth charges the sender-side
// memory copy of eager sends while the paper-era SMPI does not model it yet
// ("SMPI does not model the time to copy data in memory in the MPI_Send
// function yet", Section 4.3) — reproducing the small systematic
// underestimation visible in Figures 6 and 7.
package mpi

import (
	"fmt"

	"tireplay/internal/sim"
)

// DefaultEagerThreshold is the protocol switch point: messages strictly
// smaller use the eager mode ("when the message is smaller than 64KB, the
// eager mode is activated").
const DefaultEagerThreshold = 65536

// ModelConfig tunes the MPI communication model.
type ModelConfig struct {
	// EagerThreshold in bytes; messages strictly below it are sent eagerly
	// (detached), others use rendezvous. Zero selects
	// DefaultEagerThreshold.
	EagerThreshold float64 `json:"eager_threshold,omitempty"`
	// MemcpyBandwidth, when positive, charges the sender of an eager
	// message bytes/MemcpyBandwidth seconds for the local buffer copy.
	// Zero means the copy is not modelled (the paper-era SMPI behaviour).
	MemcpyBandwidth float64 `json:"memcpy_bandwidth,omitempty"`
	// MemcpyLatency is a fixed per-eager-send sender-side cost, charged
	// only when MemcpyBandwidth is modelled.
	MemcpyLatency float64 `json:"memcpy_latency,omitempty"`
	// SendOverhead and RecvOverhead are fixed per-call CPU costs (the
	// os/or parameters of LogP-like models), charged on every send/recv.
	SendOverhead float64 `json:"send_overhead,omitempty"`
	RecvOverhead float64 `json:"recv_overhead,omitempty"`
	// Bcast and AllReduce select the collective algorithms used by the
	// generic Bcast/AllReduce entry points (and hence by trace replay).
	// Zero values select the defaults (binomial tree, recursive doubling).
	Bcast     BcastAlgo     `json:"bcast,omitempty"`
	AllReduce AllReduceAlgo `json:"all_reduce,omitempty"`
}

func (c ModelConfig) eagerThreshold() float64 {
	if c.EagerThreshold == 0 {
		return DefaultEagerThreshold
	}
	return c.EagerThreshold
}

// World is an MPI communicator bound to a set of hosts (rank i runs on
// hosts[i]). Its two pair-mailbox namespaces — application ("p") and
// collective ("c") — are pinned to the destination hosts so eager transfers
// can start before the receive is posted, which is the detached behaviour
// the paper describes for real MPI runtimes. Pair spaces replace the
// historical per-pair name precomputation, whose O(P²) strings and pin map
// entries dominated memory at thousands of ranks.
type World struct {
	engine *sim.Engine
	hosts  []*sim.Host
	cfg    ModelConfig
	p2p    *sim.PairSpace
	coll   *sim.PairSpace
}

// NewWorld creates a communicator of len(hosts) ranks.
func NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg ModelConfig) (*World, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("mpi: empty host list")
	}
	for i, h := range hosts {
		if h == nil {
			return nil, fmt.Errorf("mpi: nil host for rank %d", i)
		}
	}
	w := &World{engine: engine, hosts: hosts, cfg: cfg}
	w.p2p = engine.NewPairSpace("p", hosts)
	w.coll = engine.NewPairSpace("c", hosts)
	return w, nil
}

// p2pBox and collBox return the pair mailboxes for a directed pair.
func (w *World) p2pBox(src, dst int) sim.Mbox  { return w.p2p.Box(src, dst) }
func (w *World) collBox(src, dst int) sim.Mbox { return w.coll.Box(src, dst) }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.hosts) }

// Engine returns the underlying simulation engine.
func (w *World) Engine() *sim.Engine { return w.engine }

// Host returns the host of the given rank.
func (w *World) Host(rank int) *sim.Host { return w.hosts[rank] }

// Config returns the communication model configuration.
func (w *World) Config() ModelConfig { return w.cfg }

// Spawn starts the body of one rank as a goroutine-backed simulated
// process. It is the executing reference that the continuation path
// (SpawnProg with TaskRank) is tested against; production code compiles
// ranks instead.
func (w *World) Spawn(rank int, body func(*Rank)) *Rank {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	r := &Rank{world: w, rank: rank}
	w.engine.Spawn(fmt.Sprintf("rank%d", rank), w.hosts[rank], func(p *sim.Proc) {
		r.proc = p
		body(r)
	})
	return r
}

// SpawnProg starts one rank as a continuation program fed by feed; see
// TaskRank for the compiler producing such feeds.
func (w *World) SpawnProg(rank int, feed sim.Feed) {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	w.engine.SpawnProg(fmt.Sprintf("rank%d", rank), w.hosts[rank], feed)
}

// Rank is one MPI process.
type Rank struct {
	world *World
	rank  int
	proc  *sim.Proc
}

// Rank returns the process's rank in the world.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.world.Size() }

// Proc exposes the underlying simulated process (for custom compute
// modelling, e.g. the ground-truth cache-aware rates).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the simulated time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Compute executes instr instructions at the host's calibrated rate.
func (r *Rank) Compute(instr float64) { r.proc.Execute(instr) }

// Request represents an outstanding nonblocking operation. A nil comm means
// the operation completed immediately (eager sends).
type Request struct {
	comm *sim.Comm
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.comm == nil || q.comm.Done() }
