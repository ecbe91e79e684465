// Package msgreplay reimplements the paper's *first* trace replay backend,
// the one built on SimGrid's MSG API (Section 2.4 and the beginning of
// Section 3.3). It exists as the baseline whose inaccuracy Figure 3 shows:
//
//   - small messages (< 64 KiB) are sent with a plain asynchronous send —
//     the transfer only starts when the receiver posts its receive, unlike
//     the detached eager mode of real MPI runtimes ("we tried to model that
//     by using an asynchronous send for such small messages. However, it is
//     not what is actually implemented by most MPI runtimes");
//   - large messages use a fully blocking task send;
//   - collective operations are modelled by monolithic formulas instead of
//     being simulated as sets of point-to-point messages, and synchronize
//     all ranks;
//   - the network model is factor-free (no piece-wise-linear corrections).
package msgreplay

import (
	"fmt"
	"math"

	"tireplay/internal/sim"
)

// Config holds the reference network figures used by the monolithic
// collective formulas (the MSG prototype hard-coded comparable constants).
type Config struct {
	// EagerThreshold mirrors the "size < 65536" test of the original
	// action_send; zero selects 65536.
	EagerThreshold float64 `json:"eager_threshold,omitempty"`
	// RefLatency and RefBandwidth parameterize the collective formulas.
	RefLatency   float64 `json:"ref_latency,omitempty"`
	RefBandwidth float64 `json:"ref_bandwidth,omitempty"`
}

func (c Config) eagerThreshold() float64 {
	if c.EagerThreshold == 0 {
		return 65536
	}
	return c.EagerThreshold
}

// PrototypeConfig returns the reference network figures the original MSG
// prototype hard-coded (the values every paper-faithful replay of the first
// implementation uses).
func PrototypeConfig() Config {
	return Config{RefLatency: 6.5e-5, RefBandwidth: 1.25e8}
}

// World is the MSG-style replay context: ranks mapped to hosts and a shared
// barrier for monolithic collectives.
type World struct {
	engine  *sim.Engine
	hosts   []*sim.Host
	cfg     Config
	barrier *sim.Barrier
	pairs   *sim.PairSpace
}

// NewWorld creates a replay context for len(hosts) ranks. The pair mailbox
// space is deliberately not pinned: MSG transfers start only when both sides
// are present, which is the modelling deficiency the paper fixes.
func NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg Config) (*World, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("msgreplay: empty host list")
	}
	if cfg.RefLatency < 0 || cfg.RefBandwidth < 0 {
		return nil, fmt.Errorf("msgreplay: negative reference network figures")
	}
	return &World{
		engine:  engine,
		hosts:   hosts,
		cfg:     cfg,
		barrier: engine.NewBarrier(len(hosts)),
		pairs:   engine.NewPairSpace("m", nil),
	}, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.hosts) }

// Spawn starts one rank's body as a goroutine-backed simulated process. It
// is the executing reference that the continuation path (SpawnProg with
// TaskRank) is tested against; production code compiles ranks instead.
func (w *World) Spawn(rank int, body func(*Rank)) {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("msgreplay: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	w.engine.Spawn(fmt.Sprintf("msg-rank%d", rank), w.hosts[rank], func(p *sim.Proc) {
		body(&Rank{world: w, rank: rank, proc: p})
	})
}

// SpawnProg starts one rank as a continuation program; see TaskRank for the
// compiler producing such feeds.
func (w *World) SpawnProg(rank int, feed sim.Feed) {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("msgreplay: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	w.engine.SpawnProg(fmt.Sprintf("msg-rank%d", rank), w.hosts[rank], feed)
}

func (w *World) box(src, dst int) sim.Mbox { return w.pairs.Box(src, dst) }

// Rank is one replayed process under the MSG backend.
type Rank struct {
	world *World
	rank  int
	proc  *sim.Proc
}

// Rank returns the process rank.
func (r *Rank) Rank() int { return r.rank }

// Proc exposes the simulated process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Compute executes instructions at the host speed.
func (r *Rank) Compute(instr float64) { r.proc.Execute(instr) }

// Send reproduces the original action_send: below the threshold the message
// becomes a fire-and-forget asynchronous send (the transfer starts only at
// match time); at or above it, a blocking task send.
func (r *Rank) Send(dst int, bytes float64) {
	if bytes < r.world.cfg.eagerThreshold() {
		r.proc.PutAsyncBox(r.world.box(r.rank, dst), bytes)
		return
	}
	r.proc.PutBox(r.world.box(r.rank, dst), bytes)
}

// Isend posts an asynchronous send and returns the underlying comm so that
// explicit isend/wait trace pairs stay balanced.
func (r *Rank) Isend(dst int, bytes float64) *sim.Comm {
	return r.proc.PutAsyncBox(r.world.box(r.rank, dst), bytes)
}

// Recv blocks until a message from src is fully received; with unpinned
// mailboxes this always pays the full latency + size/bandwidth from match
// time, the root cause of the linearly growing error of Figure 3.
func (r *Rank) Recv(src int) {
	r.proc.GetBox(r.world.box(src, r.rank))
}

// Irecv posts an asynchronous receive.
func (r *Rank) Irecv(src int) *sim.Comm {
	return r.proc.GetAsyncBox(r.world.box(src, r.rank))
}

// Wait blocks on an asynchronous receive.
func (r *Rank) Wait(c *sim.Comm) {
	if c != nil {
		r.proc.WaitComm(c)
	}
}

// WaitAny blocks until at least one comm in cs has completed and returns the
// index of the lowest-indexed completed one. MSG comms are never nil (even
// small sends return a live comm), so the set passes through unchanged.
func (r *Rank) WaitAny(cs []*sim.Comm) int {
	return r.proc.WaitAnyComm(cs)
}

// collective synchronizes all ranks, then charges everyone the monolithic
// duration d computed from the reference network figures.
func (r *Rank) collective(d float64) {
	r.world.barrier.Await(r.proc)
	if d > 0 {
		r.proc.Sleep(d)
	}
}

func (w *World) log2ceil() float64 {
	return math.Ceil(math.Log2(float64(w.Size())))
}

// perHop is the modelled cost of moving bytes across one logical hop.
func (w *World) perHop(bytes float64) float64 {
	d := w.cfg.RefLatency
	if w.cfg.RefBandwidth > 0 {
		d += bytes / w.cfg.RefBandwidth
	}
	return d
}

// Barrier applies the monolithic model: log2(P) latency hops.
func (r *Rank) Barrier() {
	r.collective(r.world.log2ceil() * r.world.cfg.RefLatency)
}

// Bcast charges log2(P) full hops.
func (r *Rank) Bcast(bytes float64, root int) {
	r.collective(r.world.log2ceil() * r.world.perHop(bytes))
}

// Reduce charges log2(P) full hops.
func (r *Rank) Reduce(bytes float64, root int) {
	r.collective(r.world.log2ceil() * r.world.perHop(bytes))
}

// AllReduce charges 2*log2(P) full hops (reduce then broadcast).
func (r *Rank) AllReduce(bytes float64) {
	r.collective(2 * r.world.log2ceil() * r.world.perHop(bytes))
}

// AllToAll charges P-1 full hops.
func (r *Rank) AllToAll(bytes float64) {
	r.collective(float64(r.world.Size()-1) * r.world.perHop(bytes))
}

// Gather charges P-1 full hops.
func (r *Rank) Gather(bytes float64, root int) {
	r.collective(float64(r.world.Size()-1) * r.world.perHop(bytes))
}

// AllGather charges P-1 full hops.
func (r *Rank) AllGather(bytes float64) {
	r.collective(float64(r.world.Size()-1) * r.world.perHop(bytes))
}

// vectorHops sums the per-hop cost of the P-1 distinct volumes a vector
// collective moves through rank's position: one hop per peer, each at its
// own size. It is the vector generalization of the (P-1)*perHop(bytes)
// formulas above.
func (w *World) vectorHops(vols []float64, rank int) float64 {
	var d float64
	for k, v := range vols {
		if k == rank {
			continue
		}
		d += w.perHop(v)
	}
	return d
}

// AllToAllV charges one hop per peer at that peer's send volume.
func (r *Rank) AllToAllV(vols []float64) {
	r.collective(r.world.vectorHops(vols, r.rank))
}

// AllGatherV charges one hop per remote block at that block's size.
func (r *Rank) AllGatherV(vols []float64) {
	r.collective(r.world.vectorHops(vols, r.rank))
}
