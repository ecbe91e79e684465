package core

// This file is the one place trace actions are mapped to backend operations:
// RankCompiler lowers each action of a rank's stream into sim micro-ops
// through the backend's TaskOps, plus the pending-FIFO waits it emits itself.
// Replay feeds every rank through it, and the ground-truth emulator reuses it
// with its own compute and probe costs. Malformed traces are reported as
// structured errors instead of panics.

import (
	"errors"
	"fmt"

	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// Sentinel causes of trace replay failures, matchable with errors.Is.
var (
	// ErrNoOutstandingRequest reports a wait action with no nonblocking
	// operation left to wait on.
	ErrNoOutstandingRequest = errors.New("wait with no outstanding request")
	// ErrUnsupportedAction reports an action kind the driver cannot replay.
	ErrUnsupportedAction = errors.New("unsupported action kind")
)

// TraceError reports a malformed trace detected while replaying one rank.
// It is surfaced through Replay (and hence Scenario.Run) wrapped, so callers
// can match it with errors.As and its cause with errors.Is.
type TraceError struct {
	// Backend is the name of the backend that was replaying.
	Backend string
	// Rank is the rank whose stream was malformed.
	Rank int
	// Kind is the offending action kind, when the failure is tied to one.
	Kind trace.Kind
	// Err is the underlying cause.
	Err error
}

func (e *TraceError) Error() string {
	return fmt.Sprintf("%s replay, rank %d, action %q: %v", e.Backend, e.Rank, e.Kind, e.Err)
}

func (e *TraceError) Unwrap() error { return e.Err }

// RankCompiler lowers one rank's trace actions into micro-ops. Nonblocking
// operations are queued on the program's pending FIFO and consumed in order
// by wait/waitall, matching how the trace acquisition records MPI_Wait on
// the oldest outstanding request. Wait-any consumes whichever pending
// operation completes first; waitsome is k successive wait-anys. The FIFO
// itself lives in the running machine; the compiler tracks only its depth,
// which is all the no-outstanding-request check needs.
type RankCompiler struct {
	backend      string
	ops          TaskOps
	rank, nranks int
	npending     int
}

// NewRankCompiler returns the compiler for one rank of an nranks-wide
// communicator; backend names it in the TraceErrors it reports.
func NewRankCompiler(backend string, ops TaskOps, rank, nranks int) *RankCompiler {
	return &RankCompiler{backend: backend, ops: ops, rank: rank, nranks: nranks}
}

// Lower appends the micro-ops of action a to p. Every action is
// bounds-checked against the communicator size before it reaches the
// backend, so an out-of-range peer or root in a trace surfaces as a
// *TraceError instead of a backend panic (or a hang on a mailbox nobody
// serves).
func (c *RankCompiler) Lower(p *sim.Prog, a trace.Action) error {
	if err := a.ValidateIn(c.nranks); err != nil {
		return c.fail(a.Kind, err)
	}
	ops := c.ops
	switch a.Kind {
	case trace.Init, trace.Finalize:
		// Structural markers: no simulated cost.
	case trace.Compute:
		ops.Compute(p, a.Instructions)
	case trace.Send:
		ops.Send(p, a.Peer, a.Bytes)
	case trace.ISend:
		ops.Isend(p, a.Peer, a.Bytes)
		c.npending++
	case trace.Recv:
		ops.Recv(p, a.Peer)
	case trace.IRecv:
		ops.Irecv(p, a.Peer)
		c.npending++
	case trace.Wait:
		if c.npending == 0 {
			return c.fail(a.Kind, ErrNoOutstandingRequest)
		}
		p.WaitPending()
		c.npending--
	case trace.WaitAll:
		p.WaitAllPending()
		c.npending = 0
	case trace.WaitAny:
		if c.npending == 0 {
			return c.fail(a.Kind, ErrNoOutstandingRequest)
		}
		p.WaitAnyPending()
		c.npending--
	case trace.WaitSome:
		if a.Count > c.npending {
			return c.fail(a.Kind, fmt.Errorf("%w: waitsome of %d with %d outstanding", ErrNoOutstandingRequest, a.Count, c.npending))
		}
		for i := 0; i < a.Count; i++ {
			p.WaitAnyPending()
		}
		c.npending -= a.Count
	case trace.Barrier:
		ops.Barrier(p)
	case trace.Bcast:
		ops.Bcast(p, a.Bytes, a.Root)
	case trace.Reduce:
		ops.Reduce(p, a.Bytes, a.Root)
	case trace.AllReduce:
		ops.AllReduce(p, a.Bytes)
	case trace.AllToAll:
		ops.AllToAll(p, a.Bytes)
	case trace.Gather:
		ops.Gather(p, a.Bytes, a.Root)
	case trace.AllGather:
		ops.AllGather(p, a.Bytes)
	case trace.AllToAllV:
		ops.AllToAllV(p, a.Volumes)
	case trace.AllGatherV:
		ops.AllGatherV(p, a.Volumes)
	default:
		return c.fail(a.Kind, ErrUnsupportedAction)
	}
	return nil
}

// StreamError reports a failure to read the rank's next action.
func (c *RankCompiler) StreamError(err error) error {
	return &TraceError{Backend: c.backend, Rank: c.rank, Err: fmt.Errorf("reading stream: %w", err)}
}

func (c *RankCompiler) fail(kind trace.Kind, err error) error {
	return &TraceError{Backend: c.backend, Rank: c.rank, Kind: kind, Err: err}
}

// spawnRank starts rank as a continuation program on world. The feed is
// invoked by the engine exactly when the previous action's ops have drained,
// so action counts and trace errors land at the point in simulated time
// where the rank reads its next action; a malformed trace aborts the whole
// simulation with the structured error.
func spawnRank(world World, backend string, rank, nranks int, stream trace.Stream, actions *int64) {
	rc := NewRankCompiler(backend, world.TaskOps(rank), rank, nranks)
	world.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
		a, ok, err := stream.Next()
		if err != nil {
			return false, rc.StreamError(err)
		}
		if !ok {
			return false, nil
		}
		// The engine is single-threaded (lockstep), so the shared counter
		// needs no synchronization.
		*actions++
		if err := rc.Lower(p, a); err != nil {
			return false, err
		}
		return true, nil
	})
}
