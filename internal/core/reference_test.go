package core

// The goroutine reference driver. Before ranks were compiled to continuation
// programs, every backend executed trace actions on goroutine-backed
// processes through RankOps, one blocking call per action. That driver is
// kept here, in test code only, as the oracle the differential tests compare
// the production path against: both run the same set-up (replay), and must
// agree bit for bit on simulated times, action counts, engine stats, and
// failure reports.

import (
	"errors"
	"fmt"

	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// ReplayReference is Replay on the goroutine reference driver. It is
// exported to the external test package for the scenario- and
// workload-level parity tests.
func ReplayReference(prov trace.Provider, plat *platform.Platform, cfg Config) (*Result, error) {
	return replay(prov, plat, cfg, spawnRankRef)
}

// Request is an opaque handle to an outstanding nonblocking operation. Each
// backend hands out its own concrete type; the driver only stores handles
// and passes them back to Wait/WaitAll of the backend that produced them.
type Request any

// RankOps is the executing counterpart of TaskOps: every method runs one
// MPI call on the rank's own goroutine-backed process and blocks it as the
// call would.
type RankOps interface {
	// Proc exposes the simulated process the rank runs on.
	Proc() *sim.Proc
	Compute(instr float64)

	// WaitAny blocks until at least one request completes and returns the
	// index of the lowest-indexed completed one; the driver builds waitsome
	// on top of it (k successive wait-anys).
	Send(dst int, bytes float64)
	Isend(dst int, bytes float64) Request
	Recv(src int)
	Irecv(src int) Request
	Wait(q Request)
	WaitAll(qs []Request)
	WaitAny(qs []Request) int

	Barrier()
	Bcast(bytes float64, root int)
	Reduce(bytes float64, root int)
	AllReduce(bytes float64)
	AllToAll(bytes float64)
	Gather(bytes float64, root int)
	AllGather(bytes float64)
	AllToAllV(vols []float64)
	AllGatherV(vols []float64)
}

// spawnRankRef starts rank's reference process on world: the driver loop
// runs the stream to completion and aborts the whole simulation with a
// structured error on a malformed trace.
func spawnRankRef(world World, backend string, rank, nranks int, stream trace.Stream, actions *int64) {
	body := func(ops RankOps) {
		if err := driveRank(ops, rank, nranks, stream, actions); err != nil {
			var te *TraceError
			if errors.As(err, &te) && te.Backend == "" {
				te.Backend = backend
			}
			ops.Proc().Fail(err)
		}
	}
	switch w := world.(type) {
	case smpiWorld:
		w.w.Spawn(rank, func(r *mpi.Rank) { body(smpiOps{r}) })
	case msgWorld:
		w.w.Spawn(rank, func(r *msgreplay.Rank) { body(msgOps{r}) })
	default:
		panic(fmt.Sprintf("core: no goroutine reference for world %T", world))
	}
}

// driveRank replays one rank's action stream through ops, with the same
// validation, FIFO wait semantics and errors as RankCompiler.Lower.
func driveRank(ops RankOps, rank, nranks int, stream trace.Stream, actions *int64) error {
	var pending []Request
	for {
		a, ok, err := stream.Next()
		if err != nil {
			return &TraceError{Rank: rank, Err: fmt.Errorf("reading stream: %w", err)}
		}
		if !ok {
			return nil
		}
		*actions++
		if err := a.ValidateIn(nranks); err != nil {
			return &TraceError{Rank: rank, Kind: a.Kind, Err: err}
		}
		switch a.Kind {
		case trace.Init, trace.Finalize:
		case trace.Compute:
			ops.Compute(a.Instructions)
		case trace.Send:
			ops.Send(a.Peer, a.Bytes)
		case trace.ISend:
			pending = append(pending, ops.Isend(a.Peer, a.Bytes))
		case trace.Recv:
			ops.Recv(a.Peer)
		case trace.IRecv:
			pending = append(pending, ops.Irecv(a.Peer))
		case trace.Wait:
			if len(pending) == 0 {
				return &TraceError{Rank: rank, Kind: a.Kind, Err: ErrNoOutstandingRequest}
			}
			ops.Wait(pending[0])
			pending = pending[1:]
		case trace.WaitAll:
			ops.WaitAll(pending)
			pending = pending[:0]
		case trace.WaitAny:
			if len(pending) == 0 {
				return &TraceError{Rank: rank, Kind: a.Kind, Err: ErrNoOutstandingRequest}
			}
			idx := ops.WaitAny(pending)
			pending = append(pending[:idx], pending[idx+1:]...)
		case trace.WaitSome:
			if a.Count > len(pending) {
				return &TraceError{Rank: rank, Kind: a.Kind,
					Err: fmt.Errorf("%w: waitsome of %d with %d outstanding", ErrNoOutstandingRequest, a.Count, len(pending))}
			}
			for i := 0; i < a.Count; i++ {
				idx := ops.WaitAny(pending)
				pending = append(pending[:idx], pending[idx+1:]...)
			}
		case trace.Barrier:
			ops.Barrier()
		case trace.Bcast:
			ops.Bcast(a.Bytes, a.Root)
		case trace.Reduce:
			ops.Reduce(a.Bytes, a.Root)
		case trace.AllReduce:
			ops.AllReduce(a.Bytes)
		case trace.AllToAll:
			ops.AllToAll(a.Bytes)
		case trace.Gather:
			ops.Gather(a.Bytes, a.Root)
		case trace.AllGather:
			ops.AllGather(a.Bytes)
		case trace.AllToAllV:
			ops.AllToAllV(a.Volumes)
		case trace.AllGatherV:
			ops.AllGatherV(a.Volumes)
		default:
			return &TraceError{Rank: rank, Kind: a.Kind, Err: ErrUnsupportedAction}
		}
	}
}

// smpiOps adapts *mpi.Rank to RankOps. Embedding promotes every method whose
// signature already matches; only the request-typed ones need wrapping.
type smpiOps struct{ *mpi.Rank }

func (o smpiOps) Isend(dst int, bytes float64) Request { return o.Rank.Isend(dst, bytes) }
func (o smpiOps) Irecv(src int) Request                { return o.Rank.Irecv(src) }

func (o smpiOps) Wait(q Request) { o.Rank.Wait(q.(*mpi.Request)) }

func (o smpiOps) WaitAll(qs []Request) { o.Rank.WaitAll(smpiReqs(qs)) }

func (o smpiOps) WaitAny(qs []Request) int { return o.Rank.WaitAny(smpiReqs(qs)) }

func smpiReqs(qs []Request) []*mpi.Request {
	reqs := make([]*mpi.Request, len(qs))
	for i, q := range qs {
		reqs[i] = q.(*mpi.Request)
	}
	return reqs
}

// msgOps adapts *msgreplay.Rank to RankOps.
type msgOps struct{ *msgreplay.Rank }

func (o msgOps) Isend(dst int, bytes float64) Request { return o.Rank.Isend(dst, bytes) }
func (o msgOps) Irecv(src int) Request                { return o.Rank.Irecv(src) }

func (o msgOps) Wait(q Request) { o.Rank.Wait(q.(*sim.Comm)) }

// WaitAll waits on the comms one by one: the MSG prototype had no grouped
// wait, which is part of the modelling gap the paper discusses.
func (o msgOps) WaitAll(qs []Request) {
	for _, q := range qs {
		o.Wait(q)
	}
}

func (o msgOps) WaitAny(qs []Request) int {
	cs := make([]*sim.Comm, len(qs))
	for i, q := range qs {
		cs[i] = q.(*sim.Comm)
	}
	return o.Rank.WaitAny(cs)
}
