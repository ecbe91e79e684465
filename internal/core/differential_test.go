package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/trace"
)

// Differential property: the continuation programs Replay runs and the
// goroutine reference driver (reference_test.go) must produce bit-identical
// results —
// the same simulated time, action count, and every engine counter — on
// random traces exercising every replayable action kind, for both backends
// and across model configurations. This is the test that licenses compiling
// ranks to state machines at all.

// randomTrace builds a balanced random trace over n ranks: matched
// eager and rendezvous point-to-point traffic, isend/irecv with FIFO
// wait/waitall, nonblocking bursts drained by waitany/waitsome, compute,
// the full collective set, and uneven vector collectives.
func randomTrace(rng *rand.Rand, n int) [][]trace.Action {
	perRank := make([][]trace.Action, n)
	addAll := func(kind trace.Kind, bytes float64, root int) {
		for r := 0; r < n; r++ {
			perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: kind, Bytes: bytes, Root: root, Peer: -1})
		}
	}
	for round := 0; round < 15; round++ {
		switch rng.Intn(8) {
		case 0: // blocking exchange, size straddling the eager threshold
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(150000))
			perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.Send, Peer: dst, Bytes: size})
			perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.Recv, Peer: src, Bytes: size})
		case 1: // nonblocking pair drained by wait or waitall
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(150000))
			perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.ISend, Peer: dst, Bytes: size})
			perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.IRecv, Peer: src, Bytes: size})
			if rng.Intn(2) == 0 {
				perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.Wait, Peer: -1})
				perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.Wait, Peer: -1})
			} else {
				perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.WaitAll, Peer: -1})
				perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.WaitAll, Peer: -1})
			}
		case 2:
			for r := 0; r < n; r++ {
				perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.Compute, Instructions: float64(rng.Intn(1e6)), Peer: -1})
			}
		case 3:
			addAll(trace.Barrier, 0, 0)
		case 4:
			root := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				addAll(trace.Bcast, float64(1+rng.Intn(100000)), root)
			case 1:
				addAll(trace.Reduce, float64(1+rng.Intn(4096)), root)
			default:
				addAll(trace.Gather, float64(1+rng.Intn(4096)), root)
			}
		case 5:
			switch rng.Intn(3) {
			case 0:
				addAll(trace.AllReduce, float64(1+rng.Intn(100000)), 0)
			case 1:
				addAll(trace.AllToAll, float64(1+rng.Intn(8192)), 0)
			default:
				addAll(trace.AllGather, float64(1+rng.Intn(8192)), 0)
			}
		case 6: // vector collectives with uneven, cross-rank-consistent volumes
			if rng.Intn(2) == 0 {
				// Per-pair volumes: rank r's entry for peer k derives from
				// (r, k) only, so every rank compiles the same exchange.
				base := float64(1 + rng.Intn(8192))
				for r := 0; r < n; r++ {
					vols := make([]float64, n)
					for k := 0; k < n; k++ {
						if k != r {
							vols[k] = base * float64(1+(r*13+k*7)%5)
						}
					}
					perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.AllToAllV, Peer: -1, Volumes: vols})
				}
			} else {
				// Contribution sizes depend on the contributing rank only, so
				// all ranks record one identical vector.
				vols := make([]float64, n)
				for k := 0; k < n; k++ {
					vols[k] = float64(1 + rng.Intn(8192))
				}
				for r := 0; r < n; r++ {
					perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.AllGatherV, Peer: -1,
						Volumes: append([]float64(nil), vols...)})
				}
			}
		default: // nonblocking burst to both neighbors drained out of order
			for r := 0; r < n; r++ {
				next, prev := (r+1)%n, (r-1+n)%n
				size := float64(1 + rng.Intn(150000))
				perRank[r] = append(perRank[r],
					trace.Action{Rank: r, Kind: trace.ISend, Peer: next, Bytes: size},
					trace.Action{Rank: r, Kind: trace.ISend, Peer: prev, Bytes: size},
					trace.Action{Rank: r, Kind: trace.IRecv, Peer: prev, Bytes: size},
					trace.Action{Rank: r, Kind: trace.IRecv, Peer: next, Bytes: size})
				switch rng.Intn(3) {
				case 0: // four waitanys
					for i := 0; i < 4; i++ {
						perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.WaitAny, Peer: -1})
					}
				case 1: // waitsome of 3 plus a waitall for the rest
					perRank[r] = append(perRank[r],
						trace.Action{Rank: r, Kind: trace.WaitSome, Peer: -1, Count: 3},
						trace.Action{Rank: r, Kind: trace.WaitAll, Peer: -1})
				default: // waitany, then drain with a waitall
					perRank[r] = append(perRank[r],
						trace.Action{Rank: r, Kind: trace.WaitAny, Peer: -1},
						trace.Action{Rank: r, Kind: trace.WaitAll, Peer: -1})
				}
			}
		}
	}
	// Every rank finishes with a waitall so no pending request leaks.
	addAll(trace.WaitAll, 0, 0)
	return perRank
}

func TestContinuationGoroutineBitIdentical(t *testing.T) {
	configs := []Config{
		{Backend: SMPI},
		{Backend: SMPI, MPI: mpi.ModelConfig{
			SendOverhead: 1e-7, RecvOverhead: 2e-7,
			MemcpyBandwidth: 5e9, MemcpyLatency: 1e-8,
			Bcast: mpi.BcastChain, AllReduce: mpi.AllReduceRing,
		}},
		{Backend: MSG, MSG: msgreplay.Config{RefLatency: 1e-5, RefBandwidth: 1e9}},
	}
	f := func(seed int64) bool {
		// 5 ranks: odd size exercises the non-power-of-two collective paths.
		const n = 5
		rng := rand.New(rand.NewSource(seed))
		perRank := randomTrace(rng, n)
		for _, cfg := range configs {
			resTask, errTask := Replay(trace.NewMemProvider(perRank), testPlatform(t, n), cfg)
			resGoro, errGoro := ReplayReference(trace.NewMemProvider(perRank), testPlatform(t, n), cfg)
			if (errTask == nil) != (errGoro == nil) {
				t.Logf("error mismatch (backend %s): task=%v goroutine=%v", cfg.Backend, errTask, errGoro)
				return false
			}
			if errTask != nil {
				continue
			}
			if resTask.SimulatedTime != resGoro.SimulatedTime {
				t.Logf("backend %s: simulated time %v (continuation) != %v (goroutine)",
					cfg.Backend, resTask.SimulatedTime, resGoro.SimulatedTime)
				return false
			}
			if resTask.Actions != resGoro.Actions {
				t.Logf("backend %s: actions %d != %d", cfg.Backend, resTask.Actions, resGoro.Actions)
				return false
			}
			if resTask.Engine != resGoro.Engine {
				t.Logf("backend %s: stats diverge\n continuation: %+v\n goroutine:    %+v",
					cfg.Backend, resTask.Engine, resGoro.Engine)
				return false
			}
		}
		return true
	}
	max := 25
	if testing.Short() {
		max = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// A DUMPI-imported trace must replay end to end — importer registry in,
// vector collectives and wait sets through the drivers, out the other side
// bit-identical across both schedulers and both backends.
func TestDUMPIImportReplaysBitIdentical(t *testing.T) {
	dir := t.TempDir()
	dumps := []string{`
MPI_Init entering at walltime 10.0, cputime 0 seconds in thread 0.
MPI_Init returning at walltime 10.5, cputime 1 seconds in thread 0.
MPI_Send entering at walltime 11.0, cputime 3 seconds in thread 0.
int count=256
datatype=11 (MPI_DOUBLE)
int dest=1
MPI_Send returning at walltime 11.1, cputime 3 seconds in thread 0.
MPI_Alltoallv entering at walltime 12.0, cputime 4 seconds in thread 0.
int sendcounts[2]={16, 32}
sendtype=11 (MPI_DOUBLE)
MPI_Alltoallv returning at walltime 12.5, cputime 4 seconds in thread 0.
MPI_Isend entering at walltime 13.0, cputime 4 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int dest=1
MPI_Isend returning at walltime 13.0, cputime 4 seconds in thread 0.
MPI_Irecv entering at walltime 13.1, cputime 4 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int source=1
MPI_Irecv returning at walltime 13.1, cputime 4 seconds in thread 0.
MPI_Waitany entering at walltime 13.2, cputime 4 seconds in thread 0.
MPI_Waitany returning at walltime 13.3, cputime 4 seconds in thread 0.
MPI_Wait entering at walltime 13.4, cputime 4 seconds in thread 0.
MPI_Wait returning at walltime 13.5, cputime 4 seconds in thread 0.
MPI_Allgatherv entering at walltime 14.0, cputime 5 seconds in thread 0.
int recvcounts[2]={8, 24}
recvtype=11 (MPI_DOUBLE)
MPI_Allgatherv returning at walltime 14.2, cputime 5 seconds in thread 0.
MPI_Finalize entering at walltime 15.0, cputime 6 seconds in thread 0.
MPI_Finalize returning at walltime 15.1, cputime 6 seconds in thread 0.
`, `
MPI_Init entering at walltime 10.0, cputime 0 seconds in thread 0.
MPI_Init returning at walltime 10.5, cputime 1 seconds in thread 0.
MPI_Recv entering at walltime 11.0, cputime 2 seconds in thread 0.
int count=256
datatype=11 (MPI_DOUBLE)
int source=0
MPI_Recv returning at walltime 11.2, cputime 2 seconds in thread 0.
MPI_Alltoallv entering at walltime 12.0, cputime 3 seconds in thread 0.
int sendcounts[2]={16, 32}
sendtype=11 (MPI_DOUBLE)
MPI_Alltoallv returning at walltime 12.5, cputime 3 seconds in thread 0.
MPI_Isend entering at walltime 13.0, cputime 3 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int dest=0
MPI_Isend returning at walltime 13.0, cputime 3 seconds in thread 0.
MPI_Irecv entering at walltime 13.1, cputime 3 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int source=0
MPI_Irecv returning at walltime 13.1, cputime 3 seconds in thread 0.
MPI_Waitsome entering at walltime 13.2, cputime 3 seconds in thread 0.
int outcount=2
MPI_Waitsome returning at walltime 13.3, cputime 3 seconds in thread 0.
MPI_Allgatherv entering at walltime 14.0, cputime 4 seconds in thread 0.
int recvcounts[2]={8, 24}
recvtype=11 (MPI_DOUBLE)
MPI_Allgatherv returning at walltime 14.2, cputime 4 seconds in thread 0.
MPI_Finalize entering at walltime 15.0, cputime 5 seconds in thread 0.
MPI_Finalize returning at walltime 15.1, cputime 5 seconds in thread 0.
`}
	for i, body := range dumps {
		name := filepath.Join(dir, fmt.Sprintf("dump-%d.txt", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	configs := []Config{
		{Backend: SMPI},
		{Backend: MSG, MSG: msgreplay.Config{RefLatency: 1e-5, RefBandwidth: 1e9}},
	}
	for _, cfg := range configs {
		var results []*Result
		for _, goroutines := range []bool{false, true} {
			// Re-import per replay: the provider streams from the files.
			p, err := trace.Import("auto", dir, trace.ImportOptions{InstructionRate: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			run := Replay
			if goroutines {
				run = ReplayReference
			}
			res, err := run(p, testPlatform(t, 2), cfg)
			if err != nil {
				t.Fatalf("backend %s goroutines=%v: %v", cfg.Backend, goroutines, err)
			}
			if res.SimulatedTime <= 0 {
				t.Fatalf("backend %s: non-positive simulated time %v", cfg.Backend, res.SimulatedTime)
			}
			results = append(results, res)
		}
		if results[0].SimulatedTime != results[1].SimulatedTime ||
			results[0].Actions != results[1].Actions ||
			results[0].Engine != results[1].Engine {
			t.Fatalf("backend %s: schedulers disagree on the imported trace:\n continuation: %+v\n goroutine:    %+v",
				cfg.Backend, results[0], results[1])
		}
	}
}

// The trace-level failure modes must also be scheduler-independent: the
// structured TraceError for an orphan wait, and the deadlock report for
// crossed blocking receives, have to read identically in both modes.
func TestTraceFailuresIdenticalAcrossSchedulers(t *testing.T) {
	cases := []struct {
		name    string
		perRank [][]trace.Action
	}{
		{"orphan-wait", [][]trace.Action{
			{{Rank: 0, Kind: trace.Compute, Instructions: 10, Peer: -1}, {Rank: 0, Kind: trace.Wait, Peer: -1}},
		}},
		{"crossed-recv-deadlock", [][]trace.Action{
			{{Rank: 0, Kind: trace.Recv, Peer: 1, Bytes: 8}, {Rank: 0, Kind: trace.Send, Peer: 1, Bytes: 8}},
			{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 8}, {Rank: 1, Kind: trace.Send, Peer: 0, Bytes: 8}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.perRank)
			_, errTask := Replay(trace.NewMemProvider(tc.perRank), testPlatform(t, n), Config{})
			_, errGoro := ReplayReference(trace.NewMemProvider(tc.perRank), testPlatform(t, n), Config{})
			if errTask == nil || errGoro == nil {
				t.Fatalf("want errors, got task=%v goroutine=%v", errTask, errGoro)
			}
			if errTask.Error() != errGoro.Error() {
				t.Fatalf("failure reports diverge:\n continuation: %v\n goroutine:    %v", errTask, errGoro)
			}
		})
	}
}

// The continuation deadlock report is also pinned to a golden string so the
// lazy mailbox-name rendering can never drift from the historical format.
func TestCrossedRecvDeadlockGolden(t *testing.T) {
	perRank := [][]trace.Action{
		{{Rank: 0, Kind: trace.Recv, Peer: 1, Bytes: 8}},
		{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 8}},
	}
	_, err := Replay(trace.NewMemProvider(perRank), testPlatform(t, 2), Config{})
	if err == nil {
		t.Fatal("crossed receives must deadlock")
	}
	const golden = `core: replay failed: sim: deadlock at t=0 with 2 blocked process(es): ` +
		`rank0: wait(comm 1 on "p:1>0"); rank1: wait(comm 2 on "p:0>1")`
	if err.Error() != golden {
		t.Fatalf("deadlock report = %q, want %q", err.Error(), golden)
	}
}
