package ground

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/instrument"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

func TestClusterDefinitions(t *testing.T) {
	b := Bordereau()
	if b.Hosts != 93 || b.L2Bytes != 1<<20 {
		t.Fatalf("bordereau = %+v", b)
	}
	g := Graphene()
	if g.Hosts != 144 || g.L2Bytes != 2<<20 {
		t.Fatalf("graphene = %+v", g)
	}
	if g.BaseRate <= b.BaseRate {
		t.Fatal("graphene should be faster than bordereau")
	}
	// Ground truth must model the eager memcpy (the feature SMPI lacks).
	if b.MPI.MemcpyBandwidth <= 0 || g.MPI.MemcpyBandwidth <= 0 {
		t.Fatal("ground truth must model the eager memcpy")
	}
}

func TestCacheResidency(t *testing.T) {
	b, g := Bordereau(), Graphene()
	luA4, _ := npb.NewLU(npb.ClassA, 4, 1)
	luB4, _ := npb.NewLU(npb.ClassB, 4, 1)
	luC8, _ := npb.NewLU(npb.ClassC, 8, 1)
	if !b.CacheResident(luA4) {
		t.Error("A-4 must be cache-resident on bordereau (Section 2.3)")
	}
	if b.CacheResident(luB4) {
		t.Error("B-4 must spill on bordereau (Section 3.4)")
	}
	if b.CacheResident(luC8) {
		t.Error("C-8 must spill on bordereau")
	}
	for _, procs := range []int{8, 16, 32, 64, 128} {
		for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
			lu, err := npb.NewLU(class, procs, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !g.CacheResident(lu) {
				t.Errorf("%s must be cache-resident on graphene (Section 3.4)", lu.Name())
			}
		}
	}
}

func TestRateForAppliesCacheAndJitter(t *testing.T) {
	b := Bordereau()
	luA4, _ := npb.NewLU(npb.ClassA, 4, 1)
	luC4, _ := npb.NewLU(npb.ClassC, 4, 1)
	rA := b.rateFor(luA4, 0)
	rC := b.rateFor(luC4, 0)
	if rA > b.BaseRate {
		t.Fatalf("jittered rate %v exceeds base %v", rA, b.BaseRate)
	}
	if rA < b.BaseRate*(1-b.JitterAmp) {
		t.Fatalf("jittered rate %v below floor", rA)
	}
	if rC >= rA*b.OutOfCacheFactor*1.05 {
		t.Fatalf("out-of-cache rate %v not reduced vs %v", rC, rA)
	}
}

func TestRunSmallInstance(t *testing.T) {
	b := Bordereau()
	lu, err := npb.NewLU(npb.ClassS, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(lu, instrument.Config{Mode: instrument.None})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("run time = %v", res.Time)
	}
	// Lower bound: pure compute of the slowest rank at full speed.
	minCompute := lu.BaseInstructions(0) / b.BaseRate
	if res.Time < minCompute {
		t.Fatalf("run time %v below compute lower bound %v", res.Time, minCompute)
	}
}

func TestRunDeterministic(t *testing.T) {
	g := Graphene()
	run := func() float64 {
		lu, err := npb.NewLU(npb.ClassS, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(lu, instrument.Config{Mode: instrument.None})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("ground truth not deterministic: %v vs %v", a, b)
	}
}

func TestInstrumentedRunSlower(t *testing.T) {
	b := Bordereau()
	mk := func() npb.Workload {
		lu, err := npb.NewLU(npb.ClassS, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return lu
	}
	orig, err := b.Run(mk(), instrument.Config{Mode: instrument.None})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := b.Run(mk(), instrument.Config{Mode: instrument.Fine})
	if err != nil {
		t.Fatal(err)
	}
	if instr.Time <= orig.Time {
		t.Fatalf("instrumented run %v not slower than original %v", instr.Time, orig.Time)
	}
	minimal, err := b.Run(mk(), instrument.Config{Mode: instrument.Minimal})
	if err != nil {
		t.Fatal(err)
	}
	if minimal.Time >= instr.Time {
		t.Fatalf("minimal instrumentation %v not cheaper than fine %v", minimal.Time, instr.Time)
	}
}

func TestO3RunFaster(t *testing.T) {
	b := Bordereau()
	lu := func() npb.Workload {
		l, err := npb.NewLU(npb.ClassS, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	o0, err := b.Run(lu(), instrument.Config{Mode: instrument.None, Compile: instrument.O0, Class: npb.ClassS})
	if err != nil {
		t.Fatal(err)
	}
	o3, err := b.Run(lu(), instrument.Config{Mode: instrument.None, Compile: instrument.O3, Class: npb.ClassS})
	if err != nil {
		t.Fatal(err)
	}
	if o3.Time >= o0.Time {
		t.Fatalf("-O3 run %v not faster than -O0 %v", o3.Time, o0.Time)
	}
}

func TestRunRejectsOversizedWorkload(t *testing.T) {
	b := Bordereau()
	lu, err := npb.NewLU(npb.ClassB, 128, 1) // bordereau has 93 nodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(lu, instrument.Config{Mode: instrument.None}); err == nil {
		t.Fatal("expected error for 128 ranks on 93 nodes")
	}
}

// TestGroundTruthMagnitudes sanity-checks the tuned constants against the
// paper's Table 1/2 originals, scaled to the reduced iteration count:
// B-8 on bordereau took ~93 s at -O0 over 250 iterations (~0.37 s/iter).
func TestGroundTruthMagnitudes(t *testing.T) {
	if testing.Short() {
		t.Skip("magnitude check needs a multi-iteration run")
	}
	const iters = 10
	b := Bordereau()
	lu, err := npb.NewLU(npb.ClassB, 8, iters)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(lu, instrument.Config{Mode: instrument.None, Compile: instrument.O0, Class: npb.ClassB})
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Time / iters
	if perIter < 0.25 || perIter > 0.55 {
		t.Fatalf("B-8 bordereau = %.3f s/iteration, want ~0.37 (93 s / 250)", perIter)
	}
}

// runReference is Run on the goroutine reference: the emulator as it was
// before it compiled ranks to continuation programs, executing each
// operation on a goroutine-backed mpi.Rank with its own action switch.
func (c *Cluster) runReference(w npb.Workload, icfg instrument.Config) (*RunResult, error) {
	return c.run(w, icfg, spawnRankReference)
}

func spawnRankReference(world *mpi.World, rank int, rate float64, stream npb.OpStream, icfg instrument.Config, busy *float64) {
	world.Spawn(rank, func(r *mpi.Rank) {
		var pending []*mpi.Request
		for {
			op, ok, err := stream.Next()
			if err != nil {
				panic(fmt.Errorf("rank %d: %w", rank, err))
			}
			if !ok {
				return
			}
			a := op.Action
			if a.Kind == trace.Compute {
				base, _, probeTime := icfg.ComputeCost(op)
				r.Proc().ExecuteAtRate(base, rate)
				if probeTime > 0 {
					r.Proc().Sleep(probeTime)
				}
				*busy += base/rate + probeTime
				continue
			}
			if a.Kind != trace.Init && a.Kind != trace.Finalize {
				if _, probeTime := icfg.MPICost(op); probeTime > 0 {
					r.Proc().Sleep(probeTime)
				}
			}
			switch a.Kind {
			case trace.Init, trace.Finalize:
			case trace.Send:
				r.Send(a.Peer, a.Bytes)
			case trace.ISend:
				pending = append(pending, r.Isend(a.Peer, a.Bytes))
			case trace.Recv:
				r.Recv(a.Peer)
			case trace.IRecv:
				pending = append(pending, r.Irecv(a.Peer))
			case trace.Wait:
				if len(pending) == 0 {
					panic(fmt.Errorf("rank %d: wait with no outstanding request", rank))
				}
				r.Wait(pending[0])
				pending = pending[1:]
			case trace.WaitAll:
				r.WaitAll(pending)
				pending = pending[:0]
			case trace.Barrier:
				r.Barrier()
			case trace.Bcast:
				r.Bcast(a.Bytes, a.Root)
			case trace.Reduce:
				r.Reduce(a.Bytes, a.Root)
			case trace.AllReduce:
				r.AllReduce(a.Bytes)
			case trace.AllToAll:
				r.AllToAll(a.Bytes)
			case trace.Gather:
				r.Gather(a.Bytes, a.Root)
			case trace.AllGather:
				r.AllGather(a.Bytes)
			default:
				panic(fmt.Errorf("rank %d: unsupported op %v", rank, a.Kind))
			}
		}
	})
}

// TestRunMatchesGoroutineReference pins the continuation emulator to the
// goroutine reference across both clusters, the four workloads the
// reference supports, every instrumentation mode and both compile levels:
// the run time, every rank's compute seconds and every engine counter must
// be bit-identical.
func TestRunMatchesGoroutineReference(t *testing.T) {
	workloads := []func() (npb.Workload, error){
		func() (npb.Workload, error) { return npb.NewLU(npb.ClassS, 4, 2) },
		func() (npb.Workload, error) { return npb.NewCG(npb.ClassS, 4, 2) },
		func() (npb.Workload, error) { return npb.NewMG(npb.ClassS, 4, 2) },
		func() (npb.Workload, error) { return npb.NewEP(npb.ClassS, 4) },
	}
	for _, c := range []*Cluster{Bordereau(), Graphene()} {
		for _, mk := range workloads {
			for _, mode := range []instrument.Mode{instrument.None, instrument.Coarse, instrument.Minimal, instrument.Fine} {
				for _, compile := range []instrument.Compile{instrument.O0, instrument.O3} {
					w, err := mk()
					if err != nil {
						t.Fatal(err)
					}
					icfg := c.InstrConfig(mode, compile, npb.ClassS)
					got, err := c.Run(w, icfg)
					if err != nil {
						t.Fatalf("%s %s %v: %v", c.Name, w.Name(), icfg, err)
					}
					want, err := c.runReference(w, icfg)
					if err != nil {
						t.Fatalf("%s %s %v reference: %v", c.Name, w.Name(), icfg, err)
					}
					if math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.Engine != want.Engine {
						t.Fatalf("%s %s %v diverges from the reference:\n got  %v %+v\n want %v %+v",
							c.Name, w.Name(), icfg, got.Time, got.Engine, want.Time, want.Engine)
					}
					for r := range want.ComputeSeconds {
						if math.Float64bits(got.ComputeSeconds[r]) != math.Float64bits(want.ComputeSeconds[r]) {
							t.Fatalf("%s %s %v: rank %d compute seconds %v, reference %v",
								c.Name, w.Name(), icfg, r, got.ComputeSeconds[r], want.ComputeSeconds[r])
						}
					}
				}
			}
		}
	}
}

// BT, SP and FT drain nonblocking requests with waitany/waitsome and FT
// transposes with alltoallv; the emulator must run them like replay does,
// deterministically.
func TestRunBTSPFT(t *testing.T) {
	workloads := []func() (npb.Workload, error){
		func() (npb.Workload, error) { return npb.NewBT(npb.ClassS, 4, 2) },
		func() (npb.Workload, error) { return npb.NewSP(npb.ClassS, 4, 2) },
		func() (npb.Workload, error) { return npb.NewFT(npb.ClassS, 4, 2) },
	}
	for _, c := range []*Cluster{Bordereau(), Graphene()} {
		for _, mk := range workloads {
			var times []float64
			for i := 0; i < 2; i++ {
				w, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(w, instrument.Config{Mode: instrument.None})
				if err != nil {
					t.Fatalf("%s %s: %v", c.Name, w.Name(), err)
				}
				if res.Time <= 0 {
					t.Fatalf("%s %s: run time %v", c.Name, w.Name(), res.Time)
				}
				times = append(times, res.Time)
			}
			if math.Float64bits(times[0]) != math.Float64bits(times[1]) {
				t.Fatalf("%s: runs disagree: %v", c.Name, times)
			}
		}
	}
}

// stubWorkload is a one-rank workload replaying a fixed op list, then
// failing with err (if set) instead of ending.
type stubWorkload struct {
	ops []npb.Op
	err error
}

func (w stubWorkload) Name() string                   { return "stub" }
func (w stubWorkload) Ranks() int                     { return 1 }
func (w stubWorkload) WorkingSet(int) float64         { return 0 }
func (w stubWorkload) BaseInstructions(int) float64   { return 0 }
func (w stubWorkload) Rank(int) (npb.OpStream, error) { return &stubStream{w: w}, nil }

type stubStream struct {
	w stubWorkload
	i int
}

func (s *stubStream) Next() (npb.Op, bool, error) {
	if s.i < len(s.w.ops) {
		s.i++
		return s.w.ops[s.i-1], true, nil
	}
	if s.w.err != nil {
		return npb.Op{}, false, s.w.err
	}
	return npb.Op{}, false, nil
}

// Run must hand back the cause of a failed emulation with its chain
// intact, not flattened into a process-panicked message.
func TestRunErrorsKeepChain(t *testing.T) {
	compute := npb.Op{Action: trace.Action{Kind: trace.Compute, Instructions: 1e6, Peer: -1}}
	boom := errors.New("disk gone")
	for _, tc := range []struct {
		name string
		w    stubWorkload
		want error
	}{
		{"stream-error", stubWorkload{ops: []npb.Op{compute, compute}, err: boom}, boom},
		{"orphan-wait", stubWorkload{ops: []npb.Op{compute, {Action: trace.Action{Kind: trace.Wait, Peer: -1}}}},
			core.ErrNoOutstandingRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Bordereau().Run(tc.w, instrument.Config{Mode: instrument.None})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want one wrapping %v", err, tc.want)
			}
			var te *core.TraceError
			if !errors.As(err, &te) || te.Rank != 0 || te.Backend != "ground" {
				t.Fatalf("err = %v, want a ground *core.TraceError for rank 0", err)
			}
		})
	}
}
