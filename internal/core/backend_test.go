package core

import (
	"errors"
	"testing"

	"tireplay/internal/msgreplay"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

func backendConfig(backend string) Config {
	cfg := Config{Backend: backend}
	if backend == MSG {
		cfg.MSG = msgreplay.Config{RefLatency: 1e-5, RefBandwidth: 1e9}
	}
	return cfg
}

// TestMalformedTraceWaitNoRequest covers the wait-with-no-outstanding-request
// path for each backend: it must surface a *TraceError wrapping
// ErrNoOutstandingRequest, not panic.
func TestMalformedTraceWaitNoRequest(t *testing.T) {
	for _, backend := range []string{SMPI, MSG} {
		prov := provFromText(t, "p0 compute 1000\np0 wait\n")
		_, err := Replay(prov, testPlatform(t, 1), backendConfig(backend))
		if err == nil {
			t.Fatalf("%s: expected error for orphan wait", backend)
		}
		var te *TraceError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v is not a *TraceError", backend, err)
		}
		if !errors.Is(err, ErrNoOutstandingRequest) {
			t.Fatalf("%s: error %v does not wrap ErrNoOutstandingRequest", backend, err)
		}
		if te.Backend != backend || te.Rank != 0 || te.Kind != trace.Wait {
			t.Fatalf("%s: wrong TraceError fields: %+v", backend, te)
		}
	}
}

// TestMalformedTraceUnsupportedAction covers the unsupported-action-kind path
// for each backend.
func TestMalformedTraceUnsupportedAction(t *testing.T) {
	for _, backend := range []string{SMPI, MSG} {
		prov := trace.NewMemProvider([][]trace.Action{
			{{Rank: 0, Kind: trace.Kind(99)}},
		})
		_, err := Replay(prov, testPlatform(t, 1), backendConfig(backend))
		if err == nil {
			t.Fatalf("%s: expected error for unsupported action", backend)
		}
		var te *TraceError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v is not a *TraceError", backend, err)
		}
		if !errors.Is(err, ErrUnsupportedAction) {
			t.Fatalf("%s: error %v does not wrap ErrUnsupportedAction", backend, err)
		}
		if te.Backend != backend || te.Kind != trace.Kind(99) {
			t.Fatalf("%s: wrong TraceError fields: %+v", backend, te)
		}
	}
}

// errStream fails on the first Next call.
type errStream struct{}

func (errStream) Next() (trace.Action, bool, error) {
	return trace.Action{}, false, errors.New("boom")
}

type errProvider struct{}

func (errProvider) NumRanks() int                  { return 1 }
func (errProvider) Rank(int) (trace.Stream, error) { return errStream{}, nil }

// TestStreamErrorSurfaces checks that a failing trace stream aborts the
// replay with a wrapped error rather than a panic.
func TestStreamErrorSurfaces(t *testing.T) {
	_, err := Replay(errProvider{}, testPlatform(t, 1), Config{})
	if err == nil {
		t.Fatal("expected error from failing stream")
	}
	var te *TraceError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a *TraceError", err)
	}
}

func TestRegistryListsBuiltins(t *testing.T) {
	names := Backends()
	want := map[string]bool{SMPI: false, MSG: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("builtin backend %q not registered (got %v)", n, names)
		}
	}
}

func TestLookupDefaultsToSMPI(t *testing.T) {
	b, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != SMPI {
		t.Fatalf("default backend = %q, want smpi", b.Name())
	}
	if _, err := Lookup("no-such-backend"); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}

// fixedBackend is a trivial custom backend: every operation costs a fixed
// simulated delay. It exercises the registry extension point end to end.
type fixedBackend struct{ delay float64 }

func (fixedBackend) Name() string { return "fixed" }

func (b fixedBackend) NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg Config) (World, error) {
	return &fixedWorld{engine: engine, hosts: hosts, delay: b.delay}, nil
}

type fixedWorld struct {
	engine *sim.Engine
	hosts  []*sim.Host
	delay  float64
}

func (w *fixedWorld) TaskOps(int) TaskOps { return fixedOps{delay: w.delay} }

func (w *fixedWorld) SpawnProg(rank int, feed sim.Feed) {
	w.engine.SpawnProg("fixed", w.hosts[rank], feed)
}

// fixedOps charges the fixed delay for every operation; the nonblocking ones
// push an already-completed entry so trace waits stay FIFO-aligned.
type fixedOps struct{ delay float64 }

func (o fixedOps) Compute(p *sim.Prog, _ float64)       { p.Sleep(o.delay) }
func (o fixedOps) Send(p *sim.Prog, _ int, _ float64)   { p.Sleep(o.delay) }
func (o fixedOps) Isend(p *sim.Prog, _ int, _ float64)  { p.Sleep(o.delay); p.PushPendingDone() }
func (o fixedOps) Recv(p *sim.Prog, _ int)              { p.Sleep(o.delay) }
func (o fixedOps) Irecv(p *sim.Prog, _ int)             { p.Sleep(o.delay); p.PushPendingDone() }
func (o fixedOps) Barrier(p *sim.Prog)                  { p.Sleep(o.delay) }
func (o fixedOps) Bcast(p *sim.Prog, _ float64, _ int)  { p.Sleep(o.delay) }
func (o fixedOps) Reduce(p *sim.Prog, _ float64, _ int) { p.Sleep(o.delay) }
func (o fixedOps) AllReduce(p *sim.Prog, _ float64)     { p.Sleep(o.delay) }
func (o fixedOps) AllToAll(p *sim.Prog, _ float64)      { p.Sleep(o.delay) }
func (o fixedOps) Gather(p *sim.Prog, _ float64, _ int) { p.Sleep(o.delay) }
func (o fixedOps) AllGather(p *sim.Prog, _ float64)     { p.Sleep(o.delay) }
func (o fixedOps) AllToAllV(p *sim.Prog, _ []float64)   { p.Sleep(o.delay) }
func (o fixedOps) AllGatherV(p *sim.Prog, _ []float64)  { p.Sleep(o.delay) }

func TestRegisterCustomBackend(t *testing.T) {
	Register("fixed", fixedBackend{delay: 0.5})
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, "fixed")
		registryMu.Unlock()
	})

	prov := provFromText(t, "p0 compute 1000\np0 compute 1000\n")
	res, err := Replay(prov, testPlatform(t, 1), Config{Backend: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime != 1.0 {
		t.Fatalf("simulated time = %v, want 1.0 (2 ops x 0.5s)", res.SimulatedTime)
	}
	if res.Actions != 2 {
		t.Fatalf("actions = %d, want 2", res.Actions)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	Register(SMPI, smpiBackend{})
}
