package core_test

// Workload-level parity between the production continuation path and the
// goroutine reference driver (core.ReplayReference): zoo topologies through
// the scenario layer, and the NPB workloads whose drains and vector
// collectives the random property traces only approximate.

import (
	"context"
	"strings"
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/scenario"
	"tireplay/internal/sim"
)

// topoSpecs returns 16-host zoo platforms as Spec JSON — the scenario layer
// never names the topology constructors, proving topology selection is pure
// configuration.
func topoSpecs(t *testing.T) map[string]*platform.Spec {
	t.Helper()
	specs := map[string]string{
		"fattree": `{
			"name": "ft", "topology": "fattree", "radix": 4, "levels": 2,
			"speed": 1e9,
			"link_bandwidth": 1.25e8, "link_latency": 2e-5,
			"backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6
		}`,
		"dragonfly": `{
			"name": "df", "topology": "dragonfly",
			"groups": 2, "routers_per_group": 2, "hosts_per_router": 4,
			"routing": "adaptive", "speed": 1e9,
			"link_bandwidth": 1.25e8, "link_latency": 2e-5,
			"local_bandwidth": 1.25e9, "local_latency": 1e-6,
			"global_bandwidth": 2.5e9, "global_latency": 1e-5
		}`,
		"torus": `{
			"name": "tor", "topology": "torus", "torus_dims": [4, 4],
			"speed": 1e9,
			"link_bandwidth": 1.25e8, "link_latency": 2e-5,
			"backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6
		}`,
	}
	out := make(map[string]*platform.Spec, len(specs))
	for name, js := range specs {
		spec, err := platform.ReadSpec(strings.NewReader(js))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = spec
	}
	return out
}

// TestTopologySchedulerBackendParity replays the same workload on every zoo
// topology under both backends, through Scenario.Run and through the
// reference driver on the same platform, workload and model, and requires
// the two to be bit-identical — simulated time, action count, and every
// kernel counter.
func TestTopologySchedulerBackendParity(t *testing.T) {
	for name, spec := range topoSpecs(t) {
		for _, backend := range []string{"smpi", "msg"} {
			t.Run(name+"/"+backend, func(t *testing.T) {
				s := &scenario.Scenario{
					Name:     name,
					Platform: spec,
					Workload: &scenario.WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 16, Iterations: 2},
					Backend:  backend,
				}
				if backend == "msg" {
					s.MSG.RefLatency, s.MSG.RefBandwidth = 6.5e-5, 1.25e8
				}
				cont, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}

				plat, model, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				w, err := s.Workload.Build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{Backend: backend, MSG: s.MSG}
				if model != nil {
					cfg.Network = sim.NetworkModel(model)
				}
				goro, err := core.ReplayReference(npb.AsProvider(w), plat, cfg)
				if err != nil {
					t.Fatal(err)
				}

				if cont.SimulatedTime <= 0 || cont.Actions <= 0 {
					t.Fatalf("degenerate result: %+v", cont)
				}
				if cont.SimulatedTime != goro.SimulatedTime {
					t.Fatalf("schedulers disagree: continuation %v, goroutine %v",
						cont.SimulatedTime, goro.SimulatedTime)
				}
				if cont.Actions != goro.Actions {
					t.Fatalf("action counts disagree: %d vs %d", cont.Actions, goro.Actions)
				}
				if cont.Engine != goro.Engine {
					t.Fatalf("engine stats disagree:\ncontinuation %+v\ngoroutine    %+v",
						cont.Engine, goro.Engine)
				}
			})
		}
	}
}

// The BT, SP and FT workloads must replay to completion — the
// waitany/waitsome drains and vector collectives included — with
// bit-identical simulated times, action counts and engine stats on the
// continuation path and the reference driver.
func TestNewWorkloadsReplayBothModes(t *testing.T) {
	plat, err := platform.NewFlatCluster(platform.FlatConfig{
		Name: "smoke", Hosts: 9, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() (npb.Workload, error)
	}{
		{"bt-4", func() (npb.Workload, error) { return npb.NewBT(npb.ClassS, 4, 2) }},
		{"sp-9", func() (npb.Workload, error) { return npb.NewSP(npb.ClassS, 9, 2) }},
		{"ft-5", func() (npb.Workload, error) { return npb.NewFT(npb.ClassS, 5, 2) }}, // 64 % 5 != 0: uneven transpose
		{"bt-1", func() (npb.Workload, error) { return npb.NewBT(npb.ClassS, 1, 2) }},
		{"ft-1", func() (npb.Workload, error) { return npb.NewFT(npb.ClassS, 1, 2) }},
	} {
		w, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Replay(npb.AsProvider(w), plat, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g, err := core.ReplayReference(npb.AsProvider(w), plat, core.Config{})
		if err != nil {
			t.Fatalf("%s reference: %v", tc.name, err)
		}
		if c.SimulatedTime <= 0 {
			t.Fatalf("%s: non-positive simulated time %v", tc.name, c.SimulatedTime)
		}
		if c.SimulatedTime != g.SimulatedTime || c.Actions != g.Actions || c.Engine != g.Engine {
			t.Fatalf("%s: schedulers disagree:\n continuation: %+v\n goroutine:    %+v", tc.name, c, g)
		}
	}
}
