package scenario

import (
	"context"
	"strings"
	"testing"

	"tireplay/internal/platform"
)

// TestTopologyRoutingModesDiverge pins that the dragonfly routing knob
// reaches the simulation: valiant detours cross more cable than minimal
// routes, so the predicted time must differ.
func TestTopologyRoutingModesDiverge(t *testing.T) {
	run := func(routing string) float64 {
		spec := &platform.Spec{
			Name: "df", Topology: "dragonfly",
			Groups: 4, RoutersPerGroup: 2, HostsPerRouter: 2,
			Routing: routing, Speed: 1e9,
			LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
			LocalBandwidth: 1.25e9, LocalLatency: 1e-6,
			GlobalBandwidth: 2.5e9, GlobalLatency: 1e-5,
		}
		s := &Scenario{
			Name:     "df-" + routing,
			Platform: spec,
			Workload: &WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 16, Iterations: 2},
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.SimulatedTime
	}
	min, val := run("minimal"), run("valiant")
	if min == val {
		t.Fatalf("minimal and valiant routing predicted identical times (%v); routing knob ignored?", min)
	}
}

// TestTopologyRankCountMismatch: replaying more ranks than the derived
// shape provides fails at build time with the structured platform error.
func TestTopologyRankCountMismatch(t *testing.T) {
	spec := &platform.Spec{
		Name: "ft", Topology: "fattree", Radix: 2, Levels: 2, Hosts: 16,
		Speed: 1e9, LinkBandwidth: 1.25e8, BackboneBandwidth: 1.25e9,
	}
	s := &Scenario{
		Name:     "mismatch",
		Platform: spec,
		Workload: &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 16},
	}
	_, err := s.Run(context.Background())
	if err == nil {
		t.Fatal("expected rank-count mismatch error")
	}
	if !strings.Contains(err.Error(), `"hosts"`) {
		t.Fatalf("error %q does not name the hosts field", err)
	}
}
