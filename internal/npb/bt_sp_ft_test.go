package npb

import (
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/platform"
)

func smokePlatform(t *testing.T, n int) *platform.Platform {
	t.Helper()
	p, err := platform.NewFlatCluster(platform.FlatConfig{
		Name: "smoke", Hosts: n, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewWorkloadConstructorsValidate(t *testing.T) {
	if _, err := NewBT(ClassS, 3, 1); err == nil {
		t.Fatal("BT accepted non-square process count")
	}
	if _, err := NewSP(ClassS, 5, 1); err == nil {
		t.Fatal("SP accepted non-square process count")
	}
	if _, err := NewFT(ClassS, 65, 1); err == nil {
		t.Fatal("FT accepted more processes than planes")
	}
	if _, err := NewFT(Class('X'), 4, 1); err == nil {
		t.Fatal("FT accepted unknown class")
	}
}

// BT/SP/FT must satisfy the cross-rank consistency the replay requires:
// matched sends/recvs and identical collective sequences. Replaying on the
// MSG backend (monolithic collectives with strict barrier synchronization)
// would hang on any mismatch; completing is the property.
func TestNewWorkloadsReplayOnMSG(t *testing.T) {
	plat := smokePlatform(t, 4)
	for _, mk := range []func() (Workload, error){
		func() (Workload, error) { return NewBT(ClassS, 4, 1) },
		func() (Workload, error) { return NewSP(ClassS, 4, 1) },
		func() (Workload, error) { return NewFT(ClassS, 3, 1) },
	} {
		w, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Backend: core.MSG}
		cfg.MSG.RefLatency = 1e-5
		cfg.MSG.RefBandwidth = 1e9
		if _, err := core.Replay(AsProvider(w), plat, cfg); err != nil {
			t.Fatalf("%s on msg: %v", w.Name(), err)
		}
	}
}
