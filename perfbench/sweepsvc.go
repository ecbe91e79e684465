package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tireplay/internal/core"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/scenario"
	"tireplay/internal/serve"
	"tireplay/internal/sim"
	"tireplay/internal/sweep"
)

// The sweep_service workload: an in-process serve.Server (one embedded
// worker) over loopback HTTP, driven as a closed loop by svcClients
// clients. Each client submits a sweep of small NPB replays on a crossbar,
// waits for every record, and submits the next. Half of each sweep's points
// are already stored; the other half are fingerprints never seen before.
const (
	svcClients       = 2
	svcHits          = 4   // stored points per sweep
	svcFresh         = 4   // never-seen points per sweep
	svcPoolVariants  = 4   // stored points per shape
	svcHistorySweeps = 48  // journaled sweeps every restart recovers
	svcRestarts      = 41  // restarts timed for setup_s
	svcMinSweeps     = 110 // so that at least ten samples lie beyond p90
	svcDirectChecks  = 8   // delivered records re-run in process
	svcStoreGets     = 200
	svcSpeed         = 2e9
	svcIterations    = 10 // iterations of every NPB point
)

// svcShape is one NPB instance a sweep point replays.
type svcShape struct {
	bench, class string
	procs        int
}

// svcShapes are the instances points draw from. Each replay takes tens of
// milliseconds: with smaller ones the loop is a chain of short handoffs
// and fsyncs (about 17 per sweep, the journal's under the server's lock)
// whose latency on a shared host swung the sweep latency by 2x between
// runs of the same code.
var svcShapes = func() []svcShape {
	var out []svcShape
	for _, b := range []string{"lu", "cg", "mg"} {
		for _, c := range []string{"W", "A"} {
			for _, p := range []int{8, 16} {
				out = append(out, svcShape{b, c, p})
			}
		}
	}
	return out
}()

func crossbarSpec() *platform.Spec {
	return &platform.Spec{Name: "xbar16", Topology: "crossbar", Hosts: 16, Speed: svcSpeed,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-6}
}

// svcPoint is one grid point: a shape replayed at a host speed. Distinct
// speeds give distinct fingerprints.
type svcPoint struct {
	shape int
	speed float64
}

func (p svcPoint) axisValue() map[string]any {
	sh := svcShapes[p.shape]
	return map[string]any{
		"workload.benchmark": sh.bench,
		"workload.class":     sh.class,
		"workload.procs":     sh.procs,
		"host_speed":         p.speed,
	}
}

// poolPoint is stored point i: shape i mod len(svcShapes), at a speed
// that differs per variant by 2^-20 relative.
func poolPoint(i int) svcPoint {
	v := i / len(svcShapes)
	return svcPoint{shape: i % len(svcShapes), speed: svcSpeed * (1 + float64(v)*0x1p-20)}
}

// freshPoint is the k-th never-seen point (0 < k < 2^24): its speed
// differs from the base by k * 2^-44, which no stored variant's does.
func freshPoint(rng *rand.Rand, k int) svcPoint {
	return svcPoint{shape: rng.IntN(len(svcShapes)), speed: svcSpeed * (1 + float64(k)*0x1p-44)}
}

func svcSweep(name string, points []svcPoint) *sweep.Sweep {
	replay, _ := commModels()
	vals := make([]any, len(points))
	for i, p := range points {
		vals[i] = p.axisValue()
	}
	return &sweep.Sweep{
		Name: name,
		Base: scenario.Scenario{
			Platform: crossbarSpec(),
			Workload: &scenario.WorkloadSpec{Benchmark: "lu", Class: "W", Procs: 8, Iterations: svcIterations},
			MPI:      replay,
		},
		Axes: []sweep.Axis{{Name: "point", Values: vals}},
	}
}

// service is a running in-process sweep server behind a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	client *serve.Client
}

func startService(store string, r *run, tr string, parent int) (*service, error) {
	var srv *serve.Server
	err := r.spans.wrap(tr, "serve.New", parent, func(int) (err error) {
		srv, err = serve.New(serve.Config{Store: store, Workers: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		client: serve.NewClient("http://" + ln.Addr().String())}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	// Ready once the first request round-trips.
	err = r.spans.wrap(tr, "serve.Client.Stats", parent, func(int) error {
		_, err := s.client.Stats(context.Background())
		return err
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// collect submits a sweep and waits for every record.
func collect(c *serve.Client, sw *sweep.Sweep) ([]*sweep.Record, error) {
	resp, err := c.Submit(context.Background(), sw)
	if err != nil {
		return nil, err
	}
	return c.Collect(context.Background(), resp.ID)
}

// outcome is what a record predicted.
type outcome struct {
	simBits uint64
	actions int64
	engine  sim.Stats
}

func outcomeOf(res *core.Result) outcome {
	return outcome{math.Float64bits(res.SimulatedTime), res.Actions, res.Engine}
}

// delivered is one sweep of the closed loop.
type delivered struct {
	sw              *sweep.Sweep
	recs            []*sweep.Record
	latency, submit time.Duration
	stream          time.Duration
	traced          bool
}

func runSweepService(r *run) (map[string]metric, error) {
	store := filepath.Join(r.dir, "store")
	rng := r.rng(3)
	r.logf("sweep_service: %d clients, sweeps of %d stored + %d fresh points over %d NPB shapes on a crossbar",
		svcClients, svcHits, svcFresh, len(svcShapes))

	pool, stored, absErr, err := populate(r, store, rng)
	if err != nil {
		return nil, fmt.Errorf("populating the store: %w", err)
	}

	// Set-up: restart the server over the populated store and journal.
	// Stopping the previous instance is not part of the timing.
	var svc *service
	var stopErr error
	su := &setups{f: func(i int) error {
		tr := fmt.Sprintf("setup-%d", i)
		return r.spans.wrap(tr, "bench.restart", 0, func(root int) (err error) {
			svc, err = startService(store, r, tr, root)
			return err
		})
	}, undo: func() {
		stopErr = errors.Join(stopErr, svc.stop())
	}}
	if err := su.run(svcRestarts); err != nil || stopErr != nil {
		return nil, errors.Join(err, stopErr)
	}
	setupS := su.median(r)
	recovered := svc.srv.Stats()
	r.logf("restart: %d stored records, %d journaled sweeps recovered", recovered.StoreWarm, recovered.RecoveredSweeps)

	before := svc.srv.Stats()
	loopStart := time.Now()
	// The service keeps every fingerprint it has seen, so its heap grows
	// with the points delivered: the peak is taken over the first
	// svcMinSweeps sweeps, a fixed amount of work, not over the whole loop.
	heap := watchHeap()
	var peak uint64
	a0 := allocated()
	var total atomic.Int64
	done := make([][]delivered, svcClients)
	errs := make([]error, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := r.rng(100 + uint64(c))
			// Fresh points of client c are numbered from a seed-dependent
			// base so no two clients or runs share one.
			nextFresh := c<<22 + int(r.seed%256)<<14 + 1
			for k := 0; ; k++ {
				since := time.Since(loopStart)
				if since > 3*r.seconds || (since > r.seconds && total.Load() >= svcMinSweeps) {
					return
				}
				var pts []svcPoint
				for _, i := range crng.Perm(len(pool))[:svcHits] {
					pts = append(pts, pool[i])
				}
				for j := 0; j < svcFresh; j++ {
					pts = append(pts, freshPoint(crng, nextFresh))
					nextFresh++
				}
				// A traced run traces every other sweep of each client, so
				// one run yields both sides of the tracing overhead.
				var spans *recorder
				if k%2 == 1 {
					spans = r.spans
				}
				d, err := oneSweep(spans, svc.client, fmt.Sprintf("sweep-%d-%d", c, k), pts)
				if err != nil {
					errs[c] = err
					return
				}
				done[c] = append(done[c], d)
				if total.Add(1) == svcMinSweeps {
					peak = heap.end()
				}
			}
		}()
	}
	wg.Wait()
	if total.Load() < svcMinSweeps {
		peak = heap.end()
	}
	loopS := time.Since(loopStart).Seconds()
	alloc := allocated() - a0
	after := svc.srv.Stats()
	if err := errors.Join(errs...); err != nil {
		svc.stop()
		return nil, err
	}

	// Output checks: every sweep delivered all its points, the stored ones
	// from the store and the fresh ones replayed, and every fingerprint
	// predicted the same thing each time it was delivered.
	var all []delivered
	for _, ds := range done {
		all = append(all, ds...)
	}
	seen := stored
	var latencies, submits, streams []float64
	var byTraced [2][]float64 // untraced, traced sweep latencies
	points := 0
	for _, d := range all {
		latencies = append(latencies, d.latency.Seconds())
		if d.traced {
			byTraced[1] = append(byTraced[1], d.latency.Seconds())
		} else {
			byTraced[0] = append(byTraced[0], d.latency.Seconds())
		}
		submits = append(submits, d.submit.Seconds())
		streams = append(streams, d.stream.Seconds())
		points += len(d.recs)
		cached := 0
		ok := len(d.recs) == svcHits+svcFresh
		for _, rec := range d.recs {
			if rec.Err != "" || rec.Replay == nil {
				ok = false
				continue
			}
			if rec.Cached {
				cached++
			}
			o := outcomeOf(rec.Replay)
			if prev, dup := seen[rec.Fingerprint]; dup && prev != o {
				ok = false
			}
			seen[rec.Fingerprint] = o
		}
		r.check(ok && cached == svcHits, "sweep %s: %d records, %d cached, want %d and %d, all successful and consistent",
			d.sw.Name, len(d.recs), cached, svcHits+svcFresh, svcHits)
	}

	// A seeded sample of delivered records must match a direct in-process
	// replay of the same point.
	for _, i := range rng.Perm(len(all))[:min(svcDirectChecks, len(all))] {
		d := all[i]
		rec := d.recs[rng.IntN(len(d.recs))]
		ok, err := matchesDirect(d.sw, rec)
		r.check(err == nil && ok, "sweep %s point %d: service record differs from a direct replay (err %v)", d.sw.Name, rec.Index, err)
	}

	var getMs []float64
	if r.traced() {
		getMs, err = timeStoreGets(r, store, all, rng)
		if err != nil {
			svc.stop()
			return nil, err
		}
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}

	q := quantiles(latencies, 10)
	p50, p90 := median(latencies), q[8]
	beyond := 0
	for _, l := range latencies {
		if l > p90 {
			beyond++
		}
	}
	r.logf("%d sweeps (%d points) in %.2f s: latency p50 %.2f ms, p90 %.2f ms (%d samples beyond p90)",
		len(all), points, loopS, 1e3*p50, 1e3*p90, beyond)
	r.check(beyond >= 10, "sweep_service: %d samples beyond p90, want at least 10", beyond)
	r.logf("service counters over the loop: replayed %d, cache hits %d, merged %d, attempts %d, retried %d, failed %d",
		after.Replayed-before.Replayed, after.CacheHits-before.CacheHits, after.Merged-before.Merged,
		after.Attempts-before.Attempts, after.Retried-before.Retried, after.Failed-before.Failed)

	if !r.traced() {
		return map[string]metric{
			"setup_s":      {setupS, "s"},
			"wall_s":       {p50, "s"},
			"abs_err_pct":  {absErr, "%"},
			"points_per_s": {float64(points) / loopS, "1/s"},
			"alloc_mb":     {mb(alloc) / float64(len(all)), "MB"},
			"peak_heap_mb": {mb(peak), "MB"},
		}, nil
	}

	r.logf("sweep latency p50: %.2f ms over %d untraced sweeps, %.2f ms over %d traced ones",
		1e3*median(byTraced[0]), len(byTraced[0]), 1e3*median(byTraced[1]), len(byTraced[1]))
	spans := r.spans.snapshot()
	writeLayerTable(r.report, spans, "setup-")
	writeLayerTable(r.report, spans, "sweep-")
	newS := spanDurations(spans, "serve.New")
	replayed := float64(after.Replayed - before.Replayed)
	attempts := float64(after.Attempts - before.Attempts)
	useful := 0.0
	if attempts > 0 {
		useful = replayed / attempts
	}
	return map[string]metric{
		"serve.recover_s":          {median(newS), "s"},
		"serve.store_warm":         {float64(recovered.StoreWarm), "count"},
		"serve.recovered_sweeps":   {float64(recovered.RecoveredSweeps), "count"},
		"serve.submit_ms":          {1e3 * median(submits), "ms"},
		"serve.stream_ms":          {1e3 * median(streams), "ms"},
		"serve.sweep_p90_ms":       {1e3 * p90, "ms"},
		"serve.sweeps":             {float64(len(all)), "count"},
		"sweep.store_get_ms":       {median(getMs), "ms"},
		"serve.replayed":           {replayed, "count"},
		"serve.cache_hits":         {float64(after.CacheHits - before.CacheHits), "count"},
		"serve.merged":             {float64(after.Merged - before.Merged), "count"},
		"serve.attempts":           {attempts, "count"},
		"serve.retried":            {float64(after.Retried - before.Retried), "count"},
		"serve.failed":             {float64(after.Failed - before.Failed), "count"},
		"serve.useful_ratio":       {useful, "ratio"},
		"bench.trace_overhead_pct": {100 * (median(byTraced[1]) - median(byTraced[0])) / median(byTraced[0]), "%"},
	}, nil
}

// oneSweep submits one sweep and waits for its last record, recording
// spans into spans unless it is nil.
func oneSweep(spans *recorder, c *serve.Client, name string, pts []svcPoint) (delivered, error) {
	d := delivered{sw: svcSweep(name, pts), traced: spans != nil}
	t0 := time.Now()
	err := spans.wrap(name, "bench.sweep", 0, func(root int) error {
		var resp *serve.SubmitResponse
		err := spans.wrap(name, "serve.Client.Submit", root, func(int) (err error) {
			resp, err = c.Submit(context.Background(), d.sw)
			return err
		})
		if err != nil {
			return err
		}
		d.submit = time.Since(t0)
		return spans.wrap(name, "serve.Client.Stream", root, func(int) (err error) {
			d.recs, err = c.Collect(context.Background(), resp.ID)
			return err
		})
	})
	d.latency = time.Since(t0)
	d.stream = d.latency - d.submit
	return d, err
}

// populate fills the store through the service: one replay per pool point,
// then svcHistorySweeps sweeps of stored points so the journal has a
// history to recover. It returns the pool, the stored prediction of each
// fingerprint, and the mean |error| of the service's predictions against
// ground-truth emulation, one per shape.
func populate(r *run, store string, rng *rand.Rand) ([]svcPoint, map[string]outcome, float64, error) {
	var pool []svcPoint
	for i := 0; i < svcPoolVariants*len(svcShapes); i++ {
		pool = append(pool, poolPoint(i))
	}
	stored := make(map[string]outcome)
	svc, err := startService(store, &run{}, "", 0)
	if err != nil {
		return nil, nil, 0, err
	}
	defer svc.stop()

	const per = svcHits + svcFresh
	sims := make([]float64, len(svcShapes))
	for lo := 0; lo < len(pool); lo += per {
		recs, err := collect(svc.client, svcSweep(fmt.Sprintf("pool-%d", lo), pool[lo:min(lo+per, len(pool))]))
		if err != nil {
			return nil, nil, 0, err
		}
		for _, rec := range recs {
			if rec.Err != "" || rec.Replay == nil {
				return nil, nil, 0, fmt.Errorf("pool point %d: %s", lo+rec.Index, rec.Err)
			}
			stored[rec.Fingerprint] = outcomeOf(rec.Replay)
			if i := lo + rec.Index; i < len(svcShapes) {
				sims[i] = rec.Replay.SimulatedTime
			}
		}
	}
	for h := 0; h < svcHistorySweeps; h++ {
		var pts []svcPoint
		for _, i := range rng.Perm(len(pool))[:per] {
			pts = append(pts, pool[i])
		}
		if _, err := collect(svc.client, svcSweep(fmt.Sprintf("history-%d", h), pts)); err != nil {
			return nil, nil, 0, err
		}
	}

	errSum := 0.0
	for i, sh := range svcShapes {
		real, err := groundTime(sh)
		if err != nil {
			return nil, nil, 0, err
		}
		e := 100 * math.Abs(sims[i]-real) / real
		errSum += e
		fmt.Fprintf(r.digest, "%s %s-%d %x\n", sh.bench, sh.class, sh.procs, math.Float64bits(sims[i]))
		r.logf("  %s %s-%d: service predicts %.6g s, ground truth %.6g s, |error| %.3f %%", sh.bench, sh.class, sh.procs, sims[i], real, e)
	}
	return pool, stored, errSum / float64(len(svcShapes)), nil
}

// groundTime emulates the real execution of a shape on the crossbar: the
// bordereau ground-truth machine model (eager memory copy, per-rank
// jitter, cache-dependent rates) at the replay's base speed.
func groundTime(sh svcShape) (float64, error) {
	c := ground.Bordereau()
	c.Name, c.Hosts, c.BaseRate = "xbar16", 16, svcSpeed
	c.Spec = func(int) *platform.Spec { return crossbarSpec() }
	w, err := (&scenario.WorkloadSpec{Benchmark: sh.bench, Class: sh.class, Procs: sh.procs, Iterations: svcIterations}).Build()
	if err != nil {
		return 0, err
	}
	class, err := npb.ParseClass(sh.class)
	if err != nil {
		return 0, err
	}
	res, err := c.Run(w, instrument.Config{Mode: instrument.None, Compile: instrument.O0, Class: class})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// matchesDirect replays a delivered record's point in process and compares.
func matchesDirect(sw *sweep.Sweep, rec *sweep.Record) (bool, error) {
	points, err := sw.Expand()
	if err != nil {
		return false, err
	}
	if rec.Index < 0 || rec.Index >= len(points) {
		return false, fmt.Errorf("index %d out of range", rec.Index)
	}
	pt := points[rec.Index]
	if pt.Fingerprint != rec.Fingerprint {
		return false, fmt.Errorf("fingerprint %s, expanded point has %s", rec.Fingerprint, pt.Fingerprint)
	}
	res, err := pt.Scenario.Run(context.Background())
	if err != nil {
		return false, err
	}
	return sameResult(res, rec.Replay), nil
}

// timeStoreGets times sweep.Store.Get on a seeded sample of the delivered
// fingerprints, in milliseconds.
func timeStoreGets(r *run, store string, all []delivered, rng *rand.Rand) ([]float64, error) {
	st, err := sweep.OpenStore(store)
	if err != nil {
		return nil, err
	}
	var fps []string
	for _, d := range all {
		for _, rec := range d.recs {
			fps = append(fps, rec.Fingerprint)
		}
	}
	var out []float64
	for i := 0; i < svcStoreGets; i++ {
		fp := fps[rng.IntN(len(fps))]
		t0 := time.Now()
		err := r.spans.wrap("store", "sweep.Store.Get", 0, func(int) error {
			rec, err := st.Get(fp)
			if err == nil && rec == nil {
				err = fmt.Errorf("fingerprint %s not stored", fp)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, 1e3*time.Since(t0).Seconds())
	}
	return out, nil
}
