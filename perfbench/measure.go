package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantiles returns the n-quantile cut points of xs by the method of
// Python's statistics.quantiles(xs, n=n) (the default "exclusive" one), so
// the steadiness check computes the same quartiles the benchmark's users do.
func quantiles(xs []float64, n int) []float64 {
	d := slices.Sorted(slices.Values(xs))
	ld := len(d)
	out := make([]float64, 0, n-1)
	if ld == 0 {
		return nil
	}
	if ld == 1 {
		for i := 1; i < n; i++ {
			out = append(out, d[0])
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out = append(out, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/float64(n))
	}
	return out
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := slices.Sorted(slices.Values(xs))
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// allocated returns the bytes allocated on the heap since the process
// started.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the heap in use (live objects plus garbage not yet
// swept) every 10 ms and keeps the peak.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the sampler, waits for it, and returns the peak in bytes.
func (w *heapWatch) end() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// repStat is one measured repetition.
type repStat struct {
	wall   time.Duration
	alloc  uint64 // bytes allocated during the repetition
	peak   uint64 // peak heap in use during the repetition
	traced bool
}

// measure runs one repetition, timing it and watching its memory.
func measure(f func() error) (repStat, error) {
	w := watchHeap()
	a0 := allocated()
	t0 := time.Now()
	err := f()
	st := repStat{wall: time.Since(t0), alloc: allocated() - a0}
	st.peak = w.end()
	return st, err
}

// repeat runs a warm-up repetition (index 0, not returned) and then timed
// ones until the run's time is spent, and at least minReps of them. In a
// traced run even-numbered repetitions are traced and odd ones are not, so
// one run yields both sides of the tracing overhead. before runs untimed
// ahead of every repetition: set-ups timed there see the same phases of a
// shared host that the repetitions do. rep receives the repetition index
// and whether to trace it.
func (r *run) repeat(minReps int, before func() error, rep func(i int, traced bool) error) ([]repStat, error) {
	start := time.Now()
	var walls []float64
	var stats []repStat
	for i := 0; ; i++ {
		if i > 0 && len(stats) >= minReps {
			// Start another repetition only if a typical one still fits.
			if time.Since(start)+time.Duration(median(walls)) > r.seconds {
				break
			}
		}
		if err := before(); err != nil {
			return nil, err
		}
		traced := r.traced() && i > 0 && i%2 == 0
		st, err := measure(func() error { return rep(i, traced) })
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		st.traced = traced
		walls = append(walls, float64(st.wall))
		note := ""
		if traced {
			note = " (traced)"
		}
		r.logf("rep %d: %.3f s, %.1f MB allocated, %.1f MB peak heap%s", i, st.wall.Seconds(), mb(st.alloc), mb(st.peak), note)
		if i > 0 {
			stats = append(stats, st)
		}
	}
	return stats, nil
}

// repMedians returns the median wall seconds, allocated MB and peak heap
// MB over the repetitions whose traced flag equals traced.
func repMedians(stats []repStat, traced bool) (wall, alloc, peak float64) {
	var w, a, p []float64
	for _, s := range stats {
		if s.traced == traced {
			w = append(w, s.wall.Seconds())
			a = append(a, mb(s.alloc))
			p = append(p, mb(s.peak))
		}
	}
	return median(w), median(a), median(p)
}

// setups times a workload's set-up. Each set-up starts from a collected
// heap, so the garbage of the one before is not charged to it; undo, when
// not nil, runs untimed between two set-ups.
type setups struct {
	f    func(i int) error
	undo func()
	xs   []float64
}

// run times n more set-ups.
func (s *setups) run(n int) error {
	for j := 0; j < n; j++ {
		if len(s.xs) > 0 && s.undo != nil {
			s.undo()
		}
		runtime.GC()
		var dt float64
		if err := timed(&dt, func() error { return s.f(len(s.xs)) }); err != nil {
			return fmt.Errorf("set-up %d: %w", len(s.xs), err)
		}
		s.xs = append(s.xs, dt)
	}
	return nil
}

// median logs the set-up times and returns their median in seconds.
func (s *setups) median(r *run) float64 {
	r.logf("set-up: median %.4f s of %.4f", median(s.xs), s.xs)
	return median(s.xs)
}

// timed runs f and stores its wall seconds in dst.
func timed(dst *float64, f func() error) error {
	t0 := time.Now()
	err := f()
	*dst = time.Since(t0).Seconds()
	return err
}

func mb(b uint64) float64 { return float64(b) / 1e6 }

// rng returns the run's seeded generator for stream k, so each input the
// benchmark generates has its own reproducible stream.
func (r *run) rng(k uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, k))
}
