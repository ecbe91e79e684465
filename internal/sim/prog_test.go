package sim

import (
	"errors"
	"fmt"
	"testing"
)

// Tests of the continuation scheduler: micro-op programs must be
// observationally identical to goroutine-backed processes — same simulated
// times, same stats, same diagnostics.

func TestProgSleepSequence(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
	h := &Host{Name: "h", Speed: 1e9}
	calls := 0
	var times []float64
	e.SpawnProg("t", h, func(p *Prog) (bool, error) {
		times = append(times, e.Now())
		if calls++; calls <= 3 {
			p.Sleep(0.5)
			return true, nil
		}
		return false, nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1.5 {
		t.Fatalf("end time = %v, want 1.5", e.Now())
	}
	if len(times) != 4 || times[1] != 0.5 || times[3] != 1.5 {
		t.Fatalf("wake times = %v", times)
	}
	// One context switch per resume, exactly as a goroutine proc counts.
	if cs := e.Stats().ContextSwitches; cs != 4 {
		t.Fatalf("context switches = %d, want 4", cs)
	}
}

// Exec must be Proc.Execute op for op: the same end time and stats, the
// same faults, and a zero amount that arms no timer and switches no
// context.
func TestProgExecMatchesExecute(t *testing.T) {
	amounts := []float64{3e9, 0, 1.5e9, 0, 7}
	run := func(continuation bool) (float64, Stats) {
		e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
		h := &Host{Name: "h", Speed: 0.75e9}
		if continuation {
			i := 0
			e.SpawnProg("r", h, func(p *Prog) (bool, error) {
				if i == len(amounts) {
					return false, nil
				}
				p.Exec(amounts[i])
				i++
				return true, nil
			})
		} else {
			e.Spawn("r", h, func(p *Proc) {
				for _, a := range amounts {
					p.Execute(a)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Stats()
	}
	tProg, sProg := run(true)
	tGoro, sGoro := run(false)
	if tProg != tGoro || sProg != sGoro {
		t.Fatalf("Exec diverges from Execute:\n prog: %v %+v\n goro: %v %+v", tProg, sProg, tGoro, sGoro)
	}
	if sProg.TimersFired != 3 || sProg.ContextSwitches != 4 {
		t.Fatalf("zero amounts must cost nothing: %+v", sProg)
	}

	for _, tc := range []struct{ amt, speed float64 }{{-1, 1e9}, {1, 0}, {1, -2}} {
		fault := func(continuation bool) error {
			e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
			h := &Host{Name: "h", Speed: tc.speed}
			if continuation {
				e.SpawnProg("r", h, func(p *Prog) (bool, error) { p.Exec(tc.amt); return true, nil })
			} else {
				e.Spawn("r", h, func(p *Proc) { p.Execute(tc.amt) })
			}
			return e.Run()
		}
		errProg, errGoro := fault(true), fault(false)
		if errProg == nil || errGoro == nil || errProg.Error() != errGoro.Error() {
			t.Fatalf("Exec(%g) at speed %g: faults differ:\n prog: %v\n goro: %v", tc.amt, tc.speed, errProg, errGoro)
		}
	}
}

func TestProgFeedErrorAndPanicParity(t *testing.T) {
	h := func() (*Engine, *Host) {
		e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
		return e, &Host{Name: "h", Speed: 1e9}
	}
	boom := errors.New("malformed")
	e, host := h()
	e.SpawnProg("r", host, func(p *Prog) (bool, error) { return false, boom })
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("feed error: %v, want boom", err)
	}
	// A panic inside the feed is reported like a panic in a goroutine body.
	e, host = h()
	e.SpawnProg("r", host, func(p *Prog) (bool, error) { panic("kaput") })
	errProg := e.Run()
	e, host = h()
	e.Spawn("r", host, func(p *Proc) { panic("kaput") })
	errGo := e.Run()
	if errProg == nil || errGo == nil || errProg.Error() != errGo.Error() {
		t.Fatalf("panic reports differ:\n prog: %v\n goro: %v", errProg, errGo)
	}
}

// progPingPong runs the canonical matched put/get exchange in both schedulers
// over identical pair mailboxes and returns (end time, stats).
func progPingPong(t *testing.T, rounds int, continuation bool) (float64, Stats) {
	t.Helper()
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	space := e.NewPairSpace("t", hs)
	ab, ba := space.Box(0, 1), space.Box(1, 0)
	if continuation {
		i, j := 0, 0
		e.SpawnProg("a", hs[0], func(p *Prog) (bool, error) {
			if i++; i > rounds {
				return false, nil
			}
			p.Put(ab, 1024, 0)
			p.WaitReg(0)
			p.Get(ba, 1)
			p.WaitReg(1)
			return true, nil
		})
		e.SpawnProg("b", hs[1], func(p *Prog) (bool, error) {
			if j++; j > rounds {
				return false, nil
			}
			p.Get(ab, 0)
			p.WaitReg(0)
			p.Put(ba, 1024, 1)
			p.WaitReg(1)
			return true, nil
		})
	} else {
		e.Spawn("a", hs[0], func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.PutBox(ab, 1024)
				p.GetBox(ba)
			}
		})
		e.Spawn("b", hs[1], func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.GetBox(ab)
				p.PutBox(ba, 1024)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Now(), e.Stats()
}

func TestProgPingPongBitIdenticalToGoroutines(t *testing.T) {
	endC, statsC := progPingPong(t, 100, true)
	endG, statsG := progPingPong(t, 100, false)
	if endC != endG {
		t.Fatalf("end time %v (continuation) != %v (goroutine)", endC, endG)
	}
	if statsC != statsG {
		t.Fatalf("stats diverge:\n continuation: %+v\n goroutine:    %+v", statsC, statsG)
	}
}

func TestProgPendingFIFO(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	space := e.NewPairSpace("t", hs)
	ab := space.Box(0, 1)
	sent := 0
	e.SpawnProg("s", hs[0], func(p *Prog) (bool, error) {
		switch sent++; sent {
		case 1:
			p.PutPending(ab, 100)
			p.PutPending(ab, 200)
			p.PushPendingDone() // a born-done request interleaved in the FIFO
			p.PutPending(ab, 300)
		case 2:
			p.WaitPending()
			p.WaitPending()
			p.WaitAllPending()
		default:
			return false, nil
		}
		return true, nil
	})
	got := 0
	e.SpawnProg("r", hs[1], func(p *Prog) (bool, error) {
		if got++; got > 3 {
			return false, nil
		}
		p.Get(ab, 0)
		p.WaitReg(0)
		return true, nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestProgBarrierAgainstGoroutine(t *testing.T) {
	run := func(continuation bool) (float64, Stats) {
		e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
		hs := newTestHosts(4, 1e9)
		bar := e.NewBarrier(4)
		for i := 0; i < 4; i++ {
			d := float64(i) * 0.25
			if continuation {
				n := 0
				e.SpawnProg(fmt.Sprintf("p%d", i), hs[i], func(p *Prog) (bool, error) {
					if n++; n > 1 {
						return false, nil
					}
					p.Sleep(d)
					p.Await(bar)
					p.Sleep(0.1)
					return true, nil
				})
			} else {
				e.Spawn(fmt.Sprintf("p%d", i), hs[i], func(p *Proc) {
					p.Sleep(d)
					bar.Await(p)
					p.Sleep(0.1)
				})
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Stats()
	}
	endC, statsC := run(true)
	endG, statsG := run(false)
	if endC != endG || endC != 0.85 {
		t.Fatalf("end times: continuation %v, goroutine %v, want 0.85", endC, endG)
	}
	if statsC != statsG {
		t.Fatalf("stats diverge:\n continuation: %+v\n goroutine:    %+v", statsC, statsG)
	}
}

// TestBlockedOnCommClearedAfterWait pins the unblock path: once a process
// resumes from a comm wait, its blockInfo must not keep the comm alive (the
// reference would defeat pooling and could leak a recycled comm into a later
// deadlock report).
func TestBlockedOnCommClearedAfterWait(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	checked := false
	e.Spawn("s", hs[0], func(p *Proc) { p.Put("mb", 1024) })
	e.Spawn("r", hs[1], func(p *Proc) {
		p.Get("mb")
		if p.blockedOn.comm != nil {
			t.Errorf("blockedOn.comm = %v after wait, want nil", p.blockedOn.comm)
		}
		checked = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("receiver never ran")
	}
}

// TestDeadlockReportIdenticalSchedulers replays the same never-matched
// receive under both schedulers and requires byte-identical deadlock
// diagnostics — the lazily rendered pair-mailbox names must reproduce the
// historical text exactly.
func TestDeadlockReportIdenticalSchedulers(t *testing.T) {
	run := func(continuation bool) string {
		e := NewEngine(pairRouter{&Link{Bandwidth: 1e9, Latency: 1e-6}})
		hs := newTestHosts(2, 1e9)
		space := e.NewPairSpace("p", hs)
		box := space.Box(1, 0)
		if continuation {
			n := 0
			e.SpawnProg("rank0", hs[0], func(p *Prog) (bool, error) {
				if n++; n > 1 {
					return false, nil
				}
				p.Get(box, 0)
				p.WaitReg(0)
				return true, nil
			})
		} else {
			e.Spawn("rank0", hs[0], func(p *Proc) { p.GetBox(box) })
		}
		err := e.Run()
		var d *DeadlockError
		if !errors.As(err, &d) {
			t.Fatalf("err = %v, want DeadlockError", err)
		}
		return err.Error()
	}
	gotC, gotG := run(true), run(false)
	if gotC != gotG {
		t.Fatalf("deadlock reports diverge:\n continuation: %s\n goroutine:    %s", gotC, gotG)
	}
	const golden = `sim: deadlock at t=0 with 1 blocked process(es): rank0: wait(comm 1 on "p:1>0")`
	if gotC != golden {
		t.Fatalf("deadlock report = %q, want %q", gotC, golden)
	}
}
