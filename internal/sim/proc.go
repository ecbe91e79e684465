package sim

import "fmt"

type procState int

const (
	procCreated procState = iota
	procRunnable
	procRunning
	procBlocked
	procDone
)

// Proc is a simulated process. Production processes run a continuation
// program (SpawnProg): the engine steps a micro-op machine inline from the
// event loop. A process started with Spawn instead runs a Go body in a
// dedicated goroutine, only while the engine has handed it control, so the
// body is plain sequential code calling the blocking primitives below; that
// mode is the reference the continuation kernel is tested against.
type Proc struct {
	// Name identifies the process in errors and deadlock reports.
	Name string
	// Host is the resource the process computes on.
	Host *Host

	id        int64
	engine    *Engine
	state     procState
	blockedOn blockInfo
	resume    chan struct{}
	fault     error

	// prog, when non-nil, is the continuation program the process runs: the
	// engine resumes it by stepping the machine inline from the event loop
	// instead of a channel handoff to a goroutine.
	prog *progMachine
}

// blockInfo describes why a process is blocked. It holds the raw operands
// and formats only when a deadlock report is actually produced: rendering
// the reason eagerly cost two allocations on every blocking primitive,
// which dominated large replays.
type blockInfo struct {
	what string  // "sleep", "wait", "waitany", "barrier"
	comm *Comm   // wait only
	amt  float64 // sleep duration
	n, m int     // barrier arrived/party counts; waitany comm count
}

func (b blockInfo) String() string {
	switch b.what {
	case "sleep":
		return fmt.Sprintf("sleep(%g)", b.amt)
	case "wait":
		return fmt.Sprintf("wait(comm %d on %q)", b.comm.ID, b.comm.Mailbox())
	case "waitany":
		return fmt.Sprintf("waitany(%d comms)", b.n)
	case "barrier":
		return fmt.Sprintf("barrier(%d/%d)", b.n, b.m)
	}
	return b.what
}

// simFault carries a simulated-program failure through panic/recover from
// the faulting primitive to the process wrapper, which converts it into an
// engine error. Simulated program bugs (negative compute amounts, waiting on
// foreign comms, ...) abort the whole simulation: a replay with a corrupted
// trace must not silently produce a time.
type simFault struct{ err error }

func (p *Proc) faultf(format string, args ...any) {
	panic(simFault{fmt.Errorf("sim: process %s: "+format, append([]any{p.Name}, args...)...)})
}

// Fail aborts the whole simulation with err: the process unwinds immediately
// and Engine.Run returns err (the first failure wins). Layers above the
// kernel use it to surface structured errors — e.g. a malformed trace — with
// their error chain intact, where a plain panic would flatten it to a string.
// Must be called from the failing process itself.
func (p *Proc) Fail(err error) {
	if err == nil {
		p.faultf("Fail(nil)")
	}
	panic(simFault{err})
}

// Spawn creates a simulated process named name pinned to host, running body
// in its own goroutine. It may be called before Run or from a running
// process. It is the goroutine reference for the continuation kernel:
// production layers compile their processes to SpawnProg programs.
func (e *Engine) Spawn(name string, host *Host, body func(*Proc)) *Proc {
	if host == nil {
		panic("sim: Spawn with nil host")
	}
	// A goroutine body may retain *Comm values arbitrarily long, so its
	// engine must never recycle them.
	e.pooled = false
	e.procSeq++
	p := &Proc{
		Name:   name,
		Host:   host,
		id:     e.procSeq,
		engine: e,
		state:  procRunnable,
		resume: make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	e.runq.push(p)
	e.nalive++
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if f, ok := r.(simFault); ok {
					e.fail(f.err)
				} else {
					e.fail(fmt.Errorf("sim: process %s panicked: %v", name, r))
				}
			}
			p.state = procDone
			e.nalive--
			e.current = nil
			e.yield <- struct{}{}
		}()
		body(p)
	}()
	return p
}

// resume hands control to p until it blocks or finishes: a direct call into
// the machine for continuation processes, a channel handoff for goroutine
// processes. Both count one context switch, so the stat is comparable (and
// bit-identical) across modes.
func (e *Engine) resume(p *Proc) {
	if p.state != procRunnable {
		return
	}
	p.state = procRunning
	e.current = p
	e.stats.ContextSwitches++
	if p.prog != nil {
		e.stepProg(p)
		return
	}
	p.resume <- struct{}{}
	<-e.yield
}

// block parks the calling process until the engine wakes it. reason is shown
// in deadlock reports.
func (p *Proc) block(reason blockInfo) {
	e := p.engine
	if e.current != p {
		panic("sim: primitive called from outside the running process")
	}
	p.state = procBlocked
	p.blockedOn = reason
	e.current = nil
	e.yield <- struct{}{}
	<-p.resume
	e.current = p
	p.state = procRunning
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.engine.now }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.engine }

// Sleep suspends the process for d simulated seconds.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		p.faultf("Sleep(%g): negative duration", d)
	}
	e := p.engine
	e.afterWake(d, p)
	p.block(blockInfo{what: "sleep", amt: d})
}

// Execute simulates computing amount instructions at the host's calibrated
// speed.
func (p *Proc) Execute(amount float64) {
	p.ExecuteAtRate(amount, p.Host.Speed)
}

// ExecuteAtRate simulates computing amount instructions at rate instructions
// per second. The ground-truth cluster model uses per-segment rates to model
// cache effects (Section 2.3 of the paper).
func (p *Proc) ExecuteAtRate(amount, rate float64) {
	if amount < 0 {
		p.faultf("Execute(%g): negative amount", amount)
	}
	if rate <= 0 {
		p.faultf("Execute(%g) at non-positive rate %g", amount, rate)
	}
	if amount == 0 {
		return
	}
	p.Sleep(amount / rate)
}

// Put posts a send of size bytes on the given mailbox and blocks until the
// transfer fully completes (rendezvous semantics).
func (p *Proc) Put(mb string, size float64) *Comm {
	c := p.PutAsync(mb, size)
	p.WaitComm(c)
	return c
}

// PutAsync posts a send and returns immediately; the transfer starts when a
// matching receive is posted. Wait on the returned comm for completion.
func (p *Proc) PutAsync(mb string, size float64) *Comm {
	return p.PutAsyncBox(p.engine.namedBox(mb).box, size)
}

// PutPayload is PutAsync with an attached payload value delivered to the
// receiver.
func (p *Proc) PutPayload(mb string, size float64, payload any) *Comm {
	if size < 0 {
		p.faultf("send of negative size %g", size)
	}
	e := p.engine
	return e.postSend(e.namedBox(mb), p, size, payload, false)
}

// PutDetached posts a fire-and-forget send: the sender never waits and the
// transfer proceeds on its own. This models the eager protocol's sender side
// ("the send corresponds to the time of a copy of the data in the memory" —
// the copy itself, if modelled, is charged separately by the MPI layer).
func (p *Proc) PutDetached(mb string, size float64, payload any) *Comm {
	if size < 0 {
		p.faultf("send of negative size %g", size)
	}
	e := p.engine
	return e.postSend(e.namedBox(mb), p, size, payload, true)
}

// Get posts a receive on the mailbox and blocks until a matching transfer
// has fully arrived. It returns the completed comm (payload included).
func (p *Proc) Get(mb string) *Comm {
	c := p.GetAsync(mb)
	p.WaitComm(c)
	return c
}

// GetAsync posts a receive and returns immediately; wait on the returned
// comm for the data.
func (p *Proc) GetAsync(mb string) *Comm {
	return p.GetAsyncBox(p.engine.namedBox(mb).box)
}

// PutBox is Put on a pair mailbox (see Mbox/PairSpace).
func (p *Proc) PutBox(mb Mbox, size float64) *Comm {
	c := p.PutAsyncBox(mb, size)
	p.WaitComm(c)
	return c
}

// PutAsyncBox is PutAsync on a pair mailbox.
func (p *Proc) PutAsyncBox(mb Mbox, size float64) *Comm {
	if size < 0 {
		p.faultf("send of negative size %g", size)
	}
	e := p.engine
	return e.postSend(e.box(mb), p, size, nil, false)
}

// PutDetachedBox is PutDetached on a pair mailbox.
func (p *Proc) PutDetachedBox(mb Mbox, size float64, payload any) *Comm {
	if size < 0 {
		p.faultf("send of negative size %g", size)
	}
	e := p.engine
	return e.postSend(e.box(mb), p, size, payload, true)
}

// GetBox is Get on a pair mailbox.
func (p *Proc) GetBox(mb Mbox) *Comm {
	c := p.GetAsyncBox(mb)
	p.WaitComm(c)
	return c
}

// GetAsyncBox is GetAsync on a pair mailbox.
func (p *Proc) GetAsyncBox(mb Mbox) *Comm {
	e := p.engine
	return e.postRecv(e.box(mb), p)
}

// WaitComm blocks until c completes.
func (p *Proc) WaitComm(c *Comm) {
	if c == nil {
		p.faultf("wait on nil comm")
	}
	if c.engine != p.engine {
		p.faultf("wait on comm from another engine")
	}
	for !c.Done() {
		if c.waiters == nil {
			c.waiters = c.waiterBuf[:0]
		}
		c.waiters = append(c.waiters, p)
		p.block(blockInfo{what: "wait", comm: c})
	}
}

// WaitAll blocks until every comm in cs has completed.
func (p *Proc) WaitAll(cs []*Comm) {
	for _, c := range cs {
		p.WaitComm(c)
	}
}

// WaitAnyComm blocks until at least one comm in cs has completed and
// returns the index of the lowest-indexed completed one. While no comm is
// done it registers as a waiter on every comm; on each wake it deregisters
// from all of them before rescanning — a waiter entry left behind on a comm
// that completes later would falsely wake this process out of an unrelated
// block (the engine's wake only checks that the process is blocked, not
// what on).
func (p *Proc) WaitAnyComm(cs []*Comm) int {
	if len(cs) == 0 {
		p.faultf("wait-any on empty comm set")
	}
	for _, c := range cs {
		if c == nil {
			p.faultf("wait-any on nil comm")
		}
		if c.engine != p.engine {
			p.faultf("wait-any on comm from another engine")
		}
	}
	for {
		for i, c := range cs {
			if c.Done() {
				return i
			}
		}
		for _, c := range cs {
			if c.waiters == nil {
				c.waiters = c.waiterBuf[:0]
			}
			c.waiters = append(c.waiters, p)
		}
		p.block(blockInfo{what: "waitany", n: len(cs)})
		for _, c := range cs {
			c.removeWaiter(p)
		}
	}
}

// TestComm reports whether c has completed, without blocking.
func (p *Proc) TestComm(c *Comm) bool {
	if c == nil {
		p.faultf("test on nil comm")
	}
	return c.Done()
}
