package sim

import "fmt"

// Barrier is a reusable n-party synchronization point for simulated
// processes. The MSG-style replay backend uses it to implement monolithic
// collective models: every rank blocks until the last one arrives, then all
// resume (and typically sleep the modelled collective duration).
type Barrier struct {
	engine  *Engine
	n       int
	gen     int64
	count   int
	waiting []*Proc
}

// NewBarrier creates a barrier for n parties.
func (e *Engine) NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("sim: NewBarrier(%d): need at least one party", n))
	}
	return &Barrier{engine: e, n: n}
}

// Await blocks p until n processes have arrived. It returns true on the
// process that arrived last (useful to compute a shared quantity exactly
// once per round). The barrier is reusable: generations keep successive
// rounds apart.
func (b *Barrier) Await(p *Proc) bool {
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		for _, w := range b.waiting {
			b.engine.wake(w)
		}
		b.waiting = b.waiting[:0]
		return true
	}
	my := b.gen
	b.waiting = append(b.waiting, p)
	for b.gen == my {
		p.block(blockInfo{what: "barrier", n: b.count, m: b.n})
	}
	return false
}

// arrive is the continuation-program Barrier.Await: it returns true when p
// is the last arriver (barrier passed; keep executing) and false when p has
// blocked. Unlike Await, the machine must not re-arrive on wake — being
// woken IS the barrier release.
func (b *Barrier) arrive(p *Proc) bool {
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		for _, w := range b.waiting {
			b.engine.wake(w)
		}
		b.waiting = b.waiting[:0]
		return true
	}
	b.waiting = append(b.waiting, p)
	p.state = procBlocked
	p.blockedOn = blockInfo{what: "barrier", n: b.count, m: b.n}
	return false
}
