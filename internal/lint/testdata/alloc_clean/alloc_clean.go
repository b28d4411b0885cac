// Package allocclean is a steady-state freelist fast path the checker must
// accept: self-appends into warmed capacity, pointer-shaped interface
// arguments, panic-only cold paths, and an audited //ccnic:alloc-ok
// exception.
package allocclean

type item struct {
	v    int
	next *item
}

type observer interface{ note(v *item) }

type pool struct {
	free []*item
	head *item
	obs  observer
}

//ccnic:noalloc
func (p *pool) push(it *item) {
	it.next = p.head
	p.head = it
	p.free = append(p.free, it) // self-append: reuses warmed capacity
	if p.obs != nil {
		p.obs.note(it) // pointer-shaped argument: no boxing
	}
}

//ccnic:noalloc
func (p *pool) pop() *item {
	n := len(p.free)
	if n == 0 {
		panic("empty pool: " + "refill first")
	}
	it := p.free[n-1]
	p.free = p.free[:n-1]
	p.recycleIfCold(it)
	return it
}

//ccnic:noalloc
func (p *pool) recycleIfCold(it *item) {
	if it.v == 0 {
		it.next = warm(it) //ccnic:alloc-ok audited warm-up outside steady state
	}
}

// warm is unannotated; the call above is covered by //ccnic:alloc-ok.
func warm(it *item) *item { return it }

// drain exercises the escape-aware closure rule: both literals capture
// variables, but neither value leaves the function — one is invoked in
// place, the other is bound to a local used only in call position — so no
// closure is heap-allocated.
//
//ccnic:noalloc
func (p *pool) drain(n int) {
	trim := func(k int) { p.free = p.free[:k] }
	for i := n; i > 0; i-- {
		trim(i - 1)
	}
	func() { p.head = nil }()
}

// ring is generic; noalloc callers of an instantiation are checked against
// the generic method's own annotation.
type ring[T any] struct {
	buf  []T
	head int
}

//ccnic:noalloc
func (r *ring[T]) next() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	return v
}

//ccnic:noalloc
func (p *pool) fromRing(r *ring[*item]) *item { return r.next() }
