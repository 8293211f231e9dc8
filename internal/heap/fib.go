// Package heap provides the priority queues used by the community search
// algorithms: a Fibonacci heap, which Algorithm 5 of the paper uses to
// order candidate cores (O(1) insert, O(log n) amortized extract-min),
// and a lightweight binary heap used inside Dijkstra's algorithm.
package heap

// FibNode is a node of a Fibonacci heap.
type FibNode[T any] struct {
	// Key is the priority of the node; smaller keys are extracted first.
	Key float64
	// Value is the caller payload carried with the node.
	Value T

	child  *FibNode[T]
	left   *FibNode[T]
	right  *FibNode[T]
	degree int
}

// Fib is a min-ordered Fibonacci heap. The zero value is not usable;
// create heaps with NewFib.
type Fib[T any] struct {
	min   *FibNode[T]
	n     int
	roots []*FibNode[T] // consolidate's scratch, kept across calls
}

// NewFib returns an empty Fibonacci heap.
func NewFib[T any]() *Fib[T] { return &Fib[T]{} }

// Len reports the number of nodes currently in the heap.
func (h *Fib[T]) Len() int { return h.n }

// Insert adds a new node with the given key and value and returns it.
// The returned node remains valid until it is extracted.
func (h *Fib[T]) Insert(key float64, v T) *FibNode[T] {
	x := &FibNode[T]{Key: key, Value: v}
	x.left = x
	x.right = x
	h.addRoot(x)
	h.n++
	return x
}

// Min returns the node with the smallest key without removing it, or
// nil if the heap is empty.
func (h *Fib[T]) Min() *FibNode[T] { return h.min }

// ExtractMin removes and returns the node with the smallest key, or nil
// if the heap is empty.
func (h *Fib[T]) ExtractMin() *FibNode[T] {
	z := h.min
	if z == nil {
		return nil
	}
	// Promote all children of z to the root list.
	for z.child != nil {
		c := z.child
		z.child = c.right
		if z.child == c { // last child
			z.child = nil
		} else {
			c.left.right = c.right
			c.right.left = c.left
		}
		c.left = c
		c.right = c
		h.addRoot(c)
	}
	// Remove z from the root list.
	if z.right == z {
		h.min = nil
	} else {
		z.left.right = z.right
		z.right.left = z.left
		h.min = z.right
		h.consolidate()
	}
	h.n--
	z.left = nil
	z.right = nil
	return z
}

func (h *Fib[T]) addRoot(x *FibNode[T]) {
	if h.min == nil {
		h.min = x
		x.left = x
		x.right = x
		return
	}
	// Insert x to the right of min.
	x.left = h.min
	x.right = h.min.right
	h.min.right.left = x
	h.min.right = x
	if x.Key < h.min.Key {
		h.min = x
	}
}

// consolidate links roots of equal degree until all root degrees are
// distinct, then recomputes min.
func (h *Fib[T]) consolidate() {
	// Max degree is O(log n); 64 slots cover any addressable heap.
	var slots [64]*FibNode[T]

	// Collect roots first: linking mutates the root list.
	roots := h.roots[:0]
	r := h.min
	if r != nil {
		for {
			roots = append(roots, r)
			r = r.right
			if r == h.min {
				break
			}
		}
	}
	for _, x := range roots {
		d := x.degree
		for slots[d] != nil {
			y := slots[d]
			if y.Key < x.Key {
				x, y = y, x
			}
			h.link(y, x)
			slots[d] = nil
			d++
		}
		slots[d] = x
	}
	clear(roots) // hold no extracted node
	h.roots = roots
	h.min = nil
	for _, x := range slots {
		if x == nil {
			continue
		}
		x.left = x
		x.right = x
		if h.min == nil {
			h.min = x
		} else {
			x.left = h.min
			x.right = h.min.right
			h.min.right.left = x
			h.min.right = x
			if x.Key < h.min.Key {
				h.min = x
			}
		}
	}
}

// link makes y a child of x. Both must be roots and y.Key >= x.Key.
func (h *Fib[T]) link(y, x *FibNode[T]) {
	// Remove y from the root list.
	y.left.right = y.right
	y.right.left = y.left
	if x.child == nil {
		x.child = y
		y.left = y
		y.right = y
	} else {
		y.left = x.child
		y.right = x.child.right
		x.child.right.left = y
		x.child.right = y
	}
	x.degree++
}
