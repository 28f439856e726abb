package topk

import "slices"

// better is the total order the top-k keeps: higher score first, ties broken
// deterministically by node order. It is strict — two distinct tuples never
// compare equal — which makes every bounded-heap selection below independent
// of insertion order.
func better(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return lessTuple(a.Nodes, b.Nodes)
}

// topHeap keeps the best k results seen so far as a min-heap on the better
// order: rs[0] is the worst kept result, so one comparison decides whether a
// new tuple displaces it. It replaces the sort-after-every-unit frontier of
// the original TA loop — push is O(log k) instead of re-sorting O(n log n).
// Not safe for concurrent use; each search owns one.
type topHeap struct {
	k  int
	rs []Result
}

func newTopHeap(k int) *topHeap { return &topHeap{k: k, rs: make([]Result, 0, k)} }

// push inserts r if it belongs in the current top k. r's Nodes and Paths
// are the caller's scratch: a kept result gets its own copies, reusing the
// storage of the result it displaces, so the heap allocates only while it
// fills.
func (h *topHeap) push(r Result) {
	if len(h.rs) < h.k {
		r.Nodes, r.Paths = slices.Clone(r.Nodes), slices.Clone(r.Paths)
		h.rs = append(h.rs, r)
		h.siftUp(len(h.rs) - 1)
		return
	}
	if better(r, h.rs[0]) {
		r.Nodes = append(h.rs[0].Nodes[:0], r.Nodes...)
		r.Paths = append(h.rs[0].Paths[:0], r.Paths...)
		h.rs[0] = r
		h.siftDown(0)
	}
}

// kth returns the score of the worst kept result; ok is false until the
// heap holds k results (no threshold can fire before the top-k is full).
func (h *topHeap) kth() (float64, bool) {
	if len(h.rs) < h.k {
		return 0, false
	}
	return h.rs[0].Score, true
}

// sorted drains the heap, best result first.
func (h *topHeap) sorted() []Result {
	out := h.rs
	h.rs = nil
	slices.SortFunc(out, func(a, b Result) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
	return out
}

func (h *topHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !better(h.rs[p], h.rs[i]) {
			break // parent is already worse-or-equal: heap property holds
		}
		h.rs[p], h.rs[i] = h.rs[i], h.rs[p]
		i = p
	}
}

func (h *topHeap) siftDown(i int) {
	n := len(h.rs)
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if better(h.rs[worst], h.rs[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.rs[i], h.rs[worst] = h.rs[worst], h.rs[i]
		i = worst
	}
}
