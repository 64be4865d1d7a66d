package des

import (
	"container/heap"
	"time"
)

// eventQueue is the original binary-heap event store, ordered by
// (when, seq). It survives as a test-only scheduler: the equivalence
// oracle the timing wheel is pinned against.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq // FIFO among simultaneous events
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// heapScheduler adapts eventQueue to the scheduler interface. Every
// schedule and pop pays O(log n) sift cost plus the container/heap
// interface boxing — the overhead the timing wheel eliminates.
type heapScheduler struct {
	q eventQueue
}

func (h *heapScheduler) schedule(e *event) {
	heap.Push(&h.q, e)
}

func (h *heapScheduler) peek() *event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapScheduler) pop() *event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*event)
}

func (h *heapScheduler) pending() int { return len(h.q) }

func (h *heapScheduler) counters() (uint64, uint64) { return 0, 0 }

// newHeapLoop is NewLoop running on the heap oracle.
func newHeapLoop(start time.Time, seed int64) *Loop {
	l := NewLoop(start, seed)
	l.sched = &heapScheduler{}
	return l
}
