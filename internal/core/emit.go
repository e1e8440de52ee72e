package core

import (
	"sync"
	"sync/atomic"
)

// EmitQueue is the delivery pipeline shared by the online engines
// (Detector match deltas, resolve's Integrator entity deltas): items
// are buffered in state-change order while the owner holds its state
// lock and delivered strictly outside it, by exactly one active
// drainer at a time, so the callback can re-enter the owner freely. A
// re-entrant call finds draining set, enqueues its items and returns;
// the active drainer picks them up before exiting. Every mutating
// operation calls Drain after releasing the state lock, so no item is
// ever stranded: either that call delivers it, or the drainer that
// was active when it was enqueued does. A false return from the
// callback permanently stops delivery; a nil callback disables the
// queue entirely.
type EmitQueue[T any] struct {
	emit     func(T) bool
	mu       sync.Mutex
	queue    []T
	draining bool
	stopped  atomic.Bool
}

// NewEmitQueue builds a queue delivering through emit (nil disables
// delivery; Enqueue and Drain become no-ops).
func NewEmitQueue[T any](emit func(T) bool) *EmitQueue[T] {
	return &EmitQueue[T]{emit: emit}
}

// Enqueue buffers items for delivery. Callers hold their own state
// lock, so the queue order is exactly the state-change order across
// all goroutines.
func (q *EmitQueue[T]) Enqueue(items ...T) {
	if q.emit == nil || len(items) == 0 || q.stopped.Load() {
		return
	}
	q.mu.Lock()
	q.queue = append(q.queue, items...)
	q.mu.Unlock()
}

// Drain delivers queued items in order, exactly one goroutine at a
// time, with no owner lock held.
func (q *EmitQueue[T]) Drain() {
	if q.emit == nil {
		return
	}
	for {
		q.mu.Lock()
		if q.draining || len(q.queue) == 0 {
			q.mu.Unlock()
			return
		}
		q.draining = true
		batch := q.queue
		q.queue = nil
		q.mu.Unlock()

		for _, item := range batch {
			if q.stopped.Load() {
				break
			}
			if !q.emit(item) {
				q.stopped.Store(true)
			}
		}

		q.mu.Lock()
		q.draining = false
		if len(q.queue) == 0 {
			// Reclaim the delivered batch's backing array so
			// steady-state emission (one small queue per operation)
			// allocates nothing.
			q.queue = ReuseScratch(batch)
		}
		q.mu.Unlock()
	}
}

// maxKeptScratch is the largest backing array, in items, that a
// per-operation buffer keeps from one operation to the next.
const maxKeptScratch = 4096

// ReuseScratch empties a per-operation buffer of the online engines for
// the next operation. It keeps the backing array, so steady-state
// operations allocate nothing, unless one large AddBatch grew it past
// maxKeptScratch items: that array is dropped rather than pinned for
// the engine's lifetime.
func ReuseScratch[T any](s []T) []T {
	if cap(s) > maxKeptScratch {
		return nil
	}
	return s[:0]
}

// Stopped reports that the callback ended delivery.
func (q *EmitQueue[T]) Stopped() bool { return q.stopped.Load() }
