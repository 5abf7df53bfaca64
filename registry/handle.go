package registry

import (
	"context"
	"iter"
	"sync/atomic"

	surf "surf"
)

// Handle is a pinned view of one entry's engine set, returned by
// Acquire. The pinned set is immutable: a hot swap or eviction
// concurrent with the handle's queries installs a new set without
// touching this one. Appends and drift retrains swap snapshots inside
// the pinned engine, so each query sees one consistent model and data
// version.
//
// Callers must Release the handle when the request completes (after a
// returned Stream is drained or closed); until then the entry counts
// as busy and is never evicted.
type Handle struct {
	r        *Registry
	e        *entry
	set      *engineSet
	released atomic.Bool
}

// Release unpins the engine set, making the entry evictable again once
// its in-flight count drains. Idempotent.
func (h *Handle) Release() {
	if h.released.CompareAndSwap(false, true) {
		h.r.release(h.e)
	}
}

// Version reports the entry version the handle pinned.
func (h *Handle) Version() int { return h.set.version }

// Engine returns the pinned engine; every query through the handle
// runs on it.
func (h *Handle) Engine() *surf.Engine { return h.set.engine }

// DataVersion reports the dataset version the pinned engine serves.
func (h *Handle) DataVersion() uint64 { return h.set.engine.DataVersion() }

// DriftScore returns the pinned set's last drift score; ok is false
// when the entry does not monitor drift or no check has run yet.
func (h *Handle) DriftScore() (score float64, ok bool) {
	d := h.set.drift
	if d == nil || !d.checked.Load() {
		return 0, false
	}
	return d.score(), true
}

// Store returns the pinned entry's living store (never nil for a
// loaded entry); admin layers use it for direct inspection.
func (h *Handle) Store() *surf.Store { return h.set.store }

// Find is Engine.FindContext on the pinned engine.
func (h *Handle) Find(ctx context.Context, q surf.Query) (*surf.Result, error) {
	return h.set.engine.FindContext(ctx, q)
}

// FindTopK is Engine.FindTopKContext on the pinned engine.
func (h *Handle) FindTopK(ctx context.Context, q surf.TopKQuery) (*surf.Result, error) {
	return h.set.engine.FindTopKContext(ctx, q)
}

// FindMany is Engine.FindMany on the pinned engine.
func (h *Handle) FindMany(ctx context.Context, queries []surf.Query) iter.Seq[surf.MultiResult] {
	return h.set.engine.FindMany(ctx, queries)
}

// Stream is Engine.Stream on the pinned engine.
func (h *Handle) Stream(ctx context.Context, q surf.Query) (*surf.Stream, error) {
	return h.set.engine.Stream(ctx, q)
}

// StreamTopK is Engine.StreamTopK on the pinned engine.
func (h *Handle) StreamTopK(ctx context.Context, q surf.TopKQuery) (*surf.Stream, error) {
	return h.set.engine.StreamTopK(ctx, q)
}
