// Package stream turns a raw dataplane event stream into bounded,
// coalesced work batches — the backpressure layer between
// faultlog.EventLog (which never blocks a producer) and an analysis
// session (whose per-switch refresh is the expensive unit of work).
//
// The queue exploits the one property that makes event-driven refresh
// safe to coalesce: an event names a switch, not a state. Consumers
// re-read the switch's *current* state, so a burst of K events on one
// switch needs exactly one refresh, and the refresh is correct no matter
// which of the K events triggered it. The queue therefore keeps at most
// one pending entry per switch (newest event wins), cuts batches by size,
// and under an event storm degrades to coalescing — never to dropping a
// switch, which would silently stale a report. Only the benchmark's
// event-storm journey feeds it: cmd/scout -watch runs a round after each
// fault that removed rules.
package stream

import (
	"sort"
	"sync"
	"time"

	"scout/internal/faultlog"
	"scout/internal/object"
)

// DefaultCap is the queue capacity used when Options.Cap is zero.
const DefaultCap = 1024

// Options configures a Queue.
type Options struct {
	// Cap bounds the distinct switches buffered before the queue asks
	// for an immediate cut (overflow). Overflow never drops a switch —
	// losing a dirty mark would stale reports — it signals the consumer
	// to drain now. <= 0 selects DefaultCap.
	Cap int
	// BatchSize cuts a batch once this many distinct switches are
	// pending. <= 0 selects Cap (batches bounded only by capacity).
	BatchSize int
}

// Stats counts the queue's coalescing behaviour, the assertion surface
// for the storm experiment: Pushed - Coalesced distinct switch marks
// ever became batch members, so re-check work is bounded by batches, not
// by raw event volume.
type Stats struct {
	// Pushed counts events offered to the queue.
	Pushed int
	// Coalesced counts pushed events merged into an already-pending
	// switch entry instead of growing the queue.
	Coalesced int
	// Stale counts pushed events that arrived out of order (sequence
	// number at or below the newest already seen). Stale events still
	// mark their switch — a refresh of an already-current switch is
	// wasted work, never a wrong report.
	Stale int
	// Overflows counts pushes that found the queue at capacity with a
	// new switch; the switch is admitted and the push reports due.
	Overflows int
	// Batches counts batches cut; BatchedSwitches sums their sizes and
	// MaxBatch tracks the largest.
	Batches         int
	BatchedSwitches int
	MaxBatch        int
}

// Queue is a coalescing event queue, safe for concurrent use.
type Queue struct {
	mu        sync.Mutex
	cap       int
	batchSize int

	// pending holds the newest event per marked switch; order remembers
	// first-arrival order so size-limited cuts drain the longest-waiting
	// switches first (FIFO fairness under a storm).
	pending map[object.ID]faultlog.Event
	order   []object.ID
	// lastSeq is the highest sequence number ever pushed, the
	// out-of-order detector.
	lastSeq int

	stats Stats
}

// New creates a queue with the given options.
func New(opts Options) *Queue {
	if opts.Cap <= 0 {
		opts.Cap = DefaultCap
	}
	if opts.BatchSize <= 0 || opts.BatchSize > opts.Cap {
		opts.BatchSize = opts.Cap
	}
	return &Queue{
		cap:       opts.Cap,
		batchSize: opts.BatchSize,
		pending:   make(map[object.ID]faultlog.Event),
	}
}

// Push offers an event to the queue and reports whether a batch is due
// (pending switches reached BatchSize, or capacity overflowed). Events
// for an already-pending switch coalesce: the entry keeps the newer
// sequence number and the queue does not grow.
func (q *Queue) Push(ev faultlog.Event) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stats.Pushed++
	if ev.Seq <= q.lastSeq {
		q.stats.Stale++
	} else {
		q.lastSeq = ev.Seq
	}
	if prev, ok := q.pending[ev.Switch]; ok {
		q.stats.Coalesced++
		if ev.Seq > prev.Seq {
			q.pending[ev.Switch] = ev
		}
		return len(q.pending) >= q.batchSize
	}
	if len(q.pending) >= q.cap {
		q.stats.Overflows++
	}
	q.pending[ev.Switch] = ev
	q.order = append(q.order, ev.Switch)
	return len(q.pending) >= q.batchSize
}

// Cut drains up to BatchSize pending switches — longest-waiting first —
// into a batch stamped with the cut time. Cutting an empty queue returns
// an empty batch and counts none.
func (q *Queue) Cut(now time.Time) Batch {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.order)
	if n == 0 {
		return Batch{CutAt: now}
	}
	if n > q.batchSize {
		n = q.batchSize
	}
	b := Batch{
		Switches: make([]object.ID, n),
		Events:   make([]faultlog.Event, n),
		CutAt:    now,
	}
	copy(b.Switches, q.order[:n])
	sort.Slice(b.Switches, func(i, j int) bool { return b.Switches[i] < b.Switches[j] })
	for i, sw := range b.Switches {
		ev := q.pending[sw]
		b.Events[i] = ev
		if ev.Seq > b.MaxSeq {
			b.MaxSeq = ev.Seq
		}
		delete(q.pending, sw)
	}
	q.order = append(q.order[:0], q.order[n:]...)
	q.stats.Batches++
	q.stats.BatchedSwitches += len(b.Switches)
	if len(b.Switches) > q.stats.MaxBatch {
		q.stats.MaxBatch = len(b.Switches)
	}
	return b
}

// Stats returns the queue's cumulative counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Batch is one coalesced unit of refresh work: the distinct switches to
// re-read (ascending, the pipeline's canonical order) with the newest
// event that marked each.
type Batch struct {
	// Switches are the batch members, ascending; Events is aligned with
	// it, holding each member's newest coalesced event.
	Switches []object.ID
	Events   []faultlog.Event
	// MaxSeq is the highest event sequence number in the batch.
	MaxSeq int
	// CutAt is when the batch was cut.
	CutAt time.Time
}
