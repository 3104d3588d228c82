package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (function name, shard
// id, cycle count, …). A small slice beats a map here: spans carry a
// handful of attrs and are built on the request path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a request's journey through the
// pipeline: enqueue → coalesce → setup → transfer-in → kernel →
// transfer-out → drain. It carries both the host wall-clock interval
// and the modeled simulator seconds of the stage (the paper's cycle /
// bandwidth model), because on a cost simulator those deliberately
// disagree and the ratio is itself diagnostic.
type Span struct {
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Modeled float64   `json:"modeled_seconds,omitempty"`
	Err     string    `json:"err,omitempty"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Shard   int       `json:"shard"`
	// Proc names the process lane the span (and, unless overridden,
	// its subtree) belongs to — "cluster", "replica/2" — so one
	// propagated trace renders each replica's pipeline as its own
	// process row in the Chrome export. Empty spans inherit the
	// nearest ancestor's Proc.
	Proc  string  `json:"proc,omitempty"`
	Child []*Span `json:"children,omitempty"`
}

// Wall returns the span's wall-clock duration.
func (s *Span) Wall() time.Duration { return s.End.Sub(s.Start) }

// SetAttr appends an annotation.
func (s *Span) SetAttr(key, value string) {
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// AddChild appends a child span and returns it.
func (s *Span) AddChild(c *Span) *Span {
	s.Child = append(s.Child, c)
	return c
}

// Trace is one request's completed span tree.
type Trace struct {
	ID   uint64 `json:"id"`
	Root *Span  `json:"root"`
}

// Record is one completed request as the tracer retains it: the plain
// fields the request path stamped (timestamps, counts, modeled
// seconds, errors), from which Materialize builds the span tree when a
// reader asks for it. A record is immutable once pushed; Materialize
// may run any number of times, from concurrent readers.
type Record interface {
	Materialize() *Trace
}

// Materialize returns the trace itself: a built tree is its own
// record.
func (t *Trace) Materialize() *Trace { return t }

// Tracer retains the last N completed requests in a ring buffer.
// Push stores a record under the lock once per completed request (not
// per element or per stage) and formats nothing; readers copy the
// record references under the lock and build the span trees after
// releasing it, so a scrape never stalls the request path.
type Tracer struct {
	mu   sync.Mutex
	ring []Record
	next int
	n    int // records stored (≤ len(ring))

	ids atomic.Uint64
}

// NewTracer retains up to depth completed traces (depth ≤ 0 is
// clamped to 1).
func NewTracer(depth int) *Tracer {
	if depth <= 0 {
		depth = 1
	}
	return &Tracer{ring: make([]Record, depth)}
}

// NextID allocates a trace id.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Push records a completed request, evicting the oldest when full.
func (t *Tracer) Push(r Record) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = r
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Last returns the span tree of the most recently completed request,
// or false when none has completed yet.
func (t *Tracer) Last() (*Trace, bool) {
	trs := t.Newest(1)
	if len(trs) == 0 {
		return nil, false
	}
	return trs[0], true
}

// Traces returns the span trees of the retained requests, oldest
// first.
func (t *Tracer) Traces() []*Trace { return t.Newest(-1) }

// Newest builds the span trees of the n most recent records, oldest
// first; n < 0 means every retained record. Only the n trees served
// are built.
func (t *Tracer) Newest(n int) []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if n < 0 || n > t.n {
		n = t.n
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = t.ring[(t.next-n+i+len(t.ring))%len(t.ring)]
	}
	t.mu.Unlock()
	out := make([]*Trace, n)
	for i, r := range recs {
		out[i] = r.Materialize()
	}
	return out
}

// WriteJSON renders the retained traces (oldest first) as one
// indented JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Traces())
}
