package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing. A trace is a tree of spans sharing one monotonically
// assigned trace ID (rendered as 16 hex digits, e.g. "000000000000002a");
// span IDs are monotonic within the process. StartSpan reads the parent
// span from the context, so a trace crosses goroutine and subsystem
// boundaries wherever the context is propagated: HTTP handler → admission
// gate → decoder session, or train epoch → minibatch → worker chunk. Completed traces land in a bounded ring served at
// /debug/traces.

// maxSpansPerTrace bounds one trace's span list; further spans are
// counted, not stored, so a pathological epoch cannot hold the heap.
const maxSpansPerTrace = 512

// defaultTraceRing is how many completed traces the ring retains.
const defaultTraceRing = 128

// maxEvictedIDs bounds the tracer's memory of trace IDs that have rotated
// out of the ring. It exists so an exemplar link on /metrics that
// outlives the ring fails legibly (410 Gone, "evicted") instead of
// indistinguishably from an ID that never existed (404).
const maxEvictedIDs = 1024

// Tracer assigns IDs and retains completed traces.
type Tracer struct {
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	mu     sync.Mutex
	ring   []*TraceRecord // newest last
	ringSz int
	// evicted remembers IDs pushed out of the ring (bounded FIFO): the
	// set answers "did this trace exist?", evictedOrder ages it out.
	evicted      map[string]struct{}
	evictedOrder []string
}

// NewTracer creates a tracer retaining up to ringSize completed traces
// (<= 0 uses the default of 128).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = defaultTraceRing
	}
	return &Tracer{ringSz: ringSize}
}

var (
	defTracerOnce sync.Once
	defTracer     *Tracer
)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer {
	defTracerOnce.Do(func() { defTracer = NewTracer(defaultTraceRing) })
	return defTracer
}

// SpanRecord is one completed span.
type SpanRecord struct {
	SpanID   uint64            `json:"span_id"`
	ParentID uint64            `json:"parent_id,omitempty"` // 0 for the root
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceRecord is one completed trace: the root span plus every descendant
// that ended before the trace was finalized.
type TraceRecord struct {
	TraceID string       `json:"trace_id"`
	Root    string       `json:"root"`
	Start   time.Time    `json:"start"`
	DurUS   int64        `json:"dur_us"`
	Spans   []SpanRecord `json:"spans"`
	Dropped int          `json:"dropped_spans,omitempty"`
}

// activeTrace collects spans while the trace is open.
type activeTrace struct {
	tracer  *Tracer
	traceID string
	// remoteID, when set on a sentinel (traceID empty), makes the next
	// StartSpan root its trace under this externally assigned ID instead
	// of allocating a fresh one — the receiving half of X-Trace-Id
	// propagation across a process hop.
	remoteID string

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	done    bool
}

// Span is one in-flight operation. End() must be called exactly once;
// ending the root span finalizes the trace into the tracer's ring.
type Span struct {
	at     *activeTrace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	root   bool

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

type ctxKey struct{}

// WithTracer returns a context whose future root spans are assigned by tr
// instead of the default tracer.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, ctxKey{}, &Span{at: &activeTrace{tracer: tr}})
}

// WithRemoteTraceID returns a context whose next StartSpan roots a span
// that joins the remote trace traceID (as carried by an X-Trace-Id header)
// instead of allocating a fresh ID. The resulting trace record lands in
// tr's ring under the remote ID, so the upstream hop's record and this
// process's record share one trace ID and /debug/traces?id= merges them
// into a single span tree. A nil tr uses the default tracer; an invalid
// traceID (see ValidTraceID) falls back to plain WithTracer semantics.
func WithRemoteTraceID(ctx context.Context, tr *Tracer, traceID string) context.Context {
	if tr == nil {
		tr = DefaultTracer()
	}
	if !ValidTraceID(traceID) {
		traceID = ""
	}
	return context.WithValue(ctx, ctxKey{}, &Span{at: &activeTrace{tracer: tr, remoteID: traceID}})
}

// ValidTraceID reports whether s is acceptable as a propagated trace ID:
// 1-32 hex digits, the shape this package generates. Anything else is
// rejected so a hostile header cannot inject arbitrary strings into the
// trace ring or logs.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// StartSpan opens a span named name. If ctx already carries a span, the
// new span joins that trace as a child; otherwise a fresh trace is rooted
// here (on the context's tracer if WithTracer was used, else the default
// tracer). The returned context carries the new span for further nesting.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	var at *activeTrace
	var parentID uint64
	root := false
	if parent != nil && parent.at.traceID != "" {
		at = parent.at
		parentID = parent.id
	} else {
		tr := DefaultTracer()
		remote := ""
		if parent != nil && parent.at.tracer != nil {
			tr = parent.at.tracer // WithTracer sentinel: tracer set, no trace yet
			remote = parent.at.remoteID
		}
		id := remote
		if id == "" {
			id = fmt.Sprintf("%016x", tr.nextTrace.Add(1))
		}
		at = &activeTrace{tracer: tr, traceID: id}
		root = true
	}
	sp := &Span{
		at:     at,
		id:     at.tracer.nextSpan.Add(1),
		parent: parentID,
		name:   name,
		start:  time.Now(),
		root:   root,
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// TraceID returns the span's trace ID.
func (s *Span) TraceID() string { return s.at.traceID }

// SetAttr attaches a key=value annotation to the span.
func (s *Span) SetAttr(k, v string) {
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
	s.mu.Unlock()
}

// End completes the span, recording it into its trace. Ending the root
// span finalizes the trace into the tracer's ring; spans that end after
// their root are discarded (the record is already published), and spans
// beyond the per-trace cap are counted in Dropped. End is idempotent.
func (s *Span) End() {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	rec := SpanRecord{
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		DurUS:    time.Since(s.start).Microseconds(),
		Attrs:    attrs,
	}
	at := s.at
	at.mu.Lock()
	if at.done {
		at.mu.Unlock()
		return
	}
	if len(at.spans) >= maxSpansPerTrace {
		at.dropped++
	} else {
		at.spans = append(at.spans, rec)
	}
	if s.root && !at.done {
		at.done = true
		tr := &TraceRecord{
			TraceID: at.traceID,
			Root:    s.name,
			Start:   s.start,
			DurUS:   rec.DurUS,
			Spans:   at.spans,
			Dropped: at.dropped,
		}
		sort.Slice(tr.Spans, func(i, j int) bool { return tr.Spans[i].SpanID < tr.Spans[j].SpanID })
		at.mu.Unlock()
		at.tracer.push(tr)
		return
	}
	at.mu.Unlock()
}

// TraceIDFrom returns the trace ID carried by ctx, or "" when the context
// is untraced.
func TraceIDFrom(ctx context.Context) string {
	if sp, _ := ctx.Value(ctxKey{}).(*Span); sp != nil {
		return sp.at.traceID
	}
	return ""
}

func (t *Tracer) push(rec *TraceRecord) {
	t.mu.Lock()
	t.ring = append(t.ring, rec)
	if over := len(t.ring) - t.ringSz; over > 0 {
		for _, dropped := range t.ring[:over] {
			t.rememberEvictedLocked(dropped.TraceID)
		}
		t.ring = append(t.ring[:0], t.ring[over:]...)
	}
	t.mu.Unlock()
}

// rememberEvictedLocked records a ring-evicted trace ID in the bounded
// FIFO memory; the caller holds t.mu.
func (t *Tracer) rememberEvictedLocked(id string) {
	if t.evicted == nil {
		t.evicted = make(map[string]struct{}, maxEvictedIDs)
	}
	if _, dup := t.evicted[id]; dup {
		return
	}
	t.evicted[id] = struct{}{}
	t.evictedOrder = append(t.evictedOrder, id)
	if over := len(t.evictedOrder) - maxEvictedIDs; over > 0 {
		for _, old := range t.evictedOrder[:over] {
			delete(t.evicted, old)
		}
		t.evictedOrder = append(t.evictedOrder[:0], t.evictedOrder[over:]...)
	}
}

// Evicted reports whether traceID once lived in the ring but has been
// pushed out (within the bounded eviction memory). A cross-hop trace
// counts as evicted only for its dropped records; while any record under
// the ID survives, Lookup still succeeds and callers never reach for
// this.
func (t *Tracer) Evicted(traceID string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.evicted[traceID]
	return ok
}

// Recent returns up to n completed traces, newest first (n <= 0: all).
func (t *Tracer) Recent(n int) []*TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]*TraceRecord, 0, n)
	for i := len(t.ring) - 1; i >= len(t.ring)-n; i-- {
		out = append(out, t.ring[i])
	}
	return out
}

// Lookup returns the completed trace with the given ID, or nil. When the
// ring holds several records under one ID (a trace that crossed a process
// hop: the router's record and the replica's record share the propagated
// ID), the newest is returned; LookupMerged assembles the full path.
func (t *Tracer) Lookup(traceID string) *TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].TraceID == traceID {
			return t.ring[i]
		}
	}
	return nil
}

// LookupAll returns every completed record sharing traceID, oldest first.
// A trace that crossed the router→replica hop produces one record per
// participating server (each root span finalizes its own record under the
// shared ID).
func (t *Tracer) LookupAll(traceID string) []*TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*TraceRecord
	for _, rec := range t.ring {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

// LookupMerged returns the trace with the given ID as a single record,
// merging the per-hop records of a cross-process trace: spans from every
// record are concatenated in start order, the root is the earliest hop's
// root, and the duration spans the earliest start to the latest span end.
// Returns nil when the ID is unknown.
func (t *Tracer) LookupMerged(traceID string) *TraceRecord {
	recs := t.LookupAll(traceID)
	switch len(recs) {
	case 0:
		return nil
	case 1:
		return recs[0]
	}
	merged := &TraceRecord{TraceID: traceID, Root: recs[0].Root, Start: recs[0].Start}
	var latest time.Time
	for _, rec := range recs {
		if rec.Start.Before(merged.Start) {
			merged.Start = rec.Start
			merged.Root = rec.Root
		}
		merged.Dropped += rec.Dropped
		merged.Spans = append(merged.Spans, rec.Spans...)
		for _, sp := range rec.Spans {
			if end := sp.Start.Add(time.Duration(sp.DurUS) * time.Microsecond); end.After(latest) {
				latest = end
			}
		}
	}
	sort.Slice(merged.Spans, func(i, j int) bool {
		if !merged.Spans[i].Start.Equal(merged.Spans[j].Start) {
			return merged.Spans[i].Start.Before(merged.Spans[j].Start)
		}
		return merged.Spans[i].SpanID < merged.Spans[j].SpanID
	})
	merged.DurUS = latest.Sub(merged.Start).Microseconds()
	return merged
}

// traceSummary is the list form served without ?id.
type traceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	DurUS   int64     `json:"dur_us"`
	Spans   int       `json:"spans"`
}

// Handler serves recent traces as JSON: GET /debug/traces lists
// summaries (newest first), GET /debug/traces?id=<trace_id> returns one
// full span tree.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			rec := t.LookupMerged(id)
			if rec == nil {
				// Distinguish "never existed" (404) from "existed but
				// rotated out of the bounded ring" (410): exemplar links
				// on /metrics outlive the ring routinely, and the hint
				// tells the operator it was retention, not a bad ID.
				if t.Evicted(id) {
					w.WriteHeader(http.StatusGone)
					json.NewEncoder(w).Encode(map[string]string{
						"error":    "trace evicted from the ring",
						"trace_id": id,
						"hint":     "the bounded trace ring already rotated this trace out; scrape /debug/traces sooner or enlarge the ring (obs.NewTracer size)",
					})
					return
				}
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{"error": "trace not found", "trace_id": id})
				return
			}
			json.NewEncoder(w).Encode(rec)
			return
		}
		recs := t.Recent(0)
		sums := make([]traceSummary, 0, len(recs))
		for _, rec := range recs {
			sums = append(sums, traceSummary{
				TraceID: rec.TraceID, Root: rec.Root, Start: rec.Start,
				DurUS: rec.DurUS, Spans: len(rec.Spans),
			})
		}
		json.NewEncoder(w).Encode(sums)
	})
}
