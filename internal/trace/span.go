// Request-scoped span plane, layered under the task-lifecycle ring.
//
// Where the Recorder answers "what happened to task 17", the SpanPlane
// answers "where did request X spend its time": every API request checks
// out a span tree (root span + children for decode, idempotency lookup,
// queue-lock wait, core op, WAL append/fsync wait, quality update,
// response encode), identified by W3C traceparent-style IDs so one
// logical client call — including its retries — shares a single trace ID
// across processes.
//
// The plane follows the same discipline as the trace ring: span trees are
// freelist-recycled, so the steady state allocates nothing;
// retention is tail-based — a bounded ring keeps every tree whose root
// errored or exceeded a latency threshold, plus a deterministic 1-in-N
// sample of the rest — and the retained set is served at
// GET /v1/debug/spans on the admin listener.
//
// Handles are stale-safe: a Handle captures the tree's generation at
// checkout, and every mutation revalidates it under the tree's mutex, so
// a request abandoned by http.TimeoutHandler can never write into a
// recycled tree. All entry points are nil-safe; a disabled plane is a nil
// *SpanPlane and costs one pointer test per call site.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one logical operation end to end, across client
// retries and process boundaries. The zero value means "no trace".
type TraceID [16]byte

// SpanID identifies one span within a trace. The zero value means "no
// span" (a root with no remote parent).
type SpanID [8]byte

// IsZero reports whether t is the absent trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether s is the absent span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-digit lowercase hex form, or "" for the zero ID.
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return hex.EncodeToString(t[:])
}

// String returns the 16-digit lowercase hex form, or "" for the zero ID.
func (s SpanID) String() string {
	if s.IsZero() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// MarshalJSON renders the ID as a hex string, "" when zero.
func (t TraceID) MarshalJSON() ([]byte, error) {
	if t.IsZero() {
		return []byte(`""`), nil
	}
	b := make([]byte, 34)
	b[0], b[33] = '"', '"'
	hex.Encode(b[1:33], t[:])
	return b, nil
}

// UnmarshalJSON accepts "" or 32 hex digits.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	if len(b) == 2 && b[0] == '"' && b[1] == '"' {
		*t = TraceID{}
		return nil
	}
	if len(b) != 34 || b[0] != '"' || b[33] != '"' {
		return fmt.Errorf("trace: malformed trace id %q", b)
	}
	if !parseHex(t[:], string(b[1:33])) {
		return fmt.Errorf("trace: malformed trace id %q", b)
	}
	return nil
}

// ParseTraceID parses a 32-hex-digit trace ID; ok is false on anything else.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 || !parseHex(t[:], s) {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// ID generation: a process-global splitmix64 stream seeded from
// crypto/rand. Two atomic adds per trace ID, one per span ID, and no
// allocation — uniqueness within a deployment is what propagation needs,
// not unpredictability.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	idState.Store(binary.LittleEndian.Uint64(seed[:]))
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	binary.LittleEndian.PutUint64(t[:8], nextID())
	binary.LittleEndian.PutUint64(t[8:], nextID())
	if t.IsZero() {
		t[0] = 1
	}
	return t
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.LittleEndian.PutUint64(s[:], nextID())
	if s.IsZero() {
		s[0] = 1
	}
	return s
}

// FormatTraceParent renders the W3C traceparent header value:
// version 00, 32 hex trace ID, 16 hex parent span ID, flags 01 (sampled).
func FormatTraceParent(t TraceID, s SpanID) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], t[:])
	b[35] = '-'
	hex.Encode(b[36:52], s[:])
	b[52] = '-'
	b[53], b[54] = '0', '1'
	return string(b[:])
}

// ParseTraceParent extracts the trace and parent span IDs from a
// traceparent header value. Unknown future versions are accepted per the
// W3C spec (the first four fields are fixed); all-zero IDs are rejected.
func ParseTraceParent(h string) (TraceID, SpanID, bool) {
	var t TraceID
	var s SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, false
	}
	var version [1]byte
	if !parseHex(version[:], h[0:2]) || version[0] == 0xff {
		return t, s, false
	}
	if !parseHex(t[:], h[3:35]) || !parseHex(s[:], h[36:52]) {
		return t, s, false
	}
	if t.IsZero() || s.IsZero() {
		return t, s, false
	}
	return t, s, true
}

// parseHex fills dst from exactly 2*len(dst) hex digits.
func parseHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// SpanData is one timed operation inside a span tree.
type SpanData struct {
	ID     SpanID
	Parent SpanID // zero on a root with no remote parent
	Op     string
	Start  time.Time
	Dur    time.Duration
	Attr   int64 // op-specific: locks taken, events in a group, byte count
	Err    string
}

// maxSpansPerTrace bounds one tree; spans past the cap are counted as
// dropped rather than grown, keeping tree memory fixed.
const maxSpansPerTrace = 32

// active is one checkout-able span tree. It cycles between the plane's
// freelist, an in-flight request, and the retained ring; gen increments
// at every checkout so stale Handles become no-ops instead of writing
// into a recycled tree.
type active struct {
	mu      sync.Mutex
	gen     uint64
	trace   TraceID
	spans   []SpanData // spans[0] is the root; backing array cap maxSpansPerTrace
	dropped int32
	done    bool
}

// SpanRef indexes a span within its tree. The root is always ref 0.
type SpanRef int32

// NoSpan is the invalid SpanRef; every Handle method accepts it and
// no-ops, so failed StartSpan results need no guard.
const NoSpan SpanRef = -1

// Handle is a by-value, generation-checked reference to an in-flight
// span tree. The zero Handle is invalid and every method on it no-ops —
// it is the untraced case: layers below the HTTP middleware take a Handle
// and run one straight-line body, never an untraced twin or a Valid()
// branch (Now and ObserveSince keep even the clock reads away). A Handle
// is safe to use from the goroutines serving one request; mutations are
// serialized by the tree's mutex.
type Handle struct {
	a   *active
	gen uint64
	// parent is the ref that NoSpan parents resolve to: 0 (the root) by
	// default, rebased by Under so a layer handed a Handle attaches its
	// spans beneath the caller's current span without a new parameter.
	parent SpanRef
}

// Valid reports whether the handle refers to a checked-out tree.
func (h Handle) Valid() bool { return h.a != nil }

// Root returns the root span's ref.
func (Handle) Root() SpanRef { return 0 }

// Under returns a handle whose default parent (what a NoSpan parent
// resolves to) is ref, so a callee recording spans through it nests them
// under the caller's span. An invalid ref leaves the default at the root.
func (h Handle) Under(ref SpanRef) Handle {
	if ref > 0 {
		h.parent = ref
	}
	return h
}

// Trace returns the tree's trace ID, zero on an invalid or stale handle.
func (h Handle) Trace() TraceID {
	if h.a == nil {
		return TraceID{}
	}
	h.a.mu.Lock()
	var t TraceID
	if h.a.gen == h.gen {
		t = h.a.trace
	}
	h.a.mu.Unlock()
	return t
}

// StartSpan opens a child span under parent and returns its ref; NoSpan
// selects the handle's default parent (the root unless rebased by Under).
// The tree-size cap makes this fail-soft: past maxSpansPerTrace the span
// is counted as dropped and NoSpan is returned.
func (h Handle) StartSpan(op string, parent SpanRef) SpanRef {
	if h.a == nil {
		return NoSpan
	}
	if parent < 0 {
		parent = h.parent
	}
	a := h.a
	a.mu.Lock()
	ref := a.addLocked(h.gen, op, parent, time.Now(), 0, 0)
	a.mu.Unlock()
	return ref
}

// EndSpan closes ref with the elapsed time since its start.
func (h Handle) EndSpan(ref SpanRef) { h.endSpan(ref, "") }

// FailSpan closes ref and marks it errored.
func (h Handle) FailSpan(ref SpanRef, msg string) { h.endSpan(ref, msg) }

func (h Handle) endSpan(ref SpanRef, errMsg string) {
	if h.a == nil || ref < 0 {
		return
	}
	a := h.a
	a.mu.Lock()
	if a.gen == h.gen && !a.done && int(ref) < len(a.spans) {
		sp := &a.spans[ref]
		if sp.Dur == 0 {
			sp.Dur = time.Since(sp.Start)
		}
		if errMsg != "" {
			sp.Err = errMsg
		}
	}
	a.mu.Unlock()
}

// Observe records an already-measured child span — the shape used when a
// duration was captured with local variables (lock waits, fsync waits)
// rather than a start/end pair. A NoSpan parent selects the handle's
// default parent.
func (h Handle) Observe(op string, parent SpanRef, start time.Time, d time.Duration, attr int64) {
	if h.a == nil {
		return
	}
	if parent < 0 {
		parent = h.parent
	}
	a := h.a
	a.mu.Lock()
	a.addLocked(h.gen, op, parent, start, d, attr)
	a.mu.Unlock()
}

// Now reads the clock for a duration the handle will record: the zero time
// on an invalid handle, so untraced callers time nothing and write the same
// straight-line code as traced ones (zero.Sub(zero) is a zero wait).
func (h Handle) Now() time.Time {
	if h.a == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince is Observe for a span that began at start (a Now reading)
// and ends at the call.
func (h Handle) ObserveSince(op string, parent SpanRef, start time.Time, attr int64) {
	if h.a != nil {
		h.Observe(op, parent, start, time.Since(start), attr)
	}
}

// addLocked appends a span; caller holds a.mu.
func (a *active) addLocked(gen uint64, op string, parent SpanRef, start time.Time, d time.Duration, attr int64) SpanRef {
	if a.gen != gen || a.done {
		return NoSpan
	}
	if len(a.spans) >= cap(a.spans) {
		a.dropped++
		return NoSpan
	}
	var pid SpanID
	if int(parent) >= 0 && int(parent) < len(a.spans) {
		pid = a.spans[parent].ID
	}
	ref := SpanRef(len(a.spans))
	a.spans = append(a.spans, SpanData{ID: NewSpanID(), Parent: pid, Op: op, Start: start, Dur: d, Attr: attr})
	return ref
}

// SpanConfig configures a SpanPlane.
type SpanConfig struct {
	// Enabled turns the plane on; when false NewSpanPlane returns nil and
	// every call site degrades to a pointer test.
	Enabled bool
	// SampleEvery retains a deterministic 1-in-N sample of fast, clean
	// trees (default 1024; negative disables sampling).
	SampleEvery int
}

// SpanPlane owns the freelist and the tail-sampled retention ring under
// one lock. All methods are nil-safe; a nil plane records nothing.
type SpanPlane struct {
	slow      time.Duration // a root at least this long is retained
	sample    uint64        // 0: sampling disabled
	started   atomic.Uint64
	retained  atomic.Uint64
	discarded atomic.Uint64

	mu   sync.Mutex
	free []*active
	ring []*active // retained trees, fixed capacity, oldest overwritten
	next int
}

// A plane's ring holds the newest retainedTrees retained trees; a tree whose
// root took slowRoot or longer is always retained.
const (
	retainedTrees = 512
	slowRoot      = 100 * time.Millisecond
)

// NewSpanPlane builds a plane from cfg, or returns nil when disabled.
func NewSpanPlane(cfg SpanConfig) *SpanPlane {
	if !cfg.Enabled {
		return nil
	}
	sample := uint64(0)
	switch {
	case cfg.SampleEvery == 0:
		sample = 1024
	case cfg.SampleEvery > 0:
		sample = uint64(cfg.SampleEvery)
	}
	return &SpanPlane{slow: slowRoot, sample: sample, ring: make([]*active, 0, retainedTrees)}
}

// putFreeLocked recycles a; the freelist holds at most twice the ring.
// Caller holds p.mu.
func (p *SpanPlane) putFreeLocked(a *active) {
	if len(p.free) < 2*cap(p.ring) {
		p.free = append(p.free, a)
	}
}

// StartTrace checks out a span tree for one request and opens its root
// span. A zero id generates a fresh one; parent is the remote caller's
// span ID (zero for locally originated roots). Nil-safe: a nil plane
// returns the invalid Handle.
func (p *SpanPlane) StartTrace(id TraceID, parent SpanID, op string) Handle {
	if p == nil {
		return Handle{}
	}
	if id.IsZero() {
		id = NewTraceID()
	}
	p.started.Add(1)
	p.mu.Lock()
	var a *active
	if n := len(p.free); n > 0 {
		a = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if a == nil {
		a = &active{spans: make([]SpanData, 0, maxSpansPerTrace)}
	}
	a.mu.Lock()
	a.gen++
	gen := a.gen
	a.trace = id
	a.done = false
	a.dropped = 0
	a.spans = a.spans[:0]
	a.spans = append(a.spans, SpanData{ID: NewSpanID(), Parent: parent, Op: op, Start: time.Now()})
	a.mu.Unlock()
	return Handle{a: a, gen: gen}
}

// Finish closes the root span and applies the tail-sampling decision:
// the tree is retained when the root errored, reached the slow
// threshold, or hit the deterministic 1-in-N sample; otherwise it is
// recycled to the freelist. errMsg marks the root errored when non-empty.
func (p *SpanPlane) Finish(h Handle, errMsg string) {
	if p == nil || h.a == nil {
		return
	}
	a := h.a
	a.mu.Lock()
	if a.gen != h.gen || a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	root := &a.spans[0]
	if root.Dur == 0 {
		root.Dur = time.Since(root.Start)
	}
	if errMsg != "" && root.Err == "" {
		// First error wins: a handler that already failed the root (the
		// panic-recovery path) keeps its more specific message.
		root.Err = errMsg
	}
	keep := root.Err != "" ||
		root.Dur >= p.slow ||
		p.sampleHit(a.trace)
	a.mu.Unlock()

	p.mu.Lock()
	if keep {
		p.retained.Add(1)
		if len(p.ring) < cap(p.ring) {
			p.ring = append(p.ring, a)
		} else {
			old := p.ring[p.next]
			p.ring[p.next] = a
			p.next++
			if p.next == cap(p.ring) {
				p.next = 0
			}
			p.putFreeLocked(old)
		}
	} else {
		p.discarded.Add(1)
		p.putFreeLocked(a)
	}
	p.mu.Unlock()
}

// sampleHit is the deterministic 1-in-N decision, keyed on trace ID bits
// so every process agrees about which traces are the sample.
func (p *SpanPlane) sampleHit(t TraceID) bool {
	if p.sample == 0 {
		return false
	}
	return binary.LittleEndian.Uint64(t[8:])%p.sample == 0
}

// Stats reports lifetime counters: trees started, trees retained by the
// sampler, trees recycled without retention.
func (p *SpanPlane) Stats() (started, retained, discarded uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.started.Load(), p.retained.Load(), p.discarded.Load()
}

// Retained returns the number of trees currently held in the ring.
func (p *SpanPlane) Retained() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ring)
}

// SpanView is the JSON shape of one span inside a retained tree.
type SpanView struct {
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"`
	Op       string `json:"op"`
	OffsetUs int64  `json:"offset_us"` // from root start
	DurUs    int64  `json:"duration_us"`
	Attr     int64  `json:"attr,omitempty"`
	Err      string `json:"error,omitempty"`
}

// TraceView is the JSON shape of one retained span tree.
type TraceView struct {
	TraceID string     `json:"trace_id"`
	RootOp  string     `json:"root_op"`
	Start   time.Time  `json:"start"`
	DurMs   float64    `json:"duration_ms"`
	Err     string     `json:"error,omitempty"`
	Dropped int32      `json:"dropped_spans,omitempty"`
	Spans   []SpanView `json:"spans"`
}

// SpanFilter selects retained trees from a Snapshot.
type SpanFilter struct {
	Trace      TraceID       // non-zero: only this trace
	Op         string        // non-empty: root op must match exactly
	MinDur     time.Duration // root duration at least this
	ErrorsOnly bool
	Limit      int // max trees returned, newest first; 0 means 100
}

// Snapshot copies the retained trees matching f out of the ring, newest
// root first.
func (p *SpanPlane) Snapshot(f SpanFilter) []TraceView {
	if p == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	var out []TraceView
	p.mu.Lock()
	for _, a := range p.ring {
		if tv, ok := a.view(f); ok {
			out = append(out, tv)
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// view copies the tree into its JSON shape when it matches f.
func (a *active) view(f SpanFilter) (TraceView, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.done || len(a.spans) == 0 {
		return TraceView{}, false
	}
	root := a.spans[0]
	if !f.Trace.IsZero() && a.trace != f.Trace {
		return TraceView{}, false
	}
	if f.Op != "" && root.Op != f.Op {
		return TraceView{}, false
	}
	if root.Dur < f.MinDur {
		return TraceView{}, false
	}
	if f.ErrorsOnly && root.Err == "" {
		return TraceView{}, false
	}
	tv := TraceView{
		TraceID: a.trace.String(),
		RootOp:  root.Op,
		Start:   root.Start,
		DurMs:   float64(root.Dur) / float64(time.Millisecond),
		Err:     root.Err,
		Dropped: a.dropped,
		Spans:   make([]SpanView, len(a.spans)),
	}
	for i, sp := range a.spans {
		tv.Spans[i] = SpanView{
			ID:       sp.ID.String(),
			Parent:   sp.Parent.String(),
			Op:       sp.Op,
			OffsetUs: sp.Start.Sub(root.Start).Microseconds(),
			DurUs:    sp.Dur.Microseconds(),
			Attr:     sp.Attr,
			Err:      sp.Err,
		}
	}
	return tv, true
}

// ContextKey is the context key a request's *Handle travels under. It is
// exported so a context that keeps the handle in a field of its own
// (dispatch's pooled per-request exchange) can answer Value for it without
// a context.WithValue layer per request.
type ContextKey struct{}

// NewContext returns ctx carrying h; an invalid handle returns ctx
// unchanged.
func NewContext(ctx context.Context, h Handle) context.Context {
	if !h.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ContextKey{}, &h)
}

// FromContext extracts the request's span handle, the invalid Handle
// when none is attached.
func FromContext(ctx context.Context) Handle {
	if h, _ := ctx.Value(ContextKey{}).(*Handle); h != nil {
		return *h
	}
	return Handle{}
}
