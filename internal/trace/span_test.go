package trace

import (
	"encoding/binary"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// spanID fills a trace ID so both the stripe byte (t[15]) and the sampling
// word (t[8:]) are pinned, making retention decisions deterministic.
func mkTrace(sampleWord uint64, stripe byte) TraceID {
	var t TraceID
	t[0] = 1 // never zero
	binary.LittleEndian.PutUint64(t[8:], sampleWord)
	t[15] = stripe
	return t
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr, sp := NewTraceID(), NewSpanID()
	h := FormatTraceParent(tr, sp)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent shape = %q", h)
	}
	gotT, gotS, ok := ParseTraceParent(h)
	if !ok || gotT != tr || gotS != sp {
		t.Fatalf("round trip = (%v, %v, %v), want (%v, %v, true)", gotT, gotS, ok, tr, sp)
	}
	// Unknown future versions are accepted; the fixed fields still parse.
	if _, _, ok := ParseTraceParent("cc" + h[2:]); !ok {
		t.Error("future version rejected")
	}

	bad := []string{
		"",
		"00-abc",
		h[:54],       // truncated
		"ff" + h[2:], // version ff is invalid per spec
		"0x" + h[2:], // non-hex version
		strings.Replace(h, "-", "_", 3),
		"00-" + strings.Repeat("0", 32) + h[35:], // zero trace ID
		h[:36] + strings.Repeat("0", 16) + "-01", // zero span ID
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted", s)
		}
	}
}

// TestParseDoesNotAllocate: a traceparent header and a trace ID query
// parameter are parsed in place, accepted or not.
func TestParseDoesNotAllocate(t *testing.T) {
	h := FormatTraceParent(NewTraceID(), NewSpanID())
	id := h[3:35]
	bad := h[:3] + "g" + h[4:]
	if n := testing.AllocsPerRun(100, func() {
		ParseTraceParent(h)
		ParseTraceParent(bad)
	}); n != 0 {
		t.Errorf("ParseTraceParent: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ParseTraceID(id)
		ParseTraceID(bad[3:35])
	}); n != 0 {
		t.Errorf("ParseTraceID: %v allocations, want 0", n)
	}
}

func TestTraceIDJSON(t *testing.T) {
	tr := NewTraceID()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `"`+tr.String()+`"` {
		t.Fatalf("marshal = %s", raw)
	}
	var back TraceID
	if err := json.Unmarshal(raw, &back); err != nil || back != tr {
		t.Fatalf("unmarshal = %v, %v", back, err)
	}
	var zero TraceID
	if raw, _ := json.Marshal(zero); string(raw) != `""` {
		t.Fatalf("zero marshal = %s", raw)
	}
	if err := json.Unmarshal([]byte(`""`), &back); err != nil || !back.IsZero() {
		t.Fatalf("empty unmarshal = %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`"xyz"`), &back); err == nil {
		t.Error("malformed trace ID accepted")
	}
}

// testPlane is a plane with the sample, ring size and slow threshold that
// production fixes set to what a test needs, so one retention rule shows at
// a time. A threshold of an hour keeps a fast clean tree out of the ring
// however loaded the machine is.
func testPlane(sampleEvery, ring int, slow time.Duration) *SpanPlane {
	p := NewSpanPlane(SpanConfig{Enabled: true, SampleEvery: sampleEvery})
	p.slow, p.ring = slow, make([]*active, 0, ring)
	return p
}

// errorsOnlyPlane retains errored trees only.
func errorsOnlyPlane() *SpanPlane { return testPlane(-1, retainedTrees, time.Hour) }

func TestTailSamplingErrorsRetained(t *testing.T) {
	// Slow retention and sampling both disabled: only errors survive.
	p := errorsOnlyPlane()

	h := p.StartTrace(mkTrace(1, 0), SpanID{}, "op.fail")
	p.Finish(h, "boom")
	h = p.StartTrace(mkTrace(2, 0), SpanID{}, "op.clean")
	p.Finish(h, "")

	started, retained, discarded := p.Stats()
	if started != 2 || retained != 1 || discarded != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/1", started, retained, discarded)
	}
	views := p.Snapshot(SpanFilter{ErrorsOnly: true})
	if len(views) != 1 || views[0].RootOp != "op.fail" || views[0].Err != "boom" {
		t.Fatalf("snapshot = %+v", views)
	}
}

func TestTailSamplingSlowRetained(t *testing.T) {
	p := testPlane(-1, retainedTrees, time.Microsecond)
	h := p.StartTrace(mkTrace(1, 0), SpanID{}, "op.slow")
	time.Sleep(2 * time.Millisecond)
	p.Finish(h, "")
	if _, retained, _ := p.Stats(); retained != 1 {
		t.Fatalf("slow tree not retained")
	}
}

func TestTailSamplingDeterministic1InN(t *testing.T) {
	p := testPlane(4, retainedTrees, time.Hour)
	// Sample word divisible by 4: kept. Not divisible: recycled.
	p.Finish(p.StartTrace(mkTrace(8, 0), SpanID{}, "hit"), "")
	p.Finish(p.StartTrace(mkTrace(5, 0), SpanID{}, "miss"), "")
	_, retained, discarded := p.Stats()
	if retained != 1 || discarded != 1 {
		t.Fatalf("retained/discarded = %d/%d, want 1/1", retained, discarded)
	}
	if views := p.Snapshot(SpanFilter{}); len(views) != 1 || views[0].RootOp != "hit" {
		t.Fatalf("snapshot = %+v", views)
	}
}

func TestRetentionRingBounded(t *testing.T) {
	// A one-slot ring: three errored trees must leave
	// exactly one retained tree — the newest.
	p := testPlane(-1, 1, time.Hour)
	for i := uint64(1); i <= 3; i++ {
		h := p.StartTrace(mkTrace(i, 7), SpanID{}, "op")
		p.Finish(h, "err")
	}
	if got := p.Retained(); got != 1 {
		t.Fatalf("ring holds %d trees, want 1", got)
	}
	views := p.Snapshot(SpanFilter{})
	if len(views) != 1 || views[0].TraceID != mkTrace(3, 7).String() {
		t.Fatalf("survivor = %+v, want the newest tree", views)
	}
	if _, retained, _ := p.Stats(); retained != 3 {
		t.Errorf("lifetime retained = %d, want 3", retained)
	}
}

func TestFreelistRecyclesTrees(t *testing.T) {
	p := errorsOnlyPlane()
	h1 := p.StartTrace(mkTrace(1, 3), SpanID{}, "first")
	a1 := h1.a
	p.Finish(h1, "") // discarded -> freelist
	h2 := p.StartTrace(mkTrace(2, 3), SpanID{}, "second")
	if h2.a != a1 {
		t.Fatal("discarded tree not recycled from the freelist")
	}
	if h2.gen == h1.gen {
		t.Fatal("recycled tree kept its generation")
	}
}

func TestStaleHandleCannotTouchRecycledTree(t *testing.T) {
	p := errorsOnlyPlane()
	h1 := p.StartTrace(mkTrace(1, 3), SpanID{}, "first")
	p.Finish(h1, "")
	h2 := p.StartTrace(mkTrace(2, 3), SpanID{}, "second")

	// The abandoned handle (think http.TimeoutHandler) keeps writing.
	if ref := h1.StartSpan("late", NoSpan); ref != NoSpan {
		t.Fatalf("stale StartSpan returned live ref %d", ref)
	}
	h1.Observe("late", NoSpan, time.Now(), time.Second, 0)
	h1.FailSpan(h1.Root(), "late error")
	if got := h1.Trace(); !got.IsZero() {
		t.Errorf("stale Trace() = %v, want zero", got)
	}

	p.Finish(h2, "keep")
	views := p.Snapshot(SpanFilter{})
	if len(views) != 1 || len(views[0].Spans) != 1 || views[0].Spans[0].Op != "second" {
		t.Fatalf("stale handle corrupted the recycled tree: %+v", views)
	}
	if views[0].Err != "keep" {
		t.Errorf("root err = %q, want %q", views[0].Err, "keep")
	}
}

func TestUnderRebasesDefaultParent(t *testing.T) {
	p := errorsOnlyPlane()
	h := p.StartTrace(TraceID{}, SpanID{}, "root")
	child := h.StartSpan("core.op", NoSpan)
	// A layer handed the rebased handle attaches its spans under core.op
	// without knowing the ref.
	h.Under(child).Observe("wal.append", NoSpan, time.Now(), time.Millisecond, 0)
	h.EndSpan(child)
	p.Finish(h, "force-keep")

	views := p.Snapshot(SpanFilter{})
	if len(views) != 1 {
		t.Fatalf("want 1 view, got %d", len(views))
	}
	spans := views[0].Spans
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", spans)
	}
	if spans[1].Op != "core.op" || spans[1].Parent != spans[0].ID {
		t.Errorf("core.op parent = %q, want root %q", spans[1].Parent, spans[0].ID)
	}
	if spans[2].Op != "wal.append" || spans[2].Parent != spans[1].ID {
		t.Errorf("wal.append parent = %q, want core.op %q", spans[2].Parent, spans[1].ID)
	}
}

func TestObserveSinceRecordsElapsed(t *testing.T) {
	p := errorsOnlyPlane()
	h := p.StartTrace(TraceID{}, SpanID{}, "root")
	t0 := h.Now()
	if t0.IsZero() {
		t.Fatal("valid handle's Now is the zero time")
	}
	time.Sleep(2 * time.Millisecond)
	h.ObserveSince("http.decode", NoSpan, t0, 7)
	p.Finish(h, "force-keep")
	spans := p.Snapshot(SpanFilter{})[0].Spans
	if len(spans) != 2 || spans[1].Op != "http.decode" || spans[1].Attr != 7 || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].DurUs < 2000 {
		t.Errorf("observed %dus since a reading taken 2ms earlier", spans[1].DurUs)
	}
}

func TestSpanCapCountsDropped(t *testing.T) {
	p := errorsOnlyPlane()
	h := p.StartTrace(TraceID{}, SpanID{}, "root")
	for i := 0; i < maxSpansPerTrace+5; i++ {
		h.Observe("child", NoSpan, time.Now(), 0, 0)
	}
	p.Finish(h, "keep")
	views := p.Snapshot(SpanFilter{})
	if len(views) != 1 {
		t.Fatal("tree not retained")
	}
	if len(views[0].Spans) != maxSpansPerTrace {
		t.Errorf("spans = %d, want cap %d", len(views[0].Spans), maxSpansPerTrace)
	}
	if views[0].Dropped != 6 { // 5 over the cap + the root's slot taken
		t.Errorf("dropped = %d, want 6", views[0].Dropped)
	}
}

func TestSnapshotFilters(t *testing.T) {
	p := errorsOnlyPlane()
	idA, idB := mkTrace(1, 0), mkTrace(2, 1)
	p.Finish(p.StartTrace(idA, SpanID{}, "op.a"), "bad")
	p.Finish(p.StartTrace(idB, SpanID{}, "op.b"), "worse")

	if v := p.Snapshot(SpanFilter{Trace: idA}); len(v) != 1 || v[0].RootOp != "op.a" {
		t.Errorf("trace filter = %+v", v)
	}
	if v := p.Snapshot(SpanFilter{Op: "op.b"}); len(v) != 1 || v[0].RootOp != "op.b" {
		t.Errorf("op filter = %+v", v)
	}
	if v := p.Snapshot(SpanFilter{MinDur: time.Hour}); len(v) != 0 {
		t.Errorf("min-dur filter = %+v", v)
	}
	if v := p.Snapshot(SpanFilter{Limit: 1}); len(v) != 1 {
		t.Errorf("limit = %+v", v)
	}
}

func TestNilPlaneAndInvalidHandle(t *testing.T) {
	var p *SpanPlane
	h := p.StartTrace(NewTraceID(), SpanID{}, "op")
	if h.Valid() {
		t.Fatal("nil plane returned a valid handle")
	}
	// Every method must no-op without panicking.
	ref := h.StartSpan("x", NoSpan)
	h.EndSpan(ref)
	h.FailSpan(ref, "e")
	h.Observe("y", NoSpan, time.Now(), 0, 0)
	h.SetAttr(ref, 1)
	// The untraced case never reads the clock: Now is the zero time, so a
	// wait computed from two readings is zero, and ObserveSince records
	// nothing.
	if t0 := h.Now(); !t0.IsZero() || h.Now().Sub(t0) != 0 {
		t.Errorf("invalid handle's Now = %v, want the zero time", t0)
	}
	h.ObserveSince("z", NoSpan, h.Now(), 1)
	p.Finish(h, "")
	if s, r, d := p.Stats(); s+r+d != 0 {
		t.Error("nil plane stats non-zero")
	}
	if p.Retained() != 0 || p.Snapshot(SpanFilter{}) != nil {
		t.Error("nil plane retains trees")
	}
	if NewSpanPlane(SpanConfig{}) != nil {
		t.Error("disabled config built a plane")
	}
}

// TestConcurrentSpanPlaneSoak hammers one small plane from many goroutines
// — tracing, finishing, snapshotting, and deliberately misusing stale
// handles — so the race detector can check every lock in the plane.
func TestConcurrentSpanPlaneSoak(t *testing.T) {
	p := testPlane(2, 64, time.Hour)
	const (
		workers = 8
		rounds  = 400
	)
	var wg sync.WaitGroup
	stale := make(chan Handle, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := p.StartTrace(TraceID{}, SpanID{}, "soak")
				ref := h.StartSpan("child", NoSpan)
				h.Under(ref).Observe("leaf", NoSpan, time.Now(), time.Microsecond, int64(i))
				h.SetAttr(ref, int64(w))
				h.EndSpan(ref)
				var errMsg string
				if i%7 == 0 {
					errMsg = "induced"
				}
				p.Finish(h, errMsg)
				// Keep some finished handles around for other goroutines to
				// abuse after their trees are recycled.
				select {
				case stale <- h:
				default:
					select {
					case old := <-stale:
						old.StartSpan("stale", NoSpan)
						old.FailSpan(old.Root(), "stale")
						_ = old.Trace()
					default:
					}
				}
				if i%16 == 0 {
					p.Snapshot(SpanFilter{Limit: 8})
					p.Retained()
					p.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	started, retained, discarded := p.Stats()
	if started != workers*rounds {
		t.Fatalf("started = %d, want %d", started, workers*rounds)
	}
	if retained+discarded != started {
		t.Fatalf("retained %d + discarded %d != started %d", retained, discarded, started)
	}
	if got := p.Retained(); got > 64 {
		t.Fatalf("ring holds %d trees, over capacity 64", got)
	}
	for _, tv := range p.Snapshot(SpanFilter{Limit: 1000}) {
		if tv.RootOp != "soak" {
			t.Fatalf("corrupted root op %q", tv.RootOp)
		}
		for _, sp := range tv.Spans {
			switch sp.Op {
			case "soak", "child", "leaf":
			default:
				t.Fatalf("foreign span %q leaked into a retained tree", sp.Op)
			}
		}
	}
}

// SetAttr attaches an op-specific integer attribute to ref.
func (h Handle) SetAttr(ref SpanRef, v int64) {
	if h.a == nil || ref < 0 {
		return
	}
	a := h.a
	a.mu.Lock()
	if a.gen == h.gen && !a.done && int(ref) < len(a.spans) {
		a.spans[ref].Attr = v
	}
	a.mu.Unlock()
}
