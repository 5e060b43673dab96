package metrics

import (
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"
)

func traceOf(fill byte) [16]byte {
	var t [16]byte
	for i := range t {
		t[i] = fill
	}
	return t
}

func TestExemplarBucketMapping(t *testing.T) {
	cases := map[float64]int{
		0.0001: 0,
		0.0005: 0,
		0.0006: 1,
		0.05:   6,
		9.9:    13,
		10.0:   13,
		11.0:   len(ExemplarBounds), // +Inf
	}
	for sec, want := range cases {
		if got := exemplarBucket(sec); got != want {
			t.Errorf("exemplarBucket(%g) = %d, want %d", sec, got, want)
		}
	}
}

func TestObserveTracedExemplar(t *testing.T) {
	var h LatencyHist
	if _, ok := h.Exemplar(0); ok {
		t.Fatal("empty slot loaded")
	}
	h.ObserveTraced(2*time.Millisecond, traceOf(0xaa)) // slot 2 (le 0.0025)
	e, ok := h.Exemplar(2)
	if !ok || e.TraceID != strings.Repeat("aa", 16) || e.Value != 0.002 {
		t.Fatalf("Exemplar(2) = %+v, %v", e, ok)
	}
	if e.At.IsZero() {
		t.Error("exemplar missing observation time")
	}
	// Newest observation in the same bucket wins.
	h.ObserveTraced(2500*time.Microsecond, traceOf(0xbb))
	if e, _ := h.Exemplar(2); e.TraceID != strings.Repeat("bb", 16) {
		t.Errorf("newest-wins violated: %q", e.TraceID)
	}
	// Out-of-range reads, negative observations and zero traces are inert.
	if _, ok := h.Exemplar(-1); ok {
		t.Error("Exemplar(-1) ok")
	}
	if _, ok := h.Exemplar(len(ExemplarBounds) + 1); ok {
		t.Error("Exemplar(past end) ok")
	}
	h.ObserveTraced(-time.Second, traceOf(0xcc))
	if _, ok := h.Exemplar(0); ok {
		t.Error("a negative observation left an exemplar")
	}
	var untraced LatencyHist
	untraced.ObserveTraced(time.Second, [16]byte{})
	for i := 0; i <= len(ExemplarBounds); i++ {
		if _, ok := untraced.Exemplar(i); ok {
			t.Errorf("a zero trace left an exemplar in bucket %d", i)
		}
	}
	if count(&h) != 3 || count(&untraced) != 1 {
		t.Errorf("counts %d and %d, want every observation counted: 3 and 1", count(&h), count(&untraced))
	}
}

// TestExemplarsAreNeverTorn: writers racing into one bucket, each with a
// trace ID that encodes its own duration, while a reader loops over the
// bucket's exemplar and the rendered samples. Every exemplar read pairs a
// trace with its own value, an observation made once the race is over
// leaves its own exemplar, and the bucket counts every observation.
func TestExemplarsAreNeverTorn(t *testing.T) {
	const (
		writers = 4
		each    = 2000
		slot    = 3 // le 0.005: every duration below lands in it
	)
	var h LatencyHist
	check := func(e PromExemplar) {
		raw, err := hex.DecodeString(e.TraceID)
		if err != nil || len(raw) != 16 {
			t.Errorf("exemplar trace %q is not 16 hex bytes", e.TraceID)
			return
		}
		if d := time.Duration(binary.BigEndian.Uint64(raw[8:])); float64(d)/1e9 != e.Value {
			t.Errorf("torn exemplar: trace %s encodes %v, value is %gs", e.TraceID, d, e.Value)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := 3*time.Millisecond + time.Duration(w*each+i)*100
				var tr [16]byte
				tr[0] = byte(w + 1)
				binary.BigEndian.PutUint64(tr[8:], uint64(d))
				h.ObserveTraced(d, tr)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if e, ok := h.Exemplar(slot); ok {
			check(e)
		}
		for _, s := range PromHistogramSamples(&h) {
			if s.Exemplar != nil {
				check(*s.Exemplar)
			}
		}
	}
	// Every racing write may have met the reader on the slot and been
	// skipped, so the race need not leave an exemplar. With nobody else
	// on the slot, one more traced observation must.
	last := 4 * time.Millisecond
	var tr [16]byte
	tr[0] = 0xff
	binary.BigEndian.PutUint64(tr[8:], uint64(last))
	h.ObserveTraced(last, tr)
	e, ok := h.Exemplar(slot)
	if !ok || e.TraceID != hex.EncodeToString(tr[:]) || e.Value != last.Seconds() {
		t.Fatalf("exemplar after the race = %+v (ok %v), want trace %x at %gs", e, ok, tr, last.Seconds())
	}
	for i := 0; i <= len(ExemplarBounds); i++ {
		if _, ok := h.Exemplar(i); ok && i != slot {
			t.Errorf("bucket %d holds an exemplar; every observation landed in %d", i, slot)
		}
	}
	const total = writers*each + 1
	if n := h.counts[slot].Load(); count(&h) != total || n != total {
		t.Errorf("count %d, %d in le 0.005 above le 0.0025; want %d in both", count(&h), n, total)
	}
}

// TestWriteOpenMetricsGolden pins the OpenMetrics rendering byte for byte:
// exemplar syntax on bucket samples, "unknown" instead of "untyped", and
// the required # EOF trailer. This is the contract the CI smoke validates
// against a live admin listener.
func TestWriteOpenMetricsGolden(t *testing.T) {
	at := time.Unix(1754000000, 250_000_000).UTC()
	fams := []PromFamily{
		PromCounterFamily("hc_spans_started_total", "Span trees checked out.", 3),
		{Name: "hc_custom", Kind: PromUntyped, Samples: []PromSample{{Value: 1.5}}},
		{Name: "hc_req_seconds", Help: "Request latency.", Kind: PromHistogram, Samples: []PromSample{
			{Suffix: "_bucket", Labels: []PromLabel{{Name: "le", Value: "0.001"}},
				Value: 1, Exemplar: &PromExemplar{
					TraceID: "0123456789abcdef0123456789abcdef", Value: 0.0007, At: at}},
			{Suffix: "_bucket", Labels: []PromLabel{{Name: "le", Value: "+Inf"}}, Value: 2},
			{Suffix: "_sum", Value: 0.1},
			{Suffix: "_count", Value: 2},
		}},
	}
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, fams); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	want := `# HELP hc_spans_started_total Span trees checked out.
# TYPE hc_spans_started_total counter
hc_spans_started_total 3
# TYPE hc_custom unknown
hc_custom 1.5
# HELP hc_req_seconds Request latency.
# TYPE hc_req_seconds histogram
hc_req_seconds_bucket{le="0.001"} 1 # {trace_id="0123456789abcdef0123456789abcdef"} 0.0007 1754000000.250
hc_req_seconds_bucket{le="+Inf"} 2
hc_req_seconds_sum 0.1
hc_req_seconds_count 2
# EOF
`
	if got := sb.String(); got != want {
		t.Errorf("OpenMetrics output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The classic format must drop the exemplar and the EOF marker: the
	// 0.0.4 parser has no syntax for either.
	sb.Reset()
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if classic := sb.String(); strings.Contains(classic, "trace_id") || strings.Contains(classic, "# EOF") {
		t.Errorf("classic exposition leaked OpenMetrics syntax:\n%s", classic)
	}
}

// TestPromHistogramFamilyExemplarsEndToEnd drives a LatencyHist the way
// the middleware does and checks the rendered bucket line carries the
// observing trace.
func TestPromHistogramFamilyExemplarsEndToEnd(t *testing.T) {
	var h LatencyHist
	h.ObserveTraced(3*time.Millisecond, traceOf(0xee)) // le="0.005" bucket

	fam := PromHistogramFamily("hc_x_seconds", "X.", &h)
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, []PromFamily{fam}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLine := `hc_x_seconds_bucket{le="0.005"} 1 # {trace_id="` + strings.Repeat("ee", 16) + `"} 0.003`
	if !strings.Contains(out, wantLine) {
		t.Errorf("exposition missing exemplar line %q:\n%s", wantLine, out)
	}
	if !strings.Contains(out, `hc_x_seconds_bucket{le="0.0025"} 0`+"\n") {
		t.Errorf("bucket below the observation not zero:\n%s", out)
	}
	if !strings.Contains(out, `hc_x_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket missing:\n%s", out)
	}
	// A histogram observed without traces renders plain buckets.
	var plain LatencyHist
	plain.Observe(3 * time.Millisecond)
	fam = PromHistogramFamily("hc_y_seconds", "Y.", &plain)
	sb.Reset()
	if err := WriteOpenMetrics(&sb, []PromFamily{fam}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "trace_id") {
		t.Errorf("untraced histogram produced exemplars:\n%s", sb.String())
	}
}
