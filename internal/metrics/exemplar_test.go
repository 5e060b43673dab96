package metrics

import (
	"strings"
	"testing"
	"time"
)

func hexTrace(fill byte) [32]byte {
	var t [32]byte
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

func TestExemplarSetObserveLoad(t *testing.T) {
	var s ExemplarSet
	if _, ok := s.Load(0); ok {
		t.Fatal("empty slot loaded")
	}
	s.Observe(2*time.Millisecond, hexTrace('a')) // slot 2 (le 0.0025)
	e, ok := s.Load(2)
	if !ok || e.TraceID != strings.Repeat("a", 32) || e.Value != 0.002 {
		t.Fatalf("Load(2) = %+v, %v", e, ok)
	}
	if e.At.IsZero() {
		t.Error("exemplar missing observation time")
	}
	// Newest observation in the same bucket wins.
	s.Observe(2500*time.Microsecond, hexTrace('b'))
	if e, _ := s.Load(2); e.TraceID != strings.Repeat("b", 32) {
		t.Errorf("newest-wins violated: %q", e.TraceID)
	}
	// Out-of-range loads, negative observations and nil sets are inert.
	if _, ok := s.Load(-1); ok {
		t.Error("Load(-1) ok")
	}
	if _, ok := s.Load(exemplarSlots); ok {
		t.Error("Load(past end) ok")
	}
	s.Observe(-time.Second, hexTrace('c'))
	var nilSet *ExemplarSet
	nilSet.Observe(time.Second, hexTrace('d'))
	if _, ok := nilSet.Load(0); ok {
		t.Error("nil set loaded an exemplar")
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

// TestPromHistogramFamilyExemplarsEndToEnd drives a LatencyHist and its
// paired ExemplarSet the way the middleware does and checks the rendered
// bucket line carries the observing trace.
func TestPromHistogramFamilyExemplarsEndToEnd(t *testing.T) {
	var (
		h  LatencyHist
		ex ExemplarSet
	)
	h.Observe(3 * time.Millisecond)
	ex.Observe(3*time.Millisecond, hexTrace('e')) // le="0.005" bucket

	fam := PromHistogramFamily("hc_x_seconds", "X.", &h, &ex)
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, []PromFamily{fam}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLine := `hc_x_seconds_bucket{le="0.005"} 1 # {trace_id="` + strings.Repeat("e", 32) + `"} 0.003`
	if !strings.Contains(out, wantLine) {
		t.Errorf("exposition missing exemplar line %q:\n%s", wantLine, out)
	}
	if !strings.Contains(out, `hc_x_seconds_bucket{le="0.0025"} 0`+"\n") {
		t.Errorf("bucket below the observation not zero:\n%s", out)
	}
	if !strings.Contains(out, `hc_x_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket missing:\n%s", out)
	}
	// A nil exemplar set renders plain buckets.
	fam = PromHistogramFamily("hc_y_seconds", "Y.", &h, nil)
	sb.Reset()
	if err := WriteOpenMetrics(&sb, []PromFamily{fam}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "trace_id") {
		t.Errorf("nil exemplar set produced exemplars:\n%s", sb.String())
	}
}
