package metrics

import (
	"math"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exact exposition bytes: HELP/TYPE comments,
// plain samples, explicit labels, histogram buckets and suffixes. Any format
// drift that would break a scraper breaks this test first.
func TestWritePromGolden(t *testing.T) {
	h := NewBucketHist(0.5, 0.9)
	for _, v := range []float64{0.25, 0.25, 0.75, 1} {
		h.Observe(v)
	}
	fams := []PromFamily{
		PromCounterFamily("hc_tasks_submitted_total", "Tasks accepted.", 42),
		PromGaugeFamily("hc_queue_open_tasks", "Tasks still collecting answers.", 7),
		{Name: "hc_http_requests_total", Help: "Responses sent.", Kind: PromCounter, Samples: []PromSample{
			{Labels: []PromLabel{{Name: "route", Value: "GET /v1/tasks/{id}"}, {Name: "code_class", Value: "2xx"}}, Value: 3},
			{Labels: []PromLabel{{Name: "route", Value: "GET /v1/tasks/{id}"}, {Name: "code_class", Value: "4xx"}}, Value: 0},
		}},
		PromBucketFamily("hc_quality_posterior_confidence", "Max-posterior confidence.", h),
		{Name: "hc_custom", Kind: PromUntyped, Samples: []PromSample{{Value: 1.5}}},
	}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	want := `# HELP hc_tasks_submitted_total Tasks accepted.
# TYPE hc_tasks_submitted_total counter
hc_tasks_submitted_total 42
# HELP hc_queue_open_tasks Tasks still collecting answers.
# TYPE hc_queue_open_tasks gauge
hc_queue_open_tasks 7
# HELP hc_http_requests_total Responses sent.
# TYPE hc_http_requests_total counter
hc_http_requests_total{route="GET /v1/tasks/{id}",code_class="2xx"} 3
hc_http_requests_total{route="GET /v1/tasks/{id}",code_class="4xx"} 0
# HELP hc_quality_posterior_confidence Max-posterior confidence.
# TYPE hc_quality_posterior_confidence histogram
hc_quality_posterior_confidence_bucket{le="0.5"} 2
hc_quality_posterior_confidence_bucket{le="0.9"} 3
hc_quality_posterior_confidence_bucket{le="+Inf"} 4
hc_quality_posterior_confidence_sum 2.25
hc_quality_posterior_confidence_count 4
# TYPE hc_custom untyped
hc_custom 1.5
`
	if got := sb.String(); got != want {
		t.Errorf("WriteProm output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePromSpecialValues(t *testing.T) {
	fams := []PromFamily{{Name: "x", Kind: PromGauge, Samples: []PromSample{
		{Value: math.Inf(1)},
		{Suffix: "_neg", Value: math.Inf(-1)},
		{Suffix: "_nan", Value: math.NaN()},
	}}}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	want := "# TYPE x gauge\nx +Inf\nx_neg -Inf\nx_nan NaN\n"
	if got := sb.String(); got != want {
		t.Errorf("special values = %q, want %q", got, want)
	}
}

func TestWritePromHelpEscaping(t *testing.T) {
	fams := []PromFamily{{Name: "x", Help: "line\nbreak \\ slash", Kind: PromCounter,
		Samples: []PromSample{{Value: 0}}}}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if want := `# HELP x line\nbreak \\ slash` + "\n"; !strings.HasPrefix(sb.String(), want) {
		t.Errorf("help line = %q, want prefix %q", sb.String(), want)
	}
}

func TestWritePromRejectsInvalidNames(t *testing.T) {
	for _, name := range []string{"", "1bad", "has space", "has-dash", "sné"} {
		err := WriteProm(&strings.Builder{}, []PromFamily{{Name: name, Kind: PromCounter}})
		if err == nil {
			t.Errorf("WriteProm accepted invalid name %q", name)
		}
	}
	// A bad suffix must be caught too.
	err := WriteProm(&strings.Builder{}, []PromFamily{{Name: "ok", Kind: PromCounter,
		Samples: []PromSample{{Suffix: "-bad"}}}})
	if err == nil {
		t.Error("WriteProm accepted invalid sample suffix")
	}
}

func TestWritePromEmptyErrors(t *testing.T) {
	if err := WriteProm(&strings.Builder{}, nil); err == nil {
		t.Error("WriteProm with no families should error")
	}
}
