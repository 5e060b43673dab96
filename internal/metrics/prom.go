package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Prometheus text exposition (version 0.0.4), written by hand so GET
// /metrics can be served from the standard library alone. A sample is one
// "name{labels} value" line; a family holds its samples in order.

// PromKind is the TYPE annotation of a family.
type PromKind string

// Family kinds understood by WriteProm.
const (
	PromCounter   PromKind = "counter"
	PromGauge     PromKind = "gauge"
	PromHistogram PromKind = "histogram"
	PromUntyped   PromKind = "untyped"
)

// PromLabel is one name="value" pair on a sample.
type PromLabel struct {
	Name  string
	Value string
}

// PromExemplar is an OpenMetrics exemplar attached to a histogram bucket
// sample: the trace that most recently landed in the bucket. WriteProm
// (classic text format) ignores it; WriteOpenMetrics renders it.
type PromExemplar struct {
	TraceID string
	Value   float64 // seconds
	At      time.Time
}

// PromSample is one exposition line within a family.
type PromSample struct {
	// Suffix is appended to the family name ("_sum", "_count"); empty for
	// the plain sample.
	Suffix string
	// Labels are the sample's name="value" pairs.
	Labels []PromLabel
	Value  float64
	// Exemplar, when non-nil, attaches an OpenMetrics exemplar.
	Exemplar *PromExemplar
}

// PromFamily is one metric family: a # HELP line, a # TYPE line, and its
// samples in order.
type PromFamily struct {
	Name    string
	Help    string
	Kind    PromKind
	Samples []PromSample
}

// PromCounterFamily is a single-sample counter family.
func PromCounterFamily(name, help string, v int64) PromFamily {
	return PromFamily{Name: name, Help: help, Kind: PromCounter,
		Samples: []PromSample{{Value: float64(v)}}}
}

// PromGaugeFamily is a single-sample gauge family.
func PromGaugeFamily(name, help string, v float64) PromFamily {
	return PromFamily{Name: name, Help: help, Kind: PromGauge,
		Samples: []PromSample{{Value: v}}}
}

// PromBucketFamily renders a BucketHist as a Prometheus histogram:
// cumulative buckets at its bounds, a +Inf bucket, _sum and _count.
func PromBucketFamily(name, help string, h *BucketHist) PromFamily {
	return PromFamily{Name: name, Help: help, Kind: PromHistogram,
		Samples: cumulativeSamples(h.bounds, h.counts, h.Sum(), nil, nil)}
}

// PromHistogramFamily renders a LatencyHist as a Prometheus histogram:
// cumulative buckets at the ExemplarBounds, a +Inf bucket, _sum and
// _count. Each bucket sample carries the histogram's exemplar for it.
func PromHistogramFamily(name, help string, h *LatencyHist) PromFamily {
	return PromFamily{Name: name, Help: help, Kind: PromHistogram, Samples: PromHistogramSamples(h)}
}

// PromHistogramSamples is the sample list of one histogram, each sample
// carrying labels (ahead of le on the buckets) — what a family holding
// several labelled histograms is assembled from.
func PromHistogramSamples(h *LatencyHist, labels ...PromLabel) []PromSample {
	return cumulativeSamples(ExemplarBounds[:], h.counts[:], h.Sum().Seconds(), h.Exemplar, labels)
}

// cumulativeSamples renders per-bucket counts (the last is +Inf) as
// cumulative _bucket samples at bounds, then _sum and _count, which is the
// +Inf bucket's value. Every sample carries labels, ahead of le on the
// buckets; exemplar, when non-nil, gives bucket i's exemplar.
func cumulativeSamples(bounds []float64, counts []atomic.Int64, sum float64,
	exemplar func(i int) (PromExemplar, bool), labels []PromLabel) []PromSample {
	samples := make([]PromSample, 0, len(counts)+2)
	var cum int64
	for i := range counts {
		cum += counts[i].Load()
		le := "+Inf"
		if i < len(bounds) {
			le = formatPromValue(bounds[i])
		}
		s := PromSample{
			Suffix: "_bucket",
			Labels: append(labels[:len(labels):len(labels)], PromLabel{Name: "le", Value: le}),
			Value:  float64(cum),
		}
		if exemplar != nil {
			if e, ok := exemplar(i); ok {
				s.Exemplar = &e
			}
		}
		samples = append(samples, s)
	}
	return append(samples,
		PromSample{Suffix: "_sum", Labels: labels, Value: sum},
		PromSample{Suffix: "_count", Labels: labels, Value: float64(cum)})
}

// validPromName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatPromValue renders v the way Prometheus expects: decimal notation,
// with +Inf/-Inf/NaN spelled out.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslashes, quotes, and newlines per the
// exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// writeLabels renders the label set of s.
func writeLabels(b *strings.Builder, s PromSample) {
	if len(s.Labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// writeExposition renders fams in the classic text format, or in
// OpenMetrics format (exemplars on bucket samples, "unknown" for
// untyped, trailing # EOF) when openMetrics is set.
func writeExposition(w io.Writer, fams []PromFamily, openMetrics bool) error {
	var b strings.Builder
	for _, f := range fams {
		if !validPromName(f.Name) {
			return fmt.Errorf("metrics: invalid prometheus metric name %q", f.Name)
		}
		if f.Kind == "" {
			f.Kind = PromUntyped
		}
		kind := string(f.Kind)
		if openMetrics && f.Kind == PromUntyped {
			kind = "unknown"
		}
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, kind)
		for _, s := range f.Samples {
			name := f.Name + s.Suffix
			if !validPromName(name) {
				return fmt.Errorf("metrics: invalid prometheus sample name %q", name)
			}
			for _, l := range s.Labels {
				if !validPromName(l.Name) {
					return fmt.Errorf("metrics: invalid prometheus label name %q", l.Name)
				}
			}
			b.WriteString(name)
			writeLabels(&b, s)
			b.WriteByte(' ')
			b.WriteString(formatPromValue(s.Value))
			if openMetrics && s.Exemplar != nil && s.Exemplar.TraceID != "" {
				fmt.Fprintf(&b, ` # {trace_id="%s"} %s`,
					escapeLabelValue(s.Exemplar.TraceID), formatPromValue(s.Exemplar.Value))
				if !s.Exemplar.At.IsZero() {
					b.WriteByte(' ')
					b.WriteString(strconv.FormatFloat(
						float64(s.Exemplar.At.UnixNano())/1e9, 'f', 3, 64))
				}
			}
			b.WriteByte('\n')
		}
	}
	if b.Len() == 0 {
		return errors.New("metrics: no families to write")
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteProm writes the families to w in the Prometheus text exposition
// format, in the order given. It returns an error on an invalid metric
// name rather than emitting a line a scraper would reject. Exemplars are
// omitted — the classic format has no syntax for them.
func WriteProm(w io.Writer, fams []PromFamily) error {
	return writeExposition(w, fams, false)
}

// OpenMetricsContentType is the Content-Type of a WriteOpenMetrics body.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics writes the families in the OpenMetrics text format:
// exemplars are rendered on the samples that carry them and the body
// ends with the required # EOF marker.
func WriteOpenMetrics(w io.Writer, fams []PromFamily) error {
	return writeExposition(w, fams, true)
}
