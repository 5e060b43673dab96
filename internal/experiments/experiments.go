// Package experiments regenerates every table and figure of the evaluation
// (see DESIGN.md §4): each experiment is a function from a seed and a scale
// to a printable Result, so the same code backs the hcbench command and the
// repository-level benchmarks. Scale < 1 shrinks workloads for tests;
// scale 1 is the published configuration.
package experiments

import (
	"fmt"
	"strings"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
	// Scale multiplies workload sizes. 1.0 is the full experiment;
	// tests use ~0.1.
	Scale float64
}

// n scales a workload size, with a floor to keep tiny scales meaningful.
func (o Options) n(full int, minimum int) int {
	v := int(float64(full) * o.Scale)
	if v < minimum {
		return minimum
	}
	return v
}

// Result is one experiment's regenerated table.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a footnote line.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Options) Result
}

// All returns every experiment in report order.
func All() []Runner {
	return []Runner{
		{"T1", "GWAP metrics: throughput, ALP, expected contribution per game", T1},
		{"T2", "reCAPTCHA word accuracy vs OCR baselines", T2},
		{"F1", "ESP label accuracy vs agreement threshold", F1},
		{"F2", "Taboo words force label diversity", F2},
		{"F3", "Throughput scaling with concurrent players (replay ablation included)", F3},
		{"F4", "Collusion resistance with and without defenses", F4},
		{"F5", "reCAPTCHA digitization throughput vs user count", F5},
		{"F6", "CAPTCHA gate: human vs bot pass rates across distortion", F6},
		{"T3", "Dispatch service request throughput", T3},
		{"T4", "Aggregation methods vs worker reliability", T4},
		{"T5", "Cohort retention over a simulated week", T5},
		{"A1", "Ablation: agreement mechanisms on the same corpus", A1},
		{"A2", "Ablation: replay partners vs live partners", A2},
		{"A3", "Ablation: Verbosity assessment votes per fact", A3},
		{"A4", "Extension: machine partners in the ESP Game", A4},
		{"A5", "Adaptive redundancy: fixed vs early completion on one paired crowd", A5},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2c(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3c(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
func d64(v int64) string   { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
