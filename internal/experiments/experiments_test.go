package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.txt from this run")

// smallOpts is the test-scale configuration.
func smallOpts() Options { return Options{Seed: 1, Scale: 0.08} }

// parsePct converts "83.5%" to 0.835.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v / 100
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res := r.Run(smallOpts())
			if res.ID != r.ID {
				t.Errorf("result ID %q != runner ID %q", res.ID, r.ID)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			for _, row := range res.Rows {
				if len(row) != len(res.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(res.Header), row)
				}
			}
			if !strings.Contains(res.String(), res.Title) {
				t.Error("String() missing title")
			}
			if r.ID == "T3" {
				return // its table is wall-clock throughput
			}
			checkGolden(t, filepath.Join("testdata", r.ID+".txt"), res.String())
		})
	}
}

// checkGolden compares an experiment's table with the one committed under
// testdata, so a refactor that moves a single random draw shows up as a
// changed number. The files are what "go test -run TestAllExperimentsRun
// -update" writes; the numbers are printed from float64 arithmetic, so
// they hold for builds that do not fuse multiply-adds (amd64 at the
// default GOAMD64 level).
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("t2"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID found")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := T4(smallOpts())
	b := T4(smallOpts())
	if a.String() != b.String() {
		t.Fatalf("T4 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// Shape assertions on the claims that matter, at test scale.

func TestT2ShapePipelineBeatsOCR(t *testing.T) {
	res := T2(smallOpts())
	for _, row := range res.Rows {
		deg := parseF(t, row[0])
		one := parsePct(t, row[1])
		pipe := parsePct(t, row[3])
		if deg >= 0.4 && pipe <= one {
			t.Errorf("degradation %v: pipeline %.3f not above one-OCR %.3f", deg, pipe, one)
		}
	}
}

func TestF1ShapeMonotonePrecision(t *testing.T) {
	res := F1(smallOpts())
	prev := -1.0
	for _, row := range res.Rows {
		labels := parseF(t, row[1])
		if labels == 0 {
			break // tail thresholds may be empty at small scale
		}
		frac := parsePct(t, row[2])
		if frac < prev-0.02 { // allow small sampling dips
			t.Errorf("precision fell at k=%s: %.3f after %.3f", row[0], frac, prev)
		}
		prev = frac
	}
	first := parsePct(t, res.Rows[0][2])
	if first < 0.7 {
		t.Errorf("k=1 precision %.2f; expected ~0.85 shape", first)
	}
}

func TestF2ShapeDiversityRises(t *testing.T) {
	res := F2(smallOpts())
	first := parseF(t, res.Rows[0][2])
	last := parseF(t, res.Rows[len(res.Rows)-1][2])
	if last <= first {
		t.Errorf("distinct labels/image did not rise with taboo: %.2f -> %.2f", first, last)
	}
	firstFresh := parsePct(t, res.Rows[0][3])
	lastFresh := parsePct(t, res.Rows[len(res.Rows)-1][3])
	if lastFresh <= firstFresh {
		t.Errorf("fresh-label share did not rise: %.2f -> %.2f", firstFresh, lastFresh)
	}
}

func TestF3ShapeScalingAndReplayRescue(t *testing.T) {
	res := F3(smallOpts())
	// Row 0 is a single player: live-only outputs must be zero, replay > 0.
	if live := parseF(t, res.Rows[0][1]); live != 0 {
		t.Errorf("lone player produced %v live outputs", live)
	}
	if replay := parseF(t, res.Rows[0][2]); replay == 0 {
		t.Error("replay did not rescue the lone player")
	}
	// Throughput grows with population.
	firstBig := parseF(t, res.Rows[2][2])
	lastBig := parseF(t, res.Rows[len(res.Rows)-1][2])
	if lastBig <= firstBig {
		t.Errorf("outputs did not grow with population: %v -> %v", firstBig, lastBig)
	}
}

func TestF4ShapeDefensesFlattenPoisoning(t *testing.T) {
	res := F4(smallOpts())
	last := res.Rows[len(res.Rows)-1] // 40% colluders
	noDef := parsePct(t, last[1])
	def := parsePct(t, last[3])
	if def >= noDef {
		t.Errorf("defenses did not reduce poisoning at 40%% colluders: %.3f vs %.3f", def, noDef)
	}
	// Undefended poisoning must grow with colluder fraction.
	firstNoDef := parsePct(t, res.Rows[0][1])
	if noDef <= firstNoDef {
		t.Errorf("undefended poisoning flat: %.3f -> %.3f", firstNoDef, noDef)
	}
}

func TestF5ShapeLinearScaling(t *testing.T) {
	res := F5(smallOpts())
	// words/user roughly constant once the control pool and user
	// reputations are warm; the first row is the documented cold start.
	lo, hi := 1e18, 0.0
	for _, row := range res.Rows[1:] {
		v := parseF(t, row[3])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo <= 0 || hi/lo > 2.0 {
		t.Errorf("words/user not ~constant after warm-up: min %.2f max %.2f", lo, hi)
	}
}

func TestF6ShapeAsymmetry(t *testing.T) {
	res := F6(smallOpts())
	for _, row := range res.Rows {
		h := parsePct(t, row[1])
		b := parsePct(t, row[2])
		if h <= b {
			t.Errorf("distortion %s: human %.2f <= bot %.2f", row[0], h, b)
		}
	}
	// Bot collapses with distortion.
	firstBot := parsePct(t, res.Rows[0][2])
	lastBot := parsePct(t, res.Rows[len(res.Rows)-1][2])
	if lastBot >= firstBot {
		t.Errorf("bot pass rate did not fall: %.3f -> %.3f", firstBot, lastBot)
	}
}

func TestT4ShapeEMDominatesAtLowReliability(t *testing.T) {
	res := T4(smallOpts())
	row := res.Rows[0] // reliability 0.55
	maj := parsePct(t, row[1])
	em := parsePct(t, row[3])
	if em < maj-0.02 {
		t.Errorf("EM %.3f below majority %.3f at low reliability", em, maj)
	}
	// At high reliability all methods are close.
	top := res.Rows[len(res.Rows)-1]
	if parsePct(t, top[1]) < 0.9 {
		t.Errorf("majority at 0.95 reliability = %s; too low", top[1])
	}
}

func TestA2ShapeFreshnessFalls(t *testing.T) {
	res := A2(smallOpts())
	first := parsePct(t, res.Rows[0][3])
	last := parsePct(t, res.Rows[len(res.Rows)-1][3])
	if last >= first {
		t.Errorf("new-concept share did not fall with replay fraction: %.3f -> %.3f", first, last)
	}
}

func TestT5ShapeRetentionOrders(t *testing.T) {
	res := T5(smallOpts())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	stickyD1 := parsePct(t, res.Rows[0][2])
	blandD1 := parsePct(t, res.Rows[2][2])
	if stickyD1 <= blandD1 {
		t.Errorf("day-1 retention did not order with return prob: %.2f vs %.2f", stickyD1, blandD1)
	}
	stickyALP := parseF(t, res.Rows[0][6])
	blandALP := parseF(t, res.Rows[2][6])
	if stickyALP <= blandALP {
		t.Errorf("ALP did not order with return prob: %.1f vs %.1f", stickyALP, blandALP)
	}
}

func TestA4ShapeMachinePartners(t *testing.T) {
	res := A4(smallOpts())
	// Row 0 is human-human, rows 1-3 human-machine, row 4 machine-machine.
	hhPrecision := parsePct(t, res.Rows[0][3])
	hmPerHour := parseF(t, res.Rows[2][4])
	hhPerHour := parseF(t, res.Rows[0][4])
	if hmPerHour <= hhPerHour {
		t.Errorf("machine partner did not raise labels/human-hour: %.0f vs %.0f", hmPerHour, hhPerHour)
	}
	mmPrecision := parsePct(t, res.Rows[4][3])
	if mmPrecision >= hhPrecision {
		t.Errorf("machine-machine precision %.3f not below human-human %.3f", mmPrecision, hhPrecision)
	}
}

func TestA3ShapeAssessmentRaisesPrecision(t *testing.T) {
	res := A3(smallOpts())
	if len(res.Rows) < 2 {
		t.Skip("A3 produced too few rows at small scale")
	}
	p0 := parsePct(t, res.Rows[0][2])
	pLast := parsePct(t, res.Rows[len(res.Rows)-1][2])
	if pLast <= p0 {
		t.Errorf("assessment did not raise precision: %.2f -> %.2f", p0, pLast)
	}
}

// TestT1ShapeESPLongestALP pins T1's note: ESP, the stickiest game, has
// the longest average lifetime play of the seven.
func TestT1ShapeESPLongestALP(t *testing.T) {
	res := T1(smallOpts())
	alp := map[string]float64{}
	for _, row := range res.Rows {
		alp[row[0]] = parseF(t, row[5])
	}
	if len(alp) != 7 {
		t.Fatalf("T1 has %d games, want 7: %v", len(alp), alp)
	}
	for game, v := range alp {
		if game != "esp" && v >= alp["esp"] {
			t.Errorf("%s ALP %.1f min >= esp's %.1f", game, v, alp["esp"])
		}
	}
}
