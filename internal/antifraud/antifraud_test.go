package antifraud

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"humancomp/internal/rng"
)

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func TestRateLimiterBurstThenRefill(t *testing.T) {
	l := NewRateLimiter(1, 3) // 1/s, burst 3
	for i := 0; i < 3; i++ {
		if !l.Allow("w", t0) {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.Allow("w", t0) {
		t.Fatal("fourth immediate request allowed")
	}
	if !l.Allow("w", t0.Add(time.Second)) {
		t.Fatal("request after refill denied")
	}
	if l.Allow("w", t0.Add(time.Second)) {
		t.Fatal("double spend after single refill")
	}
}

func TestRateLimiterKeysIndependent(t *testing.T) {
	l := NewRateLimiter(1, 1)
	if !l.Allow("a", t0) || !l.Allow("b", t0) {
		t.Fatal("independent keys throttled each other")
	}
	if l.Allow("a", t0) {
		t.Fatal("key a over budget")
	}
}

func TestRateLimiterCapsAtBurst(t *testing.T) {
	l := NewRateLimiter(10, 2)
	if !l.Allow("w", t0) {
		t.Fatal("first denied")
	}
	// A long idle period must not bank more than burst tokens.
	later := t0.Add(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if l.Allow("w", later) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d after idle, want burst=2", allowed)
	}
}

func TestRateLimiterSweepsIdleKeys(t *testing.T) {
	l := NewRateLimiter(10, 2) // refills from empty in 200ms
	for i := 0; i < 1000; i++ {
		// One fresh key every 10ms: about two windows' worth stay resident.
		now := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		if !l.Allow(fmt.Sprintf("k%d", i), now) {
			t.Fatalf("fresh key %d denied", i)
		}
		if n := len(l.state); n > 41 {
			t.Fatalf("after %d keys the limiter holds %d buckets", i+1, n)
		}
	}
	// A bucket drained after one sweep and not yet refilled at the next
	// survives it.
	now := t0.Add(time.Hour)
	l.Allow("x", now) // sweeps
	now = now.Add(150 * time.Millisecond)
	l.Allow("hot", now)
	l.Allow("hot", now)
	now = now.Add(50 * time.Millisecond) // half a token back
	l.Allow("y", now)                    // sweeps
	if l.Allow("hot", now) {
		t.Fatal("sweep reset a bucket that had not refilled")
	}
}

func TestRateLimiterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad limiter did not panic")
		}
	}()
	NewRateLimiter(0, 1)
}

func TestEntropyDetectorFlagsScriptedPlayer(t *testing.T) {
	d := NewEntropyDetector(20, 2.0)
	src := rng.New(1)
	// Honest player: agreements spread over many words.
	for i := 0; i < 100; i++ {
		d.Record("honest", src.Intn(200))
	}
	// Colluder: always the scripted word, occasionally another.
	for i := 0; i < 100; i++ {
		w := 42
		if i%10 == 0 {
			w = src.Intn(200)
		}
		d.Record("colluder", w)
	}
	if d.Suspicious("honest") {
		t.Errorf("honest player flagged (entropy %.2f bits)", d.Entropy("honest"))
	}
	if !d.Suspicious("colluder") {
		t.Errorf("colluder not flagged (entropy %.2f bits)", d.Entropy("colluder"))
	}
}

func TestEntropyDetectorNeedsSamples(t *testing.T) {
	d := NewEntropyDetector(50, 2.0)
	for i := 0; i < 10; i++ {
		d.Record("p", 1)
	}
	if d.Suspicious("p") {
		t.Error("flagged below minSamples")
	}
	if d.Observations("p") != 10 {
		t.Errorf("Observations = %d", d.Observations("p"))
	}
	if !math.IsInf(d.Entropy("unknown"), 1) {
		t.Error("unknown player entropy should be +Inf")
	}
}

func TestEntropyValues(t *testing.T) {
	d := NewEntropyDetector(1, 0)
	d.Record("p", 1)
	d.Record("p", 2)
	if h := d.Entropy("p"); math.Abs(h-1) > 1e-12 {
		t.Errorf("two equally likely words: entropy = %v, want 1 bit", h)
	}
	d2 := NewEntropyDetector(1, 0)
	for i := 0; i < 8; i++ {
		d2.Record("q", 7)
	}
	if h := d2.Entropy("q"); h != 0 {
		t.Errorf("single word entropy = %v, want 0", h)
	}
}

func TestPairBiasFlagsColluders(t *testing.T) {
	p := NewPairBias(10, 2.0)
	src := rng.New(2)
	// Honest background: everyone agrees ~40% with everyone.
	players := []string{"a", "b", "c", "d"}
	for i := 0; i < 1000; i++ {
		x := players[src.Intn(len(players))]
		y := players[src.Intn(len(players))]
		if x == y {
			continue
		}
		p.RecordRound(x, y, src.Bool(0.4))
	}
	// Colluders: agree always with each other, never with others.
	for i := 0; i < 50; i++ {
		p.RecordRound("evil1", "evil2", true)
		p.RecordRound("evil1", players[i%4], false)
		p.RecordRound("evil2", players[(i+1)%4], false)
	}
	if !p.Suspicious("evil1", "evil2") {
		t.Errorf("colluding pair not flagged: pair %.2f vs players %.2f/%.2f",
			p.PairRate("evil1", "evil2"), p.PlayerRate("evil1"), p.PlayerRate("evil2"))
	}
	if p.Suspicious("a", "b") {
		t.Errorf("honest pair flagged: pair %.2f vs players %.2f/%.2f",
			p.PairRate("a", "b"), p.PlayerRate("a"), p.PlayerRate("b"))
	}
	pairs := p.SuspiciousPairs()
	found := false
	for _, pr := range pairs {
		if pr == [2]string{"evil1", "evil2"} {
			found = true
		}
	}
	if !found {
		t.Errorf("SuspiciousPairs = %v missing colluders", pairs)
	}
}

func TestPairBiasNeedsMinGames(t *testing.T) {
	p := NewPairBias(10, 2.0)
	for i := 0; i < 5; i++ {
		p.RecordRound("x", "y", true)
	}
	if p.Suspicious("x", "y") {
		t.Error("flagged below minGames")
	}
	if p.Suspicious("never", "met") {
		t.Error("unseen pair flagged")
	}
}

func TestPairBiasPureCollusionZeroBackground(t *testing.T) {
	p := NewPairBias(10, 2.0)
	for i := 0; i < 20; i++ {
		p.RecordRound("e1", "e2", true)
	}
	// No background games at all: expected rate is degenerate, but an
	// always-agreeing pair must still be caught.
	if !p.Suspicious("e1", "e2") {
		t.Error("pure collusion with no background not flagged")
	}
}

func TestPairBiasSymmetric(t *testing.T) {
	p := NewPairBias(1, 1.5)
	p.RecordRound("a", "b", true)
	if p.PairRate("a", "b") != p.PairRate("b", "a") {
		t.Error("pair rate not symmetric")
	}
}

func TestPairBiasPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"minGames 0": func() { NewPairBias(0, 2) },
		"factor 1":   func() { NewPairBias(5, 1) },
		"entropy 0":  func() { NewEntropyDetector(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkPairBiasRecord(b *testing.B) {
	p := NewPairBias(10, 2)
	for i := 0; i < b.N; i++ {
		p.RecordRound("a", "b", i%2 == 0)
	}
}

func TestReplayProbeSeparatesHonestFromScripted(t *testing.T) {
	p := NewReplayProbe(10, 0.3)
	src := rng.New(3)
	for i := 0; i < 50; i++ {
		p.Record("honest", src.Bool(0.7)) // agrees with recordings often
		p.Record("colluder", src.Bool(0.05))
	}
	if p.Suspicious("honest") {
		t.Errorf("honest flagged at rate %.2f", rate(p.probes["honest"]))
	}
	if !p.Suspicious("colluder") {
		t.Errorf("colluder not flagged at rate %.2f", rate(p.probes["colluder"]))
	}
	if p.Probes("honest") != 50 {
		t.Errorf("Probes = %d", p.Probes("honest"))
	}
}

func TestReplayProbeNeedsMinProbes(t *testing.T) {
	p := NewReplayProbe(10, 0.3)
	for i := 0; i < 5; i++ {
		p.Record("new", false)
	}
	if p.Suspicious("new") {
		t.Error("flagged below minProbes")
	}
	if p.Suspicious("unseen") || p.Probes("unseen") != 0 || rate(p.probes["unseen"]) != 0 {
		t.Error("unseen player state wrong")
	}
}

func TestReplayProbePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"probes 0": func() { NewReplayProbe(0, 0.5) },
		"rate 0":   func() { NewReplayProbe(5, 0) },
		"rate 1":   func() { NewReplayProbe(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// SuspiciousPairs returns every currently suspicious pair, sorted for
// deterministic reports.
func (p *PairBias) SuspiciousPairs() [][2]string {
	var out [][2]string
	for k := range p.pair {
		if p.Suspicious(k[0], k[1]) {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
