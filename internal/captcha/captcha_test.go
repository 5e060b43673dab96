package captcha

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func lex(tb testing.TB) *vocab.Lexicon {
	tb.Helper()
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 500, ZipfS: 1, Seed: 1})
}

func TestIssueVerifyRoundTrip(t *testing.T) {
	g := NewGate(lex(t), 0.5, 2)
	ch := g.Issue()
	if ch.Secret() == "" {
		t.Fatal("empty secret")
	}
	ok, err := g.Verify(ch.ID, ch.Secret())
	if err != nil || !ok {
		t.Fatalf("correct answer rejected: %v %v", ok, err)
	}
	// Single use.
	if _, err := g.Verify(ch.ID, ch.Secret()); !errors.Is(err, ErrUnknownChallenge) {
		t.Fatalf("challenge reusable: %v", err)
	}
	issued, passed := g.Stats()
	if issued != 1 || passed != 1 {
		t.Fatalf("stats = %d, %d", issued, passed)
	}
}

func TestVerifyForgivesCaseAndSpace(t *testing.T) {
	g := NewGate(lex(t), 0.5, 3)
	ch := g.Issue()
	answer := "  " + strings.ToUpper(ch.Secret()) + " "
	if ok, _ := g.Verify(ch.ID, answer); !ok {
		t.Fatal("case/space-normalized answer rejected")
	}
}

func TestWrongAnswerFails(t *testing.T) {
	g := NewGate(lex(t), 0.5, 4)
	ch := g.Issue()
	if ok, _ := g.Verify(ch.ID, ch.Secret()+"x"); ok {
		t.Fatal("wrong answer accepted")
	}
	if _, passed := g.Stats(); passed != 0 {
		t.Fatal("failed attempt counted as pass")
	}
}

func TestUnknownChallenge(t *testing.T) {
	g := NewGate(lex(t), 0.5, 5)
	if _, err := g.Verify(99, "x"); !errors.Is(err, ErrUnknownChallenge) {
		t.Fatalf("err = %v", err)
	}
}

func TestHumanBotAsymmetry(t *testing.T) {
	l := lex(t)
	src := rng.New(6)
	human := worker.New("h", worker.Honest, worker.Profile{Accuracy: 0.95, TypoRate: 0.02}, src)
	bot := NewBotSolver(0.35, 0.8, 7)

	passRate := func(solve func(Challenge) string) float64 {
		g := NewGate(l, 0.6, 8)
		passed := 0
		const n = 2000
		for i := 0; i < n; i++ {
			ch := g.Issue()
			if ok, _ := g.Verify(ch.ID, solve(ch)); ok {
				passed++
			}
		}
		return float64(passed) / n
	}
	humanRate := passRate(func(ch Challenge) string {
		return human.Transcribe(ch.Secret(), ch.Distortion)
	})
	botRate := passRate(bot.Solve)
	if humanRate < 0.6 {
		t.Errorf("human pass rate = %.2f, gate unusable", humanRate)
	}
	if botRate > 0.1 {
		t.Errorf("bot pass rate = %.2f, gate broken", botRate)
	}
	if humanRate < 5*botRate {
		t.Errorf("asymmetry too weak: human %.2f vs bot %.2f", humanRate, botRate)
	}
}

func TestBotCollapsesWithDistortion(t *testing.T) {
	l := lex(t)
	bot := NewBotSolver(0.6, 0.9, 9)
	rate := func(distortion float64) float64 {
		g := NewGate(l, distortion, 10)
		passed := 0
		const n = 1500
		for i := 0; i < n; i++ {
			ch := g.Issue()
			if ok, _ := g.Verify(ch.ID, bot.Solve(ch)); ok {
				passed++
			}
		}
		return float64(passed) / n
	}
	if easy, hard := rate(0), rate(1); easy <= hard {
		t.Errorf("bot pass rate did not fall with distortion: %.2f vs %.2f", easy, hard)
	}
}

func TestPendingCount(t *testing.T) {
	g := NewGate(lex(t), 0.3, 11)
	for i := 0; i < 5; i++ {
		g.Issue()
	}
	if g.Pending() != 5 {
		t.Fatalf("Pending = %d", g.Pending())
	}
}

func TestConcurrentGate(t *testing.T) {
	g := NewGate(lex(t), 0.3, 12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ch := g.Issue()
				if _, err := g.Verify(ch.ID, ch.Secret()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	issued, passed := g.Stats()
	if issued != 1600 || passed != 1600 {
		t.Fatalf("stats = %d, %d", issued, passed)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"distortion 2":  func() { NewGate(lex(t), 2, 1) },
		"charsuccess 0": func() { NewBotSolver(0, 0.5, 1) },
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

func TestBotSolverString(t *testing.T) {
	if NewBotSolver(0.3, 0.5, 1).String() == "" {
		t.Error("empty String()")
	}
}

func BenchmarkIssueVerify(b *testing.B) {
	g := NewGate(lex(b), 0.5, 13)
	for i := 0; i < b.N; i++ {
		ch := g.Issue()
		_, _ = g.Verify(ch.ID, ch.Secret())
	}
}
