package recaptcha

import (
	"errors"
	"fmt"
	"testing"

	"humancomp/internal/ocr"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func lex(tb testing.TB) *vocab.Lexicon {
	tb.Helper()
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 800, ZipfS: 1, Seed: 1})
}

func engines() []*ocr.Engine {
	return []*ocr.Engine{
		ocr.NewEngine("A", 0.99, 0.7, 11),
		ocr.NewEngine("B", 0.985, 0.6, 12),
	}
}

func seedControls(l *vocab.Lexicon, n int) []ocr.Word {
	out := make([]ocr.Word, n)
	for i := 0; i < n; i++ {
		out[i] = ocr.Word{Text: l.Word(i).Text, Degradation: 0.3}
	}
	return out
}

func newPipeline(tb testing.TB) (*Pipeline, *vocab.Lexicon) {
	tb.Helper()
	l := lex(tb)
	return NewPipeline(engines(), l, seedControls(l, 20), DefaultConfig()), l
}

func TestIngestClassifies(t *testing.T) {
	p, l := newPipeline(t)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 2000, DegMean: 0.5, DegSD: 0.25, Seed: 2})
	rep := p.Ingest(doc)
	if rep.Total != 2000 || rep.Auto+rep.Suspicious != 2000 {
		t.Fatalf("ingest report inconsistent: %+v", rep)
	}
	if rep.Auto == 0 {
		t.Error("no words auto-accepted; OCR consensus filter broken")
	}
	if rep.Suspicious == 0 {
		t.Error("no suspicious words; degradation model broken")
	}
	// Auto words should be overwhelmingly correct (consensus + dictionary).
	r := p.Report()
	if r.Auto != rep.Auto || r.Pending != rep.Suspicious {
		t.Fatalf("report/ingest mismatch: %+v vs %+v", r, rep)
	}
}

// drive runs human workers over the pipeline until pending is exhausted or
// the vote budget runs out.
func drive(p *Pipeline, humans []*worker.Worker, maxSubmissions int) int {
	submissions := 0
	for i := 0; submissions < maxSubmissions; i++ {
		ch, ok := p.NextChallenge()
		if !ok {
			break
		}
		h := humans[i%len(humans)]
		truth, deg := p.Truth(ch.Word)
		unknown := h.Transcribe(truth, deg)
		control := h.Transcribe(ch.ControlTruth, ch.ControlDegradation)
		_, _, _ = p.Submit(ch, fmt.Sprintf("u%d", i%len(humans)), unknown, control)
		submissions++
	}
	return submissions
}

func humans(n int, accuracy float64, seed uint64) []*worker.Worker {
	src := rng.New(seed)
	out := make([]*worker.Worker, n)
	for i := range out {
		out[i] = worker.New("h", worker.Honest, worker.Profile{Accuracy: accuracy, TypoRate: 0.02}, src)
	}
	return out
}

func TestPipelineBeatsOCRBaseline(t *testing.T) {
	p, l := newPipeline(t)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 1500, DegMean: 0.5, DegSD: 0.25, Seed: 3})
	p.Ingest(doc)
	drive(p, humans(50, 0.95, 4), 200000)
	r := p.Report()
	if r.Coverage < 0.9 {
		t.Fatalf("coverage = %.2f; humans did not resolve the backlog (pending %d, unreadable %d)",
			r.Coverage, r.Pending, r.Unreadable)
	}
	base := BaselineOneOCR(ocr.NewEngine("base", 0.99, 0.7, 13), doc)
	if r.Accuracy <= base {
		t.Errorf("pipeline accuracy %.3f not above OCR baseline %.3f", r.Accuracy, base)
	}
	if r.Accuracy < 0.93 {
		t.Errorf("pipeline accuracy %.3f below expected shape (~0.95+)", r.Accuracy)
	}
	t.Logf("pipeline %.3f vs one-OCR %.3f (coverage %.2f)", r.Accuracy, base, r.Coverage)
}

func TestControlGateRejectsBots(t *testing.T) {
	p, l := newPipeline(t)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 200, DegMean: 0.6, DegSD: 0.2, Seed: 5})
	p.Ingest(doc)
	ch, ok := p.NextChallenge()
	if !ok {
		t.Skip("no challenge")
	}
	humanOK, accepted, err := p.Submit(ch, "bot", "whatever", "garbage-control-answer")
	if err != nil {
		t.Fatal(err)
	}
	if humanOK || accepted {
		t.Fatal("failed control accepted a vote")
	}
	r := p.Report()
	if r.HumanFailures != 1 || r.HumanPasses != 0 {
		t.Fatalf("control accounting wrong: %+v", r)
	}
}

func TestAcceptedWordJoinsControlPool(t *testing.T) {
	p, l := newPipeline(t)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 300, DegMean: 0.7, DegSD: 0.1, Seed: 6})
	p.Ingest(doc)
	before := len(p.control)
	drive(p, humans(20, 0.97, 7), 50000)
	if len(p.control) <= before {
		t.Error("no accepted word entered the control pool")
	}
}

func TestUnreadableAfterVoteBudget(t *testing.T) {
	l := lex(t)
	cfg := DefaultConfig()
	cfg.MaxHumanVotes = 3
	cfg.AcceptThreshold = 100 // unreachable: force unreadable path
	p := NewPipeline(engines(), l, seedControls(l, 5), cfg)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 50, DegMean: 0.9, DegSD: 0.05, Seed: 8})
	p.Ingest(doc)
	drive(p, humans(5, 0.9, 9), 10000)
	r := p.Report()
	if r.Pending != 0 {
		t.Fatalf("still pending: %d", r.Pending)
	}
	if r.Unreadable == 0 {
		t.Fatal("no word went unreadable despite unreachable threshold")
	}
}

func TestSubmitOnResolvedWordRejected(t *testing.T) {
	p, l := newPipeline(t)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 100, DegMean: 0.7, DegSD: 0.1, Seed: 10})
	p.Ingest(doc)
	ch, ok := p.NextChallenge()
	if !ok {
		t.Skip("no challenge")
	}
	truth, _ := p.Truth(ch.Word)
	// Vote the word through with perfect answers.
	for i := 0; i < 5 && p.words[ch.Word].status == Pending; i++ {
		_, _, err := p.Submit(ch, "perfect", truth, ch.ControlTruth)
		if err != nil {
			t.Fatal(err)
		}
	}
	if p.words[ch.Word].status != Accepted {
		t.Fatalf("word not accepted after perfect votes: %v", p.words[ch.Word].status)
	}
	if _, _, err := p.Submit(ch, "perfect", truth, ch.ControlTruth); !errors.Is(err, ErrNotPending) {
		t.Fatalf("vote on accepted word: %v", err)
	}
}

func TestOCRVotesCountTowardThreshold(t *testing.T) {
	// With threshold 1.0 and OCR weight 0.5, two agreeing OCR reads of a
	// non-dictionary form still pre-load the candidate; one human vote at
	// weight 1.0 crossing 1.0 accepts immediately.
	l := lex(t)
	cfg := DefaultConfig()
	cfg.AcceptThreshold = 1.0
	p := NewPipeline(engines(), l, seedControls(l, 5), cfg)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 200, DegMean: 0.6, DegSD: 0.2, Seed: 11})
	p.Ingest(doc)
	ch, ok := p.NextChallenge()
	if !ok {
		t.Skip("no challenge")
	}
	truth, _ := p.Truth(ch.Word)
	_, accepted, err := p.Submit(ch, "", truth, ch.ControlTruth)
	if err != nil {
		t.Fatal(err)
	}
	if !accepted {
		t.Fatal("single human vote did not cross threshold 1.0")
	}
}

func TestBaselines(t *testing.T) {
	l := lex(t)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 2000, DegMean: 0.5, DegSD: 0.25, Seed: 12})
	a := ocr.NewEngine("A", 0.99, 0.7, 13)
	b := ocr.NewEngine("B", 0.985, 0.6, 14)
	one := BaselineOneOCR(a, doc)
	two := BaselineTwoOCR(a, b, doc)
	if one <= 0.3 || one >= 1 {
		t.Errorf("one-OCR baseline %.3f implausible", one)
	}
	if two < one-0.05 {
		t.Errorf("two-OCR baseline %.3f should not be much below one-OCR %.3f", two, one)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []WordStatus{Auto, Pending, Accepted, Unreadable, WordStatus(9)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

func TestNewPipelinePanics(t *testing.T) {
	l := lex(t)
	for name, f := range map[string]func(){
		"no engines":  func() { NewPipeline(nil, l, nil, DefaultConfig()) },
		"threshold 0": func() { NewPipeline(engines(), l, nil, Config{HumanWeight: 1, MaxHumanVotes: 1}) },
		"votes 0":     func() { NewPipeline(engines(), l, nil, Config{HumanWeight: 1, AcceptThreshold: 1}) },
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

func BenchmarkIngest1kWords(b *testing.B) {
	l := lex(b)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 1000, DegMean: 0.5, DegSD: 0.25, Seed: 15})
	for b.Loop() {
		p := NewPipeline(engines(), l, seedControls(l, 10), DefaultConfig())
		p.Ingest(doc)
	}
}

func TestSloppyUsersVoteLighter(t *testing.T) {
	l := lex(t)
	cfg := DefaultConfig()
	// Fresh users carry the 0.8 reputation prior, so two reliable votes
	// total ≈ 1.6; a threshold of 1.5 is crossable by them but far out of
	// reach for a user whose controls almost always fail (weight ≈ 0.1).
	cfg.AcceptThreshold = 1.5
	cfg.OCRWeight = 0.0001 // isolate the human-vote weighting
	p := NewPipeline(engines(), l, seedControls(l, 5), cfg)
	doc := ocr.SyntheticDocument(l, ocr.DocumentConfig{NumWords: 400, DegMean: 0.7, DegSD: 0.1, Seed: 21})
	p.Ingest(doc)

	// Build a terrible control history for "sloppy": many failed controls.
	ch, ok := p.NextChallenge()
	if !ok {
		t.Skip("no challenge")
	}
	for i := 0; i < 30; i++ {
		if _, _, err := p.Submit(ch, "sloppy", "junk", "definitely-wrong"); err != nil {
			t.Fatal(err)
		}
	}
	acc, probes := p.rep.Accuracy("sloppy"), p.rep.Probes("sloppy")
	if probes != 30 || acc > 0.2 {
		t.Fatalf("sloppy accuracy = %.2f after %d failed controls", acc, probes)
	}

	// A fresh pending word: two sloppy passes must NOT reach the threshold
	// that two reliable passes would.
	ch2, ok := p.NextChallenge()
	if !ok {
		t.Skip("no second challenge")
	}
	truth, _ := p.Truth(ch2.Word)
	for i := 0; i < 2; i++ {
		_, accepted, err := p.Submit(ch2, "sloppy", truth, ch2.ControlTruth)
		if err != nil {
			t.Fatal(err)
		}
		if accepted {
			t.Fatal("two votes from a control-failing user crossed the reliable threshold")
		}
	}
	// Two reliable users crossing the same threshold on another word.
	ch3, ok := p.NextChallenge()
	if !ok {
		t.Skip("no third challenge")
	}
	truth3, _ := p.Truth(ch3.Word)
	var accepted bool
	for i := 0; i < 2; i++ {
		var err error
		_, accepted, err = p.Submit(ch3, fmt.Sprintf("reliable%d", i), truth3, ch3.ControlTruth)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !accepted {
		t.Fatal("two reliable votes did not cross the threshold")
	}
}
