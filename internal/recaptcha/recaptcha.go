// Package recaptcha implements the reCAPTCHA pipeline: channeling the
// human effort spent solving CAPTCHAs into correcting OCR. Scanned words
// that the OCR engines agree on (and that look like real words) are
// accepted automatically; the rest become CAPTCHA challenges, paired with a
// control word whose answer is already known. A user who passes the control
// is trusted as human, and their reading of the unknown word becomes a
// weighted vote. Human votes weigh 1.0, the original OCR guesses 0.5; a
// candidate reading that accumulates enough weight is accepted and the word
// joins the control pool. Words that defy agreement are marked unreadable.
package recaptcha

import (
	"errors"
	"fmt"
	"strings"

	"humancomp/internal/ocr"
	"humancomp/internal/quality"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// WordStatus is a scanned word's position in the pipeline.
type WordStatus int

// Pipeline word states.
const (
	// Auto: the OCR engines agreed on a dictionary word; no humans needed.
	Auto WordStatus = iota
	// Pending: the word is being served as a CAPTCHA challenge.
	Pending
	// Accepted: a reading crossed the vote threshold.
	Accepted
	// Unreadable: the vote budget was exhausted without agreement.
	Unreadable
)

// String returns the lowercase name of the status.
func (s WordStatus) String() string {
	switch s {
	case Auto:
		return "auto"
	case Pending:
		return "pending"
	case Accepted:
		return "accepted"
	case Unreadable:
		return "unreadable"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Config parameterizes a Pipeline.
type Config struct {
	// HumanWeight and OCRWeight are the vote weights of a verified human
	// answer and of an original OCR guess. AcceptThreshold is the weight a
	// candidate reading needs to be accepted. The deployed system used
	// 1.0 / 0.5 / 2.5.
	HumanWeight     float64
	OCRWeight       float64
	AcceptThreshold float64
	// MaxHumanVotes is the vote budget per word before it is declared
	// unreadable.
	MaxHumanVotes int
	Seed          uint64
}

// DefaultConfig mirrors the deployed parameters.
func DefaultConfig() Config {
	return Config{
		HumanWeight:     1.0,
		OCRWeight:       0.5,
		AcceptThreshold: 2.5,
		MaxHumanVotes:   10,
		Seed:            1,
	}
}

// WordID indexes a word ingested into the pipeline.
type WordID int

type wordState struct {
	truth       string // ground truth, used only for scoring
	degradation float64
	status      WordStatus
	votes       map[string]float64
	humanVotes  int
	accepted    string
	ocrReads    []string
}

// Challenge pairs an unknown word with a control word of known answer.
type Challenge struct {
	Word               WordID
	Degradation        float64
	ControlTruth       string // what the control rendering actually says
	ControlDegradation float64
}

// Errors returned by Submit.
var (
	ErrNotPending = errors.New("recaptcha: word is not pending")
)

// Pipeline is one reCAPTCHA deployment over a document stream.
type Pipeline struct {
	cfg     Config
	engines []*ocr.Engine
	dict    map[string]bool
	words   []wordState
	pending []WordID
	control []Challenge // solved words recycled as controls (truth+deg)
	src     *rng.Source
	// rep tracks each user's control-word track record; votes are scaled
	// by the resulting accuracy estimate so habitual control-failers
	// (sloppy typists, semi-automated solvers) count less even when they
	// pass a given control.
	rep *quality.Reputation

	humanPasses   int64 // control-verified submissions
	humanFailures int64 // control-failed submissions
}

// NewPipeline returns a pipeline using the given OCR engines and treating
// lex's words as the dictionary. seedControls bootstraps the control pool
// with words of known text (the deployed system started from words the OCR
// read with high confidence and manual seeds).
func NewPipeline(engines []*ocr.Engine, lex *vocab.Lexicon, seedControls []ocr.Word, cfg Config) *Pipeline {
	if len(engines) == 0 {
		panic("recaptcha: at least one OCR engine required")
	}
	if cfg.AcceptThreshold <= 0 || cfg.HumanWeight <= 0 {
		panic("recaptcha: weights and threshold must be positive")
	}
	if cfg.MaxHumanVotes < 1 {
		panic("recaptcha: MaxHumanVotes must be >= 1")
	}
	dict := make(map[string]bool, lex.Size())
	for i := 0; i < lex.Size(); i++ {
		dict[lex.Word(i).Text] = true
	}
	p := &Pipeline{
		cfg:     cfg,
		engines: engines,
		dict:    dict,
		src:     rng.New(cfg.Seed),
		rep:     quality.NewReputation(0.8, 4),
	}
	for _, w := range seedControls {
		p.control = append(p.control, Challenge{ControlTruth: w.Text, ControlDegradation: w.Degradation})
	}
	return p
}

// IngestReport summarizes one document's classification.
type IngestReport struct {
	Total      int
	Auto       int // OCR consensus on a dictionary word
	Suspicious int // became CAPTCHA challenges
}

// Ingest runs the document through the OCR engines and classifies each word.
func (p *Pipeline) Ingest(doc ocr.Document) IngestReport {
	rep := IngestReport{Total: len(doc.Words)}
	for _, w := range doc.Words {
		reads := make([]string, len(p.engines))
		for i, e := range p.engines {
			reads[i], _ = e.Read(w.Text, w.Degradation)
		}
		agreed := true
		for _, r := range reads[1:] {
			if r != reads[0] {
				agreed = false
				break
			}
		}
		st := wordState{
			truth:       w.Text,
			degradation: w.Degradation,
			votes:       make(map[string]float64),
			ocrReads:    reads,
		}
		if agreed && p.dict[reads[0]] {
			st.status = Auto
			st.accepted = reads[0]
			rep.Auto++
		} else {
			st.status = Pending
			for _, r := range reads {
				if r != "" {
					st.votes[normalize(r)] += p.cfg.OCRWeight
				}
			}
			rep.Suspicious++
			p.pending = append(p.pending, WordID(len(p.words)))
		}
		p.words = append(p.words, st)
	}
	return rep
}

// NextChallenge returns a challenge pairing a random pending word with a
// random control word, or ok == false when no words are pending or the
// control pool is empty. Resolved words are dropped from the pending pool
// lazily as they are drawn, keeping each call O(1) amortized.
func (p *Pipeline) NextChallenge() (Challenge, bool) {
	if len(p.control) == 0 {
		return Challenge{}, false
	}
	for len(p.pending) > 0 {
		i := p.src.Intn(len(p.pending))
		id := p.pending[i]
		if p.words[id].status != Pending {
			last := len(p.pending) - 1
			p.pending[i] = p.pending[last]
			p.pending = p.pending[:last]
			continue
		}
		ctl := p.control[p.src.Intn(len(p.control))]
		w := &p.words[id]
		return Challenge{
			Word:               id,
			Degradation:        w.degradation,
			ControlTruth:       ctl.ControlTruth,
			ControlDegradation: ctl.ControlDegradation,
		}, true
	}
	return Challenge{}, false
}

// Submit processes one user's answers to a challenge: the control answer
// first (humanity check), then — if it passes — the unknown-word answer as
// a vote, weighted by the user's control-word track record. userID ties
// the submission to that record; an empty ID is treated as an anonymous
// one-off with prior weight. It reports whether the user passed the
// control and whether the unknown word reached acceptance.
func (p *Pipeline) Submit(ch Challenge, userID, unknownAnswer, controlAnswer string) (humanOK, accepted bool, err error) {
	if int(ch.Word) < 0 || int(ch.Word) >= len(p.words) {
		return false, false, ErrNotPending
	}
	w := &p.words[ch.Word]
	if w.status != Pending {
		return false, false, ErrNotPending
	}
	pass := strings.EqualFold(strings.TrimSpace(controlAnswer), ch.ControlTruth)
	if userID != "" {
		p.rep.Record(userID, pass)
	}
	if !pass {
		p.humanFailures++
		return false, false, nil
	}
	p.humanPasses++
	w.humanVotes++
	if a := normalize(unknownAnswer); a != "" {
		weight := p.cfg.HumanWeight
		if userID != "" {
			// Scale by the smoothed control accuracy: a user who fails
			// half their controls casts roughly half a vote.
			weight *= p.rep.Accuracy(userID)
		}
		w.votes[a] += weight
		if w.votes[a] >= p.cfg.AcceptThreshold {
			w.status = Accepted
			w.accepted = a
			// The solved word joins the control pool and starts verifying
			// future humans — the pipeline feeds itself.
			p.control = append(p.control, Challenge{
				ControlTruth:       a,
				ControlDegradation: w.degradation,
			})
			return true, true, nil
		}
	}
	if w.humanVotes >= p.cfg.MaxHumanVotes {
		w.status = Unreadable
	}
	return true, false, nil
}

func normalize(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Report summarizes pipeline progress and quality against ground truth.
type Report struct {
	Total      int
	Auto       int
	Accepted   int
	Pending    int
	Unreadable int

	// Resolved is Auto + Accepted; Coverage is Resolved / Total.
	Resolved int
	Coverage float64
	// Accuracy is the fraction of resolved words whose final reading
	// matches the scan's ground truth.
	Accuracy float64
	// HumanPasses / HumanFailures count control-word outcomes.
	HumanPasses, HumanFailures int64
}

// Report scores the pipeline against the hidden ground truth.
func (p *Pipeline) Report() Report {
	r := Report{Total: len(p.words), HumanPasses: p.humanPasses, HumanFailures: p.humanFailures}
	right := 0
	for i := range p.words {
		w := &p.words[i]
		switch w.status {
		case Auto:
			r.Auto++
		case Accepted:
			r.Accepted++
		case Pending:
			r.Pending++
		case Unreadable:
			r.Unreadable++
		}
		if w.status == Auto || w.status == Accepted {
			r.Resolved++
			if w.accepted == w.truth {
				right++
			}
		}
	}
	if r.Resolved > 0 {
		r.Accuracy = float64(right) / float64(r.Resolved)
	}
	if r.Total > 0 {
		r.Coverage = float64(r.Resolved) / float64(r.Total)
	}
	return r
}

// Truth exposes a word's ground truth for simulation drivers (the workers
// must "see" the rendering to transcribe it).
func (p *Pipeline) Truth(id WordID) (text string, degradation float64) {
	w := &p.words[id]
	return w.truth, w.degradation
}

// BaselineOneOCR transcribes the document with a single engine and returns
// the word accuracy — the "standard OCR" baseline of the evaluation.
func BaselineOneOCR(e *ocr.Engine, doc ocr.Document) float64 {
	want := make([]string, len(doc.Words))
	got := make([]string, len(doc.Words))
	for i, w := range doc.Words {
		want[i] = w.Text
		got[i], _ = e.Read(w.Text, w.Degradation)
	}
	return ocr.WordAccuracy(want, got)
}

// BaselineTwoOCR transcribes with two engines, taking their common reading
// when they agree and the more confident engine's reading otherwise — the
// strongest OCR-only configuration, and still no match for the human vote.
func BaselineTwoOCR(a, b *ocr.Engine, doc ocr.Document) float64 {
	want := make([]string, len(doc.Words))
	got := make([]string, len(doc.Words))
	for i, w := range doc.Words {
		want[i] = w.Text
		ra, ca := a.Read(w.Text, w.Degradation)
		rb, cb := b.Read(w.Text, w.Degradation)
		if ra == rb || ca >= cb {
			got[i] = ra
		} else {
			got[i] = rb
		}
	}
	return ocr.WordAccuracy(want, got)
}
