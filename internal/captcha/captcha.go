// Package captcha implements the CAPTCHA substrate: generation and
// verification of distorted-word challenges, with behavioural models of the
// two solver populations that matter — humans (high pass rate, slowly
// degrading with distortion) and OCR bots (low pass rate, collapsing with
// distortion). The package exists to demonstrate the gating asymmetry the
// paper builds on: a test most humans pass and machines fail is a gate, and
// reCAPTCHA then recycles the human effort spent at that gate.
//
// The deterministic rng in this repository is for simulation; a production
// deployment must generate challenge secrets from crypto/rand.
package captcha

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// Challenge is one outstanding distorted-word test.
type Challenge struct {
	ID         int64
	Distortion float64 // rendering difficulty in [0, 1]
	secret     string
}

// Secret exposes the hidden answer for simulation and testing only.
func (c Challenge) Secret() string { return c.secret }

// Errors returned by Verify.
var (
	ErrUnknownChallenge = errors.New("captcha: unknown or already-answered challenge")
)

// Gate issues challenges and verifies answers. Each challenge is single
// use, as in deployment: a failed or passed challenge cannot be retried.
// Safe for concurrent use.
type Gate struct {
	mu         sync.Mutex
	lex        *vocab.Lexicon
	src        *rng.Source
	distortion float64
	nextID     int64
	pending    map[int64]Challenge
}

// NewGate returns a gate issuing challenges at the given distortion level.
func NewGate(lex *vocab.Lexicon, distortion float64, seed uint64) *Gate {
	if distortion < 0 || distortion > 1 {
		panic("captcha: distortion must be in [0, 1]")
	}
	return &Gate{
		lex:        lex,
		src:        rng.New(seed),
		distortion: distortion,
		pending:    make(map[int64]Challenge),
	}
}

// Issue returns a fresh challenge.
func (g *Gate) Issue() Challenge {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	ch := Challenge{
		ID:         g.nextID,
		Distortion: g.distortion,
		secret:     g.lex.Word(g.lex.SampleFrom(g.src)).Text,
	}
	g.pending[ch.ID] = ch
	return ch
}

// Verify consumes the challenge and reports whether answer matches the
// secret (case-insensitive, surrounding space ignored — deployed CAPTCHAs
// forgive exactly this much).
func (g *Gate) Verify(id int64, answer string) (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.pending[id]
	if !ok {
		return false, ErrUnknownChallenge
	}
	delete(g.pending, id)
	return strings.EqualFold(strings.TrimSpace(answer), ch.secret), nil
}

// BotSolver models an OCR-based CAPTCHA attack: per-character recognition
// that starts mediocre and collapses with distortion.
type BotSolver struct {
	// CharSuccess is per-character recognition probability on an
	// undistorted rendering.
	CharSuccess float64
	// DistortionPenalty scales how fast recognition falls with distortion.
	DistortionPenalty float64
	src               *rng.Source
}

// NewBotSolver returns a bot with its own random stream.
func NewBotSolver(charSuccess, distortionPenalty float64, seed uint64) *BotSolver {
	if charSuccess <= 0 || charSuccess > 1 {
		panic("captcha: CharSuccess must be in (0, 1]")
	}
	return &BotSolver{CharSuccess: charSuccess, DistortionPenalty: distortionPenalty, src: rng.New(seed)}
}

// Solve returns the bot's answer to the challenge.
func (b *BotSolver) Solve(ch Challenge) string {
	p := b.CharSuccess * (1 - b.DistortionPenalty*ch.Distortion)
	if p < 0.02 {
		p = 0.02
	}
	var out strings.Builder
	for i := 0; i < len(ch.secret); i++ {
		if b.src.Bool(p) {
			out.WriteByte(ch.secret[i])
		} else {
			out.WriteByte(byte('a' + b.src.Intn(26)))
		}
	}
	return out.String()
}

// String describes the solver for reports.
func (b *BotSolver) String() string {
	return fmt.Sprintf("captcha.BotSolver{char: %.2f, penalty: %.2f}", b.CharSuccess, b.DistortionPenalty)
}
