// Package agree implements the three agreement mechanisms the GWAP
// literature identifies as the templates behind every game with a purpose:
//
//   - output agreement (ESP Game): two players see the same input and score
//     when they independently produce the same output;
//   - inversion problems (Peekaboom, Verbosity): one player describes a
//     secret, the other must reconstruct it — success validates the hints;
//   - input agreement (TagATune): players describe their inputs to each
//     other and must decide whether the inputs are the same.
//
// The individual games are thin skins over these engines, which is also
// what makes the mechanism ablation (experiment A1) meaningful.
package agree

import (
	"errors"
	"fmt"

	"humancomp/internal/vocab"
)

// MatchMode controls when two words count as "the same output".
type MatchMode int

const (
	// Exact requires the identical word, as in the original ESP Game.
	Exact MatchMode = iota
	// Canonical accepts synonyms ("couch" matches "sofa"), as in later
	// intelligent-matching versions of the game.
	Canonical
)

// String returns the lowercase name of the mode.
func (m MatchMode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Canonical:
		return "canonical"
	default:
		return fmt.Sprintf("matchmode(%d)", int(m))
	}
}

// Errors returned by round submissions.
var (
	ErrBadPlayer   = errors.New("agree: player index out of range")
	ErrTabooWord   = errors.New("agree: word is taboo for this round")
	ErrRepeatWord  = errors.New("agree: player already entered this word")
	ErrRoundOver   = errors.New("agree: round already finished")
	ErrAlreadyVote = errors.New("agree: player already voted")
)

// OutputRound is one two-player output-agreement round over a shared input.
type OutputRound struct {
	lex    *vocab.Lexicon
	mode   MatchMode
	taboo  map[int]bool    // canonical IDs barred this round
	said   [2]map[int]bool // match keys each player has entered
	order  [2][]int        // words in submission order, for inspection
	agreed int
	done   bool
}

// NewOutputRound starts a round with the given taboo words (any word whose
// canonical form is listed is rejected).
func NewOutputRound(lex *vocab.Lexicon, mode MatchMode, taboo []int) *OutputRound {
	r := &OutputRound{lex: lex, mode: mode, taboo: make(map[int]bool, len(taboo)), agreed: -1}
	for _, w := range taboo {
		r.taboo[lex.Canonical(w)] = true
	}
	r.said[0] = make(map[int]bool)
	r.said[1] = make(map[int]bool)
	return r
}

// key maps a word to its match identity under the round's mode.
func (r *OutputRound) key(word int) int {
	if r.mode == Canonical {
		return r.lex.Canonical(word)
	}
	return word
}

// Submit enters player's next guess. It returns true when the guess matches
// a word the partner already entered, which ends the round. Taboo words and
// repeats are rejected with an error (the real game's UI refuses them).
func (r *OutputRound) Submit(player, word int) (matched bool, err error) {
	if player < 0 || player > 1 {
		return false, ErrBadPlayer
	}
	if r.done {
		return false, ErrRoundOver
	}
	if r.taboo[r.lex.Canonical(word)] {
		return false, ErrTabooWord
	}
	k := r.key(word)
	if r.said[player][k] {
		return false, ErrRepeatWord
	}
	r.said[player][k] = true
	r.order[player] = append(r.order[player], word)
	if r.said[1-player][k] {
		r.agreed = word
		r.done = true
		return true, nil
	}
	return false, nil
}

// AddTaboo bars word (by its canonical form) for the rest of the round —
// the live-session path for taboo promotions that land mid-game on other
// sessions of the same item. Words already entered stay entered: promotion
// only blocks future guesses, it never retroactively unwinds a round.
func (r *OutputRound) AddTaboo(word int) {
	r.taboo[r.lex.Canonical(word)] = true
}

// Taboo returns the canonical IDs barred this round, in no particular
// order.
func (r *OutputRound) Taboo() []int {
	out := make([]int, 0, len(r.taboo))
	for w := range r.taboo {
		out = append(out, w)
	}
	return out
}

// Agreed returns the agreed word and true once the round has matched.
func (r *OutputRound) Agreed() (int, bool) { return r.agreed, r.done && r.agreed >= 0 }

// Guesses returns the words player has entered, in order.
func (r *OutputRound) Guesses(player int) []int { return r.order[player] }

// Pass ends the round without agreement (both players gave up).
func (r *OutputRound) Pass() { r.done = true }

// InversionRound is a describer/guesser round: the describer reveals hints
// about a secret target word; the guesser's guesses are checked against it.
// The hint type is game-specific (Peekaboom pings, Verbosity facts).
type InversionRound[H any] struct {
	lex    *vocab.Lexicon
	mode   MatchMode
	target int
	hints  []H
	tries  int
	solved bool
}

// NewInversionRound starts a round around the secret target word.
func NewInversionRound[H any](lex *vocab.Lexicon, mode MatchMode, target int) *InversionRound[H] {
	return &InversionRound[H]{lex: lex, mode: mode, target: target}
}

// AddHint records the describer's next hint. Hints after the round is
// solved are rejected with ErrRoundOver.
func (r *InversionRound[H]) AddHint(h H) error {
	if r.solved {
		return ErrRoundOver
	}
	r.hints = append(r.hints, h)
	return nil
}

// Guess checks the guesser's word against the secret. Solving the round
// validates every hint revealed so far.
func (r *InversionRound[H]) Guess(word int) (solved bool, err error) {
	if r.solved {
		return false, ErrRoundOver
	}
	r.tries++
	if r.mode == Canonical && r.lex.AreSynonyms(word, r.target) ||
		r.mode == Exact && word == r.target {
		r.solved = true
	}
	return r.solved, nil
}

// Hints returns the hints revealed so far (validated iff Solved).
func (r *InversionRound[H]) Hints() []H { return r.hints }

// Tries returns the number of guesses made.
func (r *InversionRound[H]) Tries() int { return r.tries }

// Solved reports whether the guesser reached the target.
func (r *InversionRound[H]) Solved() bool { return r.solved }

// InputRound is one input-agreement round: the system knows whether the two
// players' inputs are the same; each player votes "same" (0) or
// "different" (1); the round succeeds when both votes are correct, which
// validates the descriptions exchanged during the round.
type InputRound struct {
	same  bool
	votes [2]int // -1 until cast
	tags  [2][]int
}

// NewInputRound starts a round whose hidden truth is same.
func NewInputRound(same bool) *InputRound {
	return &InputRound{same: same, votes: [2]int{-1, -1}}
}

// Describe records a tag player sent to their partner during the round.
func (r *InputRound) Describe(player, word int) error {
	if player < 0 || player > 1 {
		return ErrBadPlayer
	}
	r.tags[player] = append(r.tags[player], word)
	return nil
}

// Vote casts player's same/different judgment (0 same, 1 different).
func (r *InputRound) Vote(player, v int) error {
	if player < 0 || player > 1 {
		return ErrBadPlayer
	}
	if v != 0 && v != 1 {
		return fmt.Errorf("agree: vote must be 0 or 1, got %d", v)
	}
	if r.votes[player] != -1 {
		return ErrAlreadyVote
	}
	r.votes[player] = v
	return nil
}

// Complete reports whether both players have voted.
func (r *InputRound) Complete() bool { return r.votes[0] != -1 && r.votes[1] != -1 }

// Success reports whether both votes were correct; only then are the
// exchanged descriptions trusted as outputs.
func (r *InputRound) Success() bool {
	if !r.Complete() {
		return false
	}
	want := 1
	if r.same {
		want = 0
	}
	return r.votes[0] == want && r.votes[1] == want
}

// Tags returns the descriptions player contributed.
func (r *InputRound) Tags(player int) []int { return r.tags[player] }
