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
	ErrRoundOver   = errors.New("agree: round already finished")
	ErrAlreadyVote = errors.New("agree: player already voted")
)

// Refusal is a guess an output-agreement round turned down in-band, as the
// game's UI would; its value is the reason a player is shown.
type Refusal string

func (r Refusal) Error() string { return "agree: guess refused: " + string(r) }

// The refusals of OutputRound.Guess.
const (
	ErrTabooWord  Refusal = "taboo"  // the word, or a synonym, is taboo this round
	ErrRepeatWord Refusal = "repeat" // the player already entered the word
	ErrNoGuesses  Refusal = "limit"  // the player has no guesses left
	ErrNoWord     Refusal = "empty"  // a beat in which the player typed nothing
)

// The deployed ESP Game's rules, the defaults of both the simulator and
// the live session plane: a word turns taboo on an item at its first
// agreement there and an item with six taboo words is fully labelled.
const (
	DefaultPromoteAfter = 1
	DefaultRetireAt     = 6
)

// MaxGuesses is each player's guesses per ESP round, a dozen as in the
// deployed game; the simulator and the live session plane both play it.
const MaxGuesses = 12

// Reasons a round ends by its own rules; Ended reports them, and a driver
// adds its own through Stop.
const (
	EndAgreed    = "agreed"
	EndPassed    = "passed"
	EndExhausted = "exhausted"
)

// OutputRound is one two-player ESP output-agreement round over a shared
// input. It holds every rule of the round, so a simulated crowd and a live
// service play the same game:
//   - every beat uses one of the player's guesses, whether the round enters
//     the word or refuses it as taboo or a repeat;
//   - in a replay round seat 1 is a recorded transcript, which plays its
//     next word before each of the live player's beats, and a recorded word
//     the round refuses is lost;
//   - the round ends on agreement, when its live players have all passed,
//     or when they have no guesses left;
//   - only a live round yields transcripts for future replays.
type OutputRound struct {
	lex      *vocab.Lexicon
	mode     MatchMode
	taboo    map[int]bool    // canonical IDs barred this round
	said     [2]map[int]bool // match keys each player has entered
	order    [2][]int        // words in submission order, for inspection
	left     [2]int          // guesses each seat may still use
	recorded []int           // seat 1's transcript in a replay round, nil in a live one
	passed   [2]bool
	agreed   int
	end      string // why the round ended; "" while it runs
}

// NewOutputRound starts a round with the given taboo words (any word whose
// canonical form is listed is rejected) and MaxGuesses guesses per player.
// A nil recorded seats two live players; otherwise seat 1 replays recorded,
// a past player's transcript, one word per beat of seat 0.
func NewOutputRound(lex *vocab.Lexicon, mode MatchMode, taboo []int, recorded []int) *OutputRound {
	r := &OutputRound{lex: lex, mode: mode, taboo: make(map[int]bool, len(taboo)), agreed: -1}
	for _, w := range taboo {
		r.taboo[lex.Canonical(w)] = true
	}
	r.said[0] = make(map[int]bool)
	r.said[1] = make(map[int]bool)
	r.left = [2]int{MaxGuesses, MaxGuesses}
	if recorded != nil {
		r.recorded, r.left[1] = recorded, len(recorded)
		r.replay()
	}
	return r
}

// key maps a word to its match identity under the round's mode.
func (r *OutputRound) key(word int) int {
	if r.mode == Canonical {
		return r.lex.Canonical(word)
	}
	return word
}

// Guess plays seat's next beat with word; a negative word is a beat in
// which the player typed nothing. The beat uses one of the seat's guesses
// and returns nil when the word was entered, or the Refusal that kept it
// out. In a replay round the recorded partner then types its next word,
// unless the round has ended. The recorded seat takes no input: naming it
// is ErrBadPlayer.
func (r *OutputRound) Guess(seat, word int) error {
	if seat < 0 || seat > 1 || seat == 1 && r.recorded != nil {
		return ErrBadPlayer
	}
	if r.end != "" {
		return ErrRoundOver
	}
	if r.left[seat] == 0 {
		return ErrNoGuesses
	}
	r.left[seat]--
	err := r.enter(seat, word)
	if r.recorded != nil && r.end == "" {
		r.replay()
	}
	if r.end == "" && r.left[0] == 0 && (r.recorded != nil || r.left[1] == 0) {
		r.end = EndExhausted
	}
	return err
}

// replay plays the recorded partner's next word while seat 0 still has a
// beat for it to precede.
func (r *OutputRound) replay() {
	if r.left[0] == 0 || r.left[1] == 0 {
		return
	}
	w := r.recorded[len(r.recorded)-r.left[1]]
	r.left[1]--
	_ = r.enter(1, w) // a refused recorded word is lost
}

// enter submits word for seat, ending the round when it matches a word the
// partner already entered.
func (r *OutputRound) enter(seat, word int) error {
	if word < 0 {
		return ErrNoWord
	}
	if r.taboo[r.lex.Canonical(word)] {
		return ErrTabooWord
	}
	k := r.key(word)
	if r.said[seat][k] {
		return ErrRepeatWord
	}
	r.said[seat][k] = true
	r.order[seat] = append(r.order[seat], word)
	if r.said[1-seat][k] {
		r.agreed, r.end = word, EndAgreed
	}
	return nil
}

// Pass records seat giving up and reports whether it had not passed
// before. A live round ends once both seats have passed, a replay round
// once its live seat has.
func (r *OutputRound) Pass(seat int) bool {
	if seat < 0 || seat > 1 || r.passed[seat] || r.end != "" {
		return false
	}
	r.passed[seat] = true
	if r.passed[0] && (r.recorded != nil || r.passed[1]) {
		r.end = EndPassed
	}
	return true
}

// Stop ends a running round for a reason outside its rules, such as a
// deadline or a player leaving. An ended round keeps its reason.
func (r *OutputRound) Stop(reason string) {
	if r.end == "" {
		r.end = reason
	}
}

// Ended returns why the round ended, or "" while it runs.
func (r *OutputRound) Ended() string { return r.end }

// Left returns how many guesses seat may still use; for the recorded seat
// of a replay round, how many recorded words it has not played.
func (r *OutputRound) Left(seat int) int { return r.left[seat] }

// AddTaboo bars word (by its canonical form) for the rest of the round —
// the live-session path for taboo promotions that land mid-game on other
// sessions of the same item. Words already entered stay entered: promotion
// only blocks future guesses, it never retroactively unwinds a round.
func (r *OutputRound) AddTaboo(word int) {
	r.taboo[r.lex.Canonical(word)] = true
}

// Taboo returns the set of canonical IDs barred this round. It is the
// round's own set, current as AddTaboo grows it; callers only read it.
func (r *OutputRound) Taboo() map[int]bool { return r.taboo }

// Agreed returns the agreed word and true once the round has matched.
func (r *OutputRound) Agreed() (int, bool) { return r.agreed, r.end == EndAgreed }

// Guesses returns the words player has entered, in order.
func (r *OutputRound) Guesses(player int) []int { return r.order[player] }

// Transcripts returns a copy of the words each seat entered, indexed by
// seat, for the replay store. A replay round returns none: its recorded
// seat is old material, and its live seat played a recording, not a
// stranger.
func (r *OutputRound) Transcripts() [][]int {
	if r.recorded != nil {
		return nil
	}
	return [][]int{append([]int(nil), r.order[0]...), append([]int(nil), r.order[1]...)}
}

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
