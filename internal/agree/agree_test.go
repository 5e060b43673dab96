package agree

import (
	"errors"
	"testing"
	"testing/quick"

	"humancomp/internal/vocab"
)

func lex(t testing.TB) *vocab.Lexicon {
	t.Helper()
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 200, ZipfS: 1, SynonymRate: 0.3, Seed: 1})
}

// synonymPair returns two distinct words in the same synonym group,
// or skips the test if none exists.
func synonymPair(t *testing.T, l *vocab.Lexicon) (int, int) {
	t.Helper()
	for id := 0; id < l.Size(); id++ {
		if g := l.Synonyms(id); len(g) >= 2 {
			return g[0], g[1]
		}
	}
	t.Skip("lexicon has no synonym group")
	return 0, 0
}

// submit plays one beat and reports whether it ended the round in
// agreement.
func submit(r *OutputRound, seat, word int) (bool, error) {
	err := r.Guess(seat, word)
	_, agreed := r.Agreed()
	return agreed && err == nil, err
}

func TestOutputAgreementExactMatch(t *testing.T) {
	l := lex(t)
	r := NewOutputRound(l, Exact, nil, nil)
	if m, err := submit(r, 0, 5); err != nil || m {
		t.Fatalf("first guess: %v %v", m, err)
	}
	if m, err := submit(r, 1, 7); err != nil || m {
		t.Fatalf("non-matching guess: %v %v", m, err)
	}
	m, err := submit(r, 1, 5)
	if err != nil || !m {
		t.Fatalf("matching guess: %v %v", m, err)
	}
	if w, ok := r.Agreed(); !ok || w != 5 {
		t.Fatalf("Agreed = %d, %v", w, ok)
	}
	if r.Ended() != EndAgreed {
		t.Fatalf("Ended = %q after a match", r.Ended())
	}
	if _, err := submit(r, 0, 9); !errors.Is(err, ErrRoundOver) {
		t.Fatalf("submit after match: %v", err)
	}
}

func TestOutputAgreementExactRejectsSynonyms(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	r := NewOutputRound(l, Exact, nil, nil)
	_, _ = submit(r, 0, a)
	if m, _ := submit(r, 1, b); m {
		t.Fatal("exact mode matched synonyms")
	}
}

func TestOutputAgreementCanonicalMatchesSynonyms(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	r := NewOutputRound(l, Canonical, nil, nil)
	_, _ = submit(r, 0, a)
	if m, _ := submit(r, 1, b); !m {
		t.Fatal("canonical mode did not match synonyms")
	}
}

func TestOutputAgreementTaboo(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	r := NewOutputRound(l, Exact, []int{a}, nil)
	if _, err := submit(r, 0, a); !errors.Is(err, ErrTabooWord) {
		t.Fatalf("taboo word accepted: %v", err)
	}
	// A synonym of a taboo word is also rejected: taboo is by concept.
	if _, err := submit(r, 0, b); !errors.Is(err, ErrTabooWord) {
		t.Fatalf("synonym of taboo accepted: %v", err)
	}
}

func TestOutputAgreementRepeatRejected(t *testing.T) {
	l := lex(t)
	r := NewOutputRound(l, Exact, nil, nil)
	_, _ = submit(r, 0, 5)
	if _, err := submit(r, 0, 5); !errors.Is(err, ErrRepeatWord) {
		t.Fatalf("repeat accepted: %v", err)
	}
	// The partner repeating the word is a match, not a repeat.
	if m, err := submit(r, 1, 5); err != nil || !m {
		t.Fatalf("partner match: %v %v", m, err)
	}
}

func TestOutputAgreementBadPlayer(t *testing.T) {
	r := NewOutputRound(lex(t), Exact, nil, nil)
	if _, err := submit(r, 2, 5); !errors.Is(err, ErrBadPlayer) {
		t.Fatalf("bad player: %v", err)
	}
}

func TestOutputAgreementPass(t *testing.T) {
	r := NewOutputRound(lex(t), Exact, nil, nil)
	_, _ = submit(r, 0, 1)
	if !r.Pass(0) || r.Pass(0) {
		t.Fatal("Pass must report only a seat's first pass")
	}
	if r.Ended() != "" {
		t.Fatal("one live seat's pass ended the round")
	}
	r.Pass(1)
	if r.Ended() != EndPassed {
		t.Fatalf("Ended = %q after both passed", r.Ended())
	}
	if _, ok := r.Agreed(); ok {
		t.Fatal("passed round must not report agreement")
	}
	if len(r.Guesses(0)) != 1 || len(r.Guesses(1)) != 0 {
		t.Fatal("guess records wrong")
	}
}

// TestOutputAgreementSymmetric: the mechanism must not care which player
// says the word first.
func TestOutputAgreementSymmetric(t *testing.T) {
	l := lex(t)
	f := func(wordRaw uint8, order bool) bool {
		w := int(wordRaw) % l.Size()
		r := NewOutputRound(l, Exact, nil, nil)
		p0, p1 := 0, 1
		if order {
			p0, p1 = 1, 0
		}
		if _, err := submit(r, p0, w); err != nil {
			return false
		}
		m, err := submit(r, p1, w)
		return err == nil && m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInversionRound(t *testing.T) {
	l := lex(t)
	r := NewInversionRound[string](l, Exact, 9)
	if err := r.AddHint("clue-1"); err != nil {
		t.Fatal(err)
	}
	if solved, err := r.Guess(3); err != nil || solved {
		t.Fatalf("wrong guess: %v %v", solved, err)
	}
	if err := r.AddHint("clue-2"); err != nil {
		t.Fatal(err)
	}
	solved, err := r.Guess(9)
	if err != nil || !solved {
		t.Fatalf("target guess: %v %v", solved, err)
	}
	if r.Tries() != 2 || !r.Solved() || len(r.Hints()) != 2 || r.target != 9 {
		t.Fatalf("round state: tries=%d solved=%v hints=%d", r.Tries(), r.Solved(), len(r.Hints()))
	}
	if err := r.AddHint("late"); !errors.Is(err, ErrRoundOver) {
		t.Fatalf("hint after solve: %v", err)
	}
	if _, err := r.Guess(9); !errors.Is(err, ErrRoundOver) {
		t.Fatalf("guess after solve: %v", err)
	}
}

func TestInversionCanonicalAcceptsSynonym(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	r := NewInversionRound[int](l, Canonical, a)
	if solved, _ := r.Guess(b); !solved {
		t.Fatal("canonical inversion rejected synonym of target")
	}
	rExact := NewInversionRound[int](l, Exact, a)
	if solved, _ := rExact.Guess(b); solved {
		t.Fatal("exact inversion accepted synonym of target")
	}
}

func TestInputRoundSuccessRequiresBothCorrect(t *testing.T) {
	cases := []struct {
		same    bool
		v0, v1  int
		success bool
	}{
		{true, 0, 0, true},
		{true, 0, 1, false},
		{true, 1, 1, false},
		{false, 1, 1, true},
		{false, 0, 1, false},
	}
	for _, c := range cases {
		r := NewInputRound(c.same)
		if err := r.Vote(0, c.v0); err != nil {
			t.Fatal(err)
		}
		if r.Complete() {
			t.Fatal("complete after one vote")
		}
		if err := r.Vote(1, c.v1); err != nil {
			t.Fatal(err)
		}
		if !r.Complete() {
			t.Fatal("not complete after both votes")
		}
		if r.Success() != c.success {
			t.Errorf("same=%v votes=%d,%d: success=%v want %v", c.same, c.v0, c.v1, r.Success(), c.success)
		}
	}
}

func TestInputRoundValidation(t *testing.T) {
	r := NewInputRound(true)
	if err := r.Vote(2, 0); !errors.Is(err, ErrBadPlayer) {
		t.Fatalf("bad player vote: %v", err)
	}
	if err := r.Vote(0, 3); err == nil {
		t.Fatal("vote 3 accepted")
	}
	if err := r.Vote(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Vote(0, 1); !errors.Is(err, ErrAlreadyVote) {
		t.Fatalf("double vote: %v", err)
	}
	if r.Success() {
		t.Fatal("incomplete round cannot succeed")
	}
	if err := r.Describe(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := r.Describe(5, 42); !errors.Is(err, ErrBadPlayer) {
		t.Fatalf("bad player describe: %v", err)
	}
	if got := r.Tags(0); len(got) != 1 || got[0] != 42 {
		t.Fatalf("Tags = %v", got)
	}
	if !r.same {
		t.Fatal("round lost its ground truth")
	}
}

func TestTabooTrackerPromotionAndRetirement(t *testing.T) {
	l := lex(t)
	tr := NewTabooTracker(l, 2, 2)
	if tr.Record(1, 5) {
		t.Fatal("promoted after one agreement (promoteAfter=2)")
	}
	if !tr.Record(1, 5) {
		t.Fatal("not promoted after two agreements")
	}
	if tr.Record(1, 5) {
		t.Fatal("re-promoted an existing taboo word")
	}
	if got := tr.TabooFor(1); len(got) != 1 || got[0] != l.Canonical(5) {
		t.Fatalf("TabooFor = %v", got)
	}
	if tr.Retired(1) {
		t.Fatal("retired with 1 taboo word (retireAt=2)")
	}
	tr.Record(1, 90)
	tr.Record(1, 90)
	if !tr.Retired(1) {
		t.Fatal("not retired with 2 taboo words")
	}
	if n := tr.counts[1][l.Canonical(5)]; n != 3 {
		t.Fatalf("agreements = %d", n)
	}
	// Other items unaffected.
	if tr.TabooFor(2) != nil || tr.Retired(2) {
		t.Fatal("taboo leaked across items")
	}
}

func TestTabooTrackerSynonymsShareCounts(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	tr := NewTabooTracker(l, 2, 0)
	tr.Record(1, a)
	if !tr.Record(1, b) {
		t.Fatal("synonym agreements should pool toward promotion")
	}
	if tr.Retired(1) {
		t.Fatal("retireAt=0 must disable retirement")
	}
}

func TestTabooTrackerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("promoteAfter 0 did not panic")
		}
	}()
	NewTabooTracker(lex(t), 0, 5)
}

func TestMatchModeString(t *testing.T) {
	if Exact.String() != "exact" || Canonical.String() != "canonical" {
		t.Error("mode strings wrong")
	}
	if MatchMode(7).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

// TestOutputRoundTabooNonCanonicalExact pins the taboo contract in Exact
// mode: taboo is by concept even when matching is literal. A round seeded
// with a non-canonical member of a synonym group must reject every member
// of the group — canonical, the listed word, and its siblings — while
// unrelated words still submit fine.
func TestOutputRoundTabooNonCanonicalExact(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	// Pick whichever of the pair is NOT canonical, so the taboo list
	// itself holds a non-canonical ID.
	nonCanon := a
	if l.Canonical(a) == a {
		nonCanon = b
	}
	r := NewOutputRound(l, Exact, []int{nonCanon}, nil)
	for _, w := range l.Synonyms(nonCanon) {
		if _, err := submit(r, 0, w); !errors.Is(err, ErrTabooWord) {
			t.Fatalf("group member %d accepted despite taboo on %d: %v", w, nonCanon, err)
		}
	}
	if _, err := submit(r, 0, l.Canonical(nonCanon)); !errors.Is(err, ErrTabooWord) {
		t.Fatalf("canonical form accepted despite non-canonical taboo: %v", err)
	}
	// An unrelated word still goes through.
	other := -1
	for id := 0; id < l.Size(); id++ {
		if !l.AreSynonyms(id, nonCanon) {
			other = id
			break
		}
	}
	if _, err := submit(r, 0, other); err != nil {
		t.Fatalf("unrelated word rejected: %v", err)
	}
}

// TestOutputRoundAddTaboo covers mid-round promotion: AddTaboo blocks the
// word (and its synonyms) for future guesses without unwinding guesses
// already entered.
func TestOutputRoundAddTaboo(t *testing.T) {
	l := lex(t)
	a, b := synonymPair(t, l)
	r := NewOutputRound(l, Exact, nil, nil)
	if _, err := submit(r, 0, a); err != nil {
		t.Fatalf("pre-promotion guess rejected: %v", err)
	}
	r.AddTaboo(a)
	if _, err := submit(r, 1, a); !errors.Is(err, ErrTabooWord) {
		t.Fatalf("promoted word accepted: %v", err)
	}
	if _, err := submit(r, 1, b); !errors.Is(err, ErrTabooWord) {
		t.Fatalf("synonym of promoted word accepted: %v", err)
	}
	// The earlier guess is still on the record.
	if g := r.Guesses(0); len(g) != 1 || g[0] != a {
		t.Fatalf("Guesses(0) = %v", g)
	}
	if len(r.Taboo()) != 1 || !r.Taboo()[l.Canonical(a)] {
		t.Fatalf("Taboo() = %v, want {%d}", r.Taboo(), l.Canonical(a))
	}
	if r.Ended() != "" {
		t.Fatal("AddTaboo ended the round")
	}
}

// plainLex is a lexicon without synonyms, so distinct IDs never share a
// concept.
func plainLex() *vocab.Lexicon {
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 200, ZipfS: 1, SynonymRate: 0, Seed: 1})
}

// TestOutputRoundRefusalsUseGuesses pins the guess budget: a taboo word, a
// repeat and an empty beat each use a guess, and a live round is
// exhausted only when both seats have none left.
func TestOutputRoundRefusalsUseGuesses(t *testing.T) {
	r := NewOutputRound(plainLex(), Exact, []int{9}, nil)
	if err := r.Guess(0, 5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		word int
		want error
	}{{9, ErrTabooWord}, {5, ErrRepeatWord}} {
		if err := r.Guess(0, c.word); !errors.Is(err, c.want) {
			t.Fatalf("guess %d: %v, want %v", c.word, err, c.want)
		}
	}
	if r.Left(0) != MaxGuesses-3 {
		t.Fatalf("Left(0) = %d after three beats", r.Left(0))
	}
	for w := 100; r.Left(0) > 0; w++ {
		if err := r.Guess(0, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Guess(0, 6); !errors.Is(err, ErrNoGuesses) {
		t.Fatalf("guess past the budget: %v", err)
	}
	var ref Refusal
	if err := r.Guess(1, -1); !errors.As(err, &ref) || ref != "empty" {
		t.Fatalf("empty beat: %v", err)
	}
	for w := 150; r.Left(1) > 1; w++ {
		_ = r.Guess(1, w)
	}
	if r.Ended() != "" {
		t.Fatalf("round ended with a guess left: %q", r.Ended())
	}
	_ = r.Guess(1, 8)
	if r.Ended() != EndExhausted {
		t.Fatalf("Ended = %q, want exhausted", r.Ended())
	}
	if err := r.Guess(1, 1); !errors.Is(err, ErrRoundOver) {
		t.Fatalf("guess after the end: %v", err)
	}
}

// TestOutputRoundReplay pins the recorded partner: it plays one word before
// each live beat, a recorded word the round refuses is lost, the recorded
// seat takes no input, the round is exhausted when the live seat runs out,
// and a replay round yields no transcripts.
func TestOutputRoundReplay(t *testing.T) {
	l := plainLex()
	// The recording's first word is taboo now: lost, not retried.
	r := NewOutputRound(l, Exact, []int{40}, []int{40, 41, 43, 44, 45})
	if g := r.Guesses(1); len(g) != 0 || r.Left(1) != 4 {
		t.Fatalf("after the opening beat: entered %v, %d left", g, r.Left(1))
	}
	if err := r.Guess(1, 41); !errors.Is(err, ErrBadPlayer) {
		t.Fatalf("input on the recorded seat: %v", err)
	}
	// The partner typed 41 before this beat; 43 is its next word.
	if err := r.Guess(0, 43); err != nil || r.Ended() != "" {
		t.Fatalf("first beat: %v, ended %q", err, r.Ended())
	}
	if g := r.Guesses(1); len(g) != 1 || g[0] != 41 {
		t.Fatalf("recorded seat entered %v, want [41]", g)
	}
	// The partner's next word, typed after this beat, matches the first.
	if err := r.Guess(0, 1); err != nil {
		t.Fatal(err)
	}
	if w, ok := r.Agreed(); !ok || w != 43 {
		t.Fatalf("Agreed = %d, %v", w, ok)
	}
	if r.Transcripts() != nil {
		t.Fatal("a replay round yielded transcripts")
	}

	// A recording longer than the budget: the live seat's last beat ends
	// the round, with the recording's tail unplayed.
	recorded := make([]int, MaxGuesses+3)
	for i := range recorded {
		recorded[i] = 50 + i
	}
	r = NewOutputRound(l, Exact, nil, recorded)
	for w := 1; w <= MaxGuesses; w++ {
		_ = r.Guess(0, w)
	}
	if r.Ended() != EndExhausted || len(r.Guesses(1)) != MaxGuesses {
		t.Fatalf("Ended = %q with recorded words %v", r.Ended(), r.Guesses(1))
	}
	if r.Pass(0) {
		t.Fatal("pass after the end")
	}
}

func TestOutputRoundTranscriptsAndStop(t *testing.T) {
	r := NewOutputRound(plainLex(), Exact, nil, nil)
	_ = r.Guess(0, 3)
	_ = r.Guess(1, 4)
	// One seat passing leaves a live round running.
	if !r.Pass(0) || r.Ended() != "" {
		t.Fatalf("one live seat's pass: ended %q", r.Ended())
	}
	r.Stop("timeout")
	r.Stop("partner_left")
	if r.Ended() != "timeout" {
		t.Fatalf("Ended = %q, want the first stop's reason", r.Ended())
	}
	tr := r.Transcripts()
	if len(tr) != 2 || len(tr[0]) != 1 || tr[0][0] != 3 || tr[1][0] != 4 {
		t.Fatalf("Transcripts = %v", tr)
	}
	tr[0][0] = 99
	if r.Guesses(0)[0] != 3 {
		t.Fatal("Transcripts shares the round's storage")
	}
	// A replay round ends on its live seat's pass.
	rp := NewOutputRound(plainLex(), Exact, nil, []int{7})
	rp.Pass(0)
	if rp.Ended() != EndPassed {
		t.Fatalf("replay round after the live pass: %q", rp.Ended())
	}
}
