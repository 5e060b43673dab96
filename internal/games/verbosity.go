package games

import (
	"sort"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Verbosity's rules, as deployed.
const (
	// verbosityMaxHints bounds the narrator's clues per round.
	verbosityMaxHints = 6
	// verbosityMaxGuesses bounds the guesser's tries per round.
	verbosityMaxGuesses = 8
	// cluePower is how much each true clue narrows the guesser's search:
	// the chance of recognizing the secret after k true clues is
	// skill × (1 − (1−cluePower)^k).
	cluePower = 0.4
)

// VerbosityRound summarizes one narrator/guesser round.
type VerbosityRound struct {
	Subject  int
	Solved   bool
	Hints    []vocab.Fact
	Tries    int
	Duration time.Duration
}

// Verbosity is the inversion-problem game that collects common-sense
// facts. The narrator sees a secret word and fills sentence templates
// ("___ is a kind of ___") with clues; the guesser types words until they
// hit the secret. A solved round certifies the clues were informative, so
// its facts enter the knowledge store; facts confirmed by enough
// independent rounds become trusted.
type Verbosity struct {
	FactBase *vocab.FactBase
	Facts    *FactStore
	src      *rng.Source
}

// NewVerbosity returns a game over fb whose random draws are seeded with
// seed.
func NewVerbosity(fb *vocab.FactBase, seed uint64) *Verbosity {
	return &Verbosity{
		FactBase: fb,
		Facts:    NewFactStore(),
		src:      rng.New(seed),
	}
}

// pickConcept returns a random secret word, Zipf-weighted like the
// deployed game's frequency-ordered word list.
func (g *Verbosity) pickConcept() int { return g.FactBase.Lexicon.SampleFrom(g.src) }

// Play plays one round about a random secret word; a solved round
// contributes each of its facts as an output.
func (g *Verbosity) Play(narrator, guesser *worker.Worker) (int, time.Duration) {
	res := g.PlayRound(narrator, guesser, g.pickConcept())
	if !res.Solved {
		return 0, res.Duration
	}
	return len(res.Hints), res.Duration
}

// PlayRound runs one round about subject. Facts from solved rounds are
// recorded into the fact store.
func (g *Verbosity) PlayRound(narrator, guesser *worker.Worker, subject int) VerbosityRound {
	given := map[vocab.Fact]bool{}
	trueClues := 0
	round, elapsed := playInversion(g.src, g.FactBase.Lexicon, subject, verbosityMaxHints, verbosityMaxGuesses, narrator, guesser,
		func(int) vocab.Fact {
			fact := narrator.DescribeFact(g.FactBase, subject, given)
			given[fact] = true
			return fact
		},
		// Only true clues narrow the search — misleading clues keep the
		// guesser guessing in the dark.
		func(_ int, fact vocab.Fact) float64 {
			if g.FactBase.IsTrue(fact) {
				trueClues++
			}
			return 1 - pow1m(cluePower, trueClues)
		})
	res := VerbosityRound{
		Subject:  subject,
		Solved:   round.Solved(),
		Hints:    round.Hints(),
		Tries:    round.Tries(),
		Duration: elapsed,
	}
	if res.Solved {
		for _, f := range res.Hints {
			g.Facts.Record(f)
		}
	}
	return res
}

// PlayAssessment runs one assessment round: a rater is shown a collected
// fact and votes on whether it is true — the deployed game's second stage,
// which screens out the plausible-sounding junk that repetition alone
// cannot (popular-word free associations repeat too). The vote is recorded
// in the fact store; the returned vote is true when the rater endorsed the
// fact.
func (g *Verbosity) PlayAssessment(rater *worker.Worker, f vocab.Fact) (endorsed bool, d time.Duration) {
	d = rater.ThinkTime()
	// Judge returns 0 when the rater believes "yes/same"; raters judge the
	// fact's actual truth with their skill-limited accuracy.
	endorsed = rater.Judge(g.FactBase.IsTrue(f)) == 0
	g.Facts.Assess(f, endorsed)
	return endorsed, d
}

// pow1m returns (1-p)^k.
func pow1m(p float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= 1 - p
	}
	return out
}

// FactStore counts how many solved rounds each fact appeared in and
// accumulates assessment votes.
type FactStore struct {
	counts  map[vocab.Fact]int
	endorse map[vocab.Fact]int
	reject  map[vocab.Fact]int
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		counts:  make(map[vocab.Fact]int),
		endorse: make(map[vocab.Fact]int),
		reject:  make(map[vocab.Fact]int),
	}
}

// Record adds one validation for f.
func (s *FactStore) Record(f vocab.Fact) { s.counts[f]++ }

// Assess records one assessment vote for f.
func (s *FactStore) Assess(f vocab.Fact, endorsed bool) {
	if endorsed {
		s.endorse[f]++
	} else {
		s.reject[f]++
	}
}

// Verified returns the facts with at least minCount collection rounds whose
// assessment votes are at least minVotes total with an endorse share of at
// least minShare, in the same deterministic order as Confirmed.
func (s *FactStore) Verified(minCount, minVotes int, minShare float64) []vocab.Fact {
	var out []vocab.Fact
	for _, f := range s.Confirmed(minCount) {
		e, r := s.endorse[f], s.reject[f]
		if e+r < minVotes {
			continue
		}
		if float64(e)/float64(e+r) >= minShare {
			out = append(out, f)
		}
	}
	return out
}

// Count returns f's validation count.
func (s *FactStore) Count(f vocab.Fact) int { return s.counts[f] }

// Confirmed returns all facts validated by at least minCount rounds, in a
// deterministic order.
func (s *FactStore) Confirmed(minCount int) []vocab.Fact {
	var out []vocab.Fact
	for f, c := range s.counts {
		if c >= minCount {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Relation != b.Relation {
			return a.Relation < b.Relation
		}
		return a.Object < b.Object
	})
	return out
}
