package games

import (
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/rng"
	"humancomp/internal/session"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// ESPConfig holds the ESP rules the experiments vary; every round gives
// each player agree.MaxGuesses guesses.
type ESPConfig struct {
	// Mode selects exact or synonym-aware matching. The original game used
	// exact string matching; Canonical models later intelligent matching.
	Mode agree.MatchMode
	// PromoteAfter is how many agreements a word needs on an image before
	// it becomes taboo there.
	PromoteAfter int
	// RetireAt is the number of taboo words at which an image is
	// considered fully labeled; 0 disables retirement.
	RetireAt int
	// Seed seeds the stream PickImage draws images from.
	Seed uint64
	// ReplaySeed seeds the replay store's reservoir sampling.
	ReplaySeed uint64
}

// DefaultESPConfig mirrors the deployed game, with the rules the live
// session plane also defaults to.
func DefaultESPConfig() ESPConfig {
	return ESPConfig{
		Mode:         agree.Exact,
		PromoteAfter: agree.DefaultPromoteAfter,
		RetireAt:     agree.DefaultRetireAt,
		Seed:         1,
	}
}

// ESPRound summarizes one ESP round.
type ESPRound struct {
	ImageID  int
	Agreed   bool
	Word     int           // the agreed label, meaningful iff Agreed
	Guesses  [2][]int      // each player's guesses in order
	End      string        // why the round ended (agree.EndAgreed, ...)
	Duration time.Duration // simulated wall time of the round
}

// ESP is the ESP Game, the canonical output-agreement game: two randomly
// paired strangers see the same image and type tags until they agree on
// one. Agreement is the correctness filter — two people who cannot
// communicate and independently type the same word are almost certainly
// describing something in the image. Taboo words push later pairs past the
// labels already collected, and fully taboo'd images retire. Transcripts of
// live rounds become the recorded partners of single-player rounds.
//
// The rounds are the live service's: ESP plays them through a
// session.Core, which holds the taboo tracker, the replay store and the
// image stream, on a simulated clock. A simulated round has no round
// clock — it ends by the round's rules alone — and the simulator never
// calls Advance.
type ESP struct {
	Corpus *vocab.Corpus
	Labels *Tally
	core   *session.Core
}

// NewESP returns a game over corpus with the given configuration.
func NewESP(corpus *vocab.Corpus, cfg ESPConfig) *ESP {
	return &ESP{
		Corpus: corpus,
		Labels: newTally(corpus.Lexicon),
		core: session.NewCore(corpus.Lexicon, len(corpus.Images), cfg.Mode, cfg.PromoteAfter, cfg.RetireAt,
			rng.New(cfg.Seed), rng.New(cfg.ReplaySeed)),
	}
}

// Taboo is the taboo tracker every round of the game plays under.
func (g *ESP) Taboo() *agree.TabooTracker { return g.core.Taboo() }

// PickImage returns a random image that has not retired, or ok == false
// if the whole corpus is fully labeled.
func (g *ESP) PickImage() (int, bool) { return g.core.PickItem() }

// Play plays one live round on a random unretired image; an agreement is
// one output.
func (g *ESP) Play(a, b *worker.Worker) (int, time.Duration) {
	imgID, ok := g.PickImage()
	if !ok {
		return 0, time.Minute // corpus exhausted; idle beat
	}
	res := g.PlayRound(a, b, imgID)
	return oneIf(res.Agreed), res.Duration
}

// PlaySolo plays one round against a recorded partner that
// match.ReplayStore.Partner picks for w; ok is false when it finds none.
func (g *ESP) PlaySolo(w *worker.Worker) (int, time.Duration, bool) {
	s, ok := g.core.Partner(w.ID)
	if !ok {
		return 0, 0, false
	}
	res := g.PlayRoundReplay(w, s)
	return oneIf(res.Agreed), res.Duration, true
}

// PlayRound runs one live round between two players on the image,
// interleaving their guesses in think-time order as the live game does.
func (g *ESP) PlayRound(a, b *worker.Worker, imageID int) ESPRound {
	id, round := g.core.Open(time.Time{}, imageID, [2]string{a.ID, b.ID}, nil)
	img := g.Corpus.Image(imageID)
	players := [2]*worker.Worker{a, b}
	said := [2]map[int]bool{{}, {}}
	// next[i] is the simulated clock at which player i produces their next
	// guess; the earlier player acts first, exactly like interleaved typing.
	next := [2]time.Duration{a.ThinkTime(), b.ThinkTime()}
	var elapsed time.Duration
	for round.Ended() == "" {
		i := 0
		if round.Left(0) == 0 || (round.Left(1) > 0 && next[1] < next[0]) {
			i = 1
		}
		elapsed = next[i]
		word := players[i].GuessTag(g.Corpus.Lexicon, img, round.Taboo(), said[i])
		next[i] += players[i].ThinkTime()
		g.guess(elapsed, id, i, word, said[i])
	}
	return g.finish(round, imageID, elapsed)
}

// PlayRoundReplay runs a single-player round against a pre-recorded
// partner transcript on its image, the mechanism that keeps the game
// playable when no live partner is available.
func (g *ESP) PlayRoundReplay(a *worker.Worker, partner match.ReplaySession) ESPRound {
	id, round := g.core.Open(time.Time{}, partner.Item, [2]string{a.ID}, partner.Words)
	img := g.Corpus.Image(partner.Item)
	said := map[int]bool{}
	var elapsed time.Duration
	for round.Ended() == "" {
		elapsed += a.ThinkTime()
		g.guess(elapsed, id, 0, a.GuessTag(g.Corpus.Lexicon, img, round.Taboo(), said), said)
	}
	return g.finish(round, partner.Item, elapsed)
}

// guess plays a player's beat at the round's elapsed time and, when the
// round enters the word, adds it to what the player remembers saying.
func (g *ESP) guess(elapsed time.Duration, id session.ID, seat, word int, said map[int]bool) {
	res, _, err := g.core.Guess(time.Time{}.Add(elapsed), id, seat, word)
	if err != nil {
		panic(err) // the rounds' own seats guess lexicon words until the round ends
	}
	if res.Accepted {
		said[g.Corpus.Lexicon.Canonical(word)] = true
	}
}

// finish summarizes an ended round; an agreement enters the label tally.
func (g *ESP) finish(round *agree.OutputRound, imageID int, elapsed time.Duration) ESPRound {
	res := ESPRound{
		ImageID:  imageID,
		Guesses:  [2][]int{round.Guesses(0), round.Guesses(1)},
		End:      round.Ended(),
		Duration: elapsed,
	}
	if w, ok := round.Agreed(); ok {
		res.Agreed, res.Word = true, w
		g.Labels.Record(imageID, w)
	}
	return res
}
