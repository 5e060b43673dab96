package games

import (
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/rng"
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
	Seed     uint64
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

// Player is one seat of a simulated ESP round: it takes a think time
// before each beat and then types a tag for the image, given the words
// barred this round and the ones it has entered. *worker.Worker is the
// simulated crowd's player.
type Player interface {
	ThinkTime() time.Duration
	GuessTag(lex *vocab.Lexicon, img *vocab.Image, taboo, said map[int]bool) int
}

// ESP is the ESP Game, the canonical output-agreement game: two randomly
// paired strangers see the same image and type tags until they agree on
// one. Agreement is the correctness filter — two people who cannot
// communicate and independently type the same word are almost certainly
// describing something in the image. Taboo words push later pairs past the
// labels already collected, and fully taboo'd images retire. Transcripts of
// live rounds become the recorded partners of single-player rounds. The
// rules are agree.OutputRound's; ESP drives it on a simulated clock.
type ESP struct {
	Corpus *vocab.Corpus
	Taboo  *agree.TabooTracker
	Labels *Tally
	// Replay holds the transcripts Play records, which PlaySolo replays.
	Replay *match.ReplayStore
	cfg    ESPConfig
	src    *rng.Source
}

// NewESP returns a game over corpus with the given configuration.
func NewESP(corpus *vocab.Corpus, cfg ESPConfig) *ESP {
	return &ESP{
		Corpus: corpus,
		Taboo:  agree.NewTabooTracker(corpus.Lexicon, cfg.PromoteAfter, cfg.RetireAt),
		Labels: newTally(corpus.Lexicon),
		Replay: match.NewReplayStore(rng.New(cfg.ReplaySeed), 8),
		cfg:    cfg,
		src:    rng.New(cfg.Seed),
	}
}

// PickImage returns a random image that has not retired, or ok == false
// if the whole corpus is fully labeled.
func (g *ESP) PickImage() (int, bool) { return g.Taboo.Pick(g.src, len(g.Corpus.Images)) }

// Play plays one live round on a random unretired image and records both
// players' transcripts for replay; an agreement is one output.
func (g *ESP) Play(a, b *worker.Worker) (int, time.Duration) {
	imgID, ok := g.PickImage()
	if !ok {
		return 0, time.Minute // corpus exhausted; idle beat
	}
	round, res := g.playLive(a, b, imgID)
	ids := [2]string{a.ID, b.ID}
	for seat, words := range round.Transcripts() {
		g.Replay.Record(match.ReplaySession{Item: imgID, Player: ids[seat], Words: words})
	}
	return oneIf(res.Agreed), res.Duration
}

// PlaySolo plays one round against a recorded partner that
// match.ReplayStore.Partner picks for w; ok is false when it finds none.
func (g *ESP) PlaySolo(w *worker.Worker) (int, time.Duration, bool) {
	s, ok := g.Replay.Partner(w.ID, g.Taboo.Retired)
	if !ok {
		return 0, 0, false
	}
	res := g.PlayRoundReplay(w, s)
	return oneIf(res.Agreed), res.Duration, true
}

// PlayRound runs one round between two players on the image, interleaving
// their guesses in think-time order as the live game does. On agreement
// the label and taboo stores are updated.
func (g *ESP) PlayRound(a, b Player, imageID int) ESPRound {
	_, res := g.playLive(a, b, imageID)
	return res
}

func (g *ESP) playLive(a, b Player, imageID int) (*agree.OutputRound, ESPRound) {
	round, img := g.open(imageID, nil)
	players := [2]Player{a, b}
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
		g.guess(round, i, word, said[i])
	}
	return round, g.finish(round, imageID, elapsed)
}

// PlayRoundReplay runs a single-player round against a pre-recorded
// partner transcript on its image, the mechanism that keeps the game
// playable when no live partner is available.
func (g *ESP) PlayRoundReplay(a Player, partner match.ReplaySession) ESPRound {
	round, img := g.open(partner.Item, partner.Words)
	said := map[int]bool{}
	var elapsed time.Duration
	for round.Ended() == "" {
		elapsed += a.ThinkTime()
		g.guess(round, 0, a.GuessTag(g.Corpus.Lexicon, img, round.Taboo(), said), said)
	}
	return g.finish(round, partner.Item, elapsed)
}

// open starts a round on imageID under the image's current taboo list;
// recorded is seat 1's transcript in a replay round.
func (g *ESP) open(imageID int, recorded []int) (*agree.OutputRound, *vocab.Image) {
	round := agree.NewOutputRound(g.Corpus.Lexicon, g.cfg.Mode, g.Taboo.TabooFor(imageID), recorded)
	return round, g.Corpus.Image(imageID)
}

// guess plays a player's beat and, when the round enters the word, adds
// it to what the player remembers saying.
func (g *ESP) guess(round *agree.OutputRound, seat, word int, said map[int]bool) {
	if round.Guess(seat, word) == nil {
		said[g.Corpus.Lexicon.Canonical(word)] = true
	}
}

// finish summarizes an ended round; an agreement enters the label and
// taboo stores.
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
		g.Taboo.Record(imageID, w)
	}
	return res
}
