package games

import (
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// ESPConfig parameterizes an ESP game.
type ESPConfig struct {
	// Mode selects exact or synonym-aware matching. The original game used
	// exact string matching; Canonical models later intelligent matching.
	Mode agree.MatchMode
	// PromoteAfter is how many agreements a word needs on an image before
	// it becomes taboo there. The deployed game promoted after the first.
	PromoteAfter int
	// RetireAt is the number of taboo words at which an image is
	// considered fully labeled; 0 disables retirement.
	RetireAt int
	// MaxGuesses bounds each player's guesses per round; the pair passes
	// when both run out.
	MaxGuesses int
	Seed       uint64
	// ReplaySeed seeds the replay store's reservoir sampling.
	ReplaySeed uint64
}

// DefaultESPConfig mirrors the deployed game: taboo after one agreement,
// retirement at six taboo words, around a dozen guesses per round.
func DefaultESPConfig() ESPConfig {
	return ESPConfig{
		Mode:         agree.Exact,
		PromoteAfter: 1,
		RetireAt:     6,
		MaxGuesses:   12,
		Seed:         1,
	}
}

// ESPRound summarizes one ESP round.
type ESPRound struct {
	ImageID  int
	Agreed   bool
	Word     int           // the agreed label, meaningful iff Agreed
	Guesses  [2][]int      // each player's guesses in order
	Duration time.Duration // simulated wall time of the round
}

// ESP is the ESP Game, the canonical output-agreement game: two randomly
// paired strangers see the same image and type tags until they agree on
// one. Agreement is the correctness filter — two people who cannot
// communicate and independently type the same word are almost certainly
// describing something in the image. Taboo words push later pairs past the
// labels already collected, and fully taboo'd images retire. Transcripts of
// live rounds become the recorded partners of single-player rounds.
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
	if cfg.MaxGuesses < 1 {
		panic("games: ESP MaxGuesses must be >= 1")
	}
	return &ESP{
		Corpus: corpus,
		Taboo:  agree.NewTabooTracker(corpus.Lexicon, cfg.PromoteAfter, cfg.RetireAt),
		Labels: newTally(corpus.Lexicon),
		Replay: match.NewReplayStore(rng.New(cfg.ReplaySeed), 8),
		cfg:    cfg,
		src:    rng.New(cfg.Seed),
	}
}

// PickImage returns a uniformly random image that has not retired, or
// ok == false if the whole corpus is fully labeled.
func (g *ESP) PickImage() (int, bool) {
	n := len(g.Corpus.Images)
	start := g.src.Intn(n)
	for i := 0; i < n; i++ {
		id := (start + i) % n
		if !g.Taboo.Retired(id) {
			return id, true
		}
	}
	return 0, false
}

// Play plays one live round on a random unretired image and records both
// players' transcripts for replay; an agreement is one output.
func (g *ESP) Play(a, b *worker.Worker) (int, time.Duration) {
	imgID, ok := g.PickImage()
	if !ok {
		return 0, time.Minute // corpus exhausted; idle beat
	}
	res := g.PlayRound(a, b, imgID)
	for i, w := range [2]*worker.Worker{a, b} {
		g.Replay.Record(match.ReplaySession{Item: imgID, Player: w.ID, Words: res.Guesses[i]})
	}
	return oneIf(res.Agreed), res.Duration
}

// PlaySolo plays one round against a recorded partner, on an item that
// has a transcript, skipping retired images and the player's own
// recordings; ok is false when no such transcript turns up.
func (g *ESP) PlaySolo(w *worker.Worker) (int, time.Duration, bool) {
	for attempts := 0; attempts < 8; attempts++ {
		s, ok := g.Replay.Any()
		if !ok {
			return 0, 0, false
		}
		if s.Player == w.ID || g.Taboo.Retired(s.Item) {
			continue
		}
		res := g.PlayRoundReplay(w, match.NewReplayer(s), s.Item)
		return oneIf(res.Agreed), res.Duration, true
	}
	return 0, 0, false
}

// PlayRound runs one round between two workers on the image, interleaving
// their guesses in think-time order as the live game does. On agreement
// the label and taboo stores are updated.
func (g *ESP) PlayRound(a, b *worker.Worker, imageID int) ESPRound {
	img, round, tabooSet := g.begin(imageID)
	players := [2]*worker.Worker{a, b}
	said := [2]map[int]bool{{}, {}}
	// next[i] is the simulated clock at which player i produces their next
	// guess; the earlier player acts first, exactly like interleaved typing.
	next := [2]time.Duration{players[0].ThinkTime(), players[1].ThinkTime()}
	budget := [2]int{g.cfg.MaxGuesses, g.cfg.MaxGuesses}
	var elapsed time.Duration

	res := ESPRound{ImageID: imageID}
	for budget[0] > 0 || budget[1] > 0 {
		i := 0
		if budget[0] <= 0 || (budget[1] > 0 && next[1] < next[0]) {
			i = 1
		}
		elapsed = next[i]
		w := players[i]
		word := w.GuessTag(g.Corpus.Lexicon, img, tabooSet, said[i])
		budget[i]--
		next[i] += w.ThinkTime()
		if word < 0 {
			continue // player has nothing new to say this beat
		}
		matched, err := round.Submit(i, word)
		if err != nil {
			// Taboo violations (spammers) and repeats burn the guess.
			continue
		}
		said[i][g.Corpus.Lexicon.Canonical(word)] = true
		if matched {
			res.Agreed, res.Word = true, word
			break
		}
	}
	return g.finish(round, res, elapsed)
}

// PlayRoundReplay runs a single-player round against a pre-recorded
// partner transcript, the mechanism that keeps the game playable when no
// live partner is available. The recorded partner "types" its guesses at
// the pace they appear in the transcript (one per live-player beat).
func (g *ESP) PlayRoundReplay(a *worker.Worker, rp *match.Replayer, imageID int) ESPRound {
	img, round, tabooSet := g.begin(imageID)
	said := map[int]bool{}
	var elapsed time.Duration

	res := ESPRound{ImageID: imageID}
	for guess := 0; guess < g.cfg.MaxGuesses; guess++ {
		// Recorded partner plays its next line first (it "typed" already).
		if w, ok := rp.Next(); ok {
			if matched, err := round.Submit(1, w); err == nil && matched {
				res.Agreed, res.Word = true, w
				break
			}
		}
		elapsed += a.ThinkTime()
		word := a.GuessTag(g.Corpus.Lexicon, img, tabooSet, said)
		if word < 0 {
			continue
		}
		matched, err := round.Submit(0, word)
		if err != nil {
			continue
		}
		said[g.Corpus.Lexicon.Canonical(word)] = true
		if matched {
			res.Agreed, res.Word = true, word
			break
		}
	}
	return g.finish(round, res, elapsed)
}

// begin opens a round on imageID under the image's current taboo list,
// which it also returns as a set for the players' guessing.
func (g *ESP) begin(imageID int) (*vocab.Image, *agree.OutputRound, map[int]bool) {
	tabooList := g.Taboo.TabooFor(imageID)
	tabooSet := make(map[int]bool, len(tabooList))
	for _, w := range tabooList {
		tabooSet[w] = true
	}
	return g.Corpus.Image(imageID), agree.NewOutputRound(g.Corpus.Lexicon, g.cfg.Mode, tabooList), tabooSet
}

// finish ends a round: a pair that did not agree passes, and an agreement
// enters the label and taboo stores.
func (g *ESP) finish(round *agree.OutputRound, res ESPRound, elapsed time.Duration) ESPRound {
	if !res.Agreed {
		round.Pass()
	}
	res.Guesses = [2][]int{round.Guesses(0), round.Guesses(1)}
	res.Duration = elapsed
	if res.Agreed {
		g.Labels.Record(res.ImageID, res.Word)
		g.Taboo.Record(res.ImageID, res.Word)
	}
	return res
}
