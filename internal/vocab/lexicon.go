// Package vocab provides the synthetic world model the simulator runs on:
// a lexicon of tags with Zipfian popularity and synonym structure, an image
// corpus with ground-truth objects and locations, and a common-sense fact
// base. It substitutes for the proprietary corpora of the deployed GWAP
// systems (see DESIGN.md §3): experiments need ground truth to score
// accuracy, and the statistical shape that drives agreement dynamics —
// a few head tags, a long tail, synonyms, salience — is preserved.
package vocab

import (
	"fmt"
	"strings"

	"humancomp/internal/rng"
)

// Word is a lexicon entry. Rank 0 is the most popular word.
type Word struct {
	ID   int
	Text string
	Rank int
}

// Lexicon is a fixed set of synthetic words with Zipfian popularity and
// synonym groups. Word IDs are dense in [0, Size).
type Lexicon struct {
	words     []Word
	canonical []int   // canonical[id] = representative ID of id's synonym group
	groups    [][]int // groups[g] = member IDs; indexed via groupOf
	groupOf   []int
	zipf      *rng.Zipf
	src       *rng.Source
}

// LexiconConfig parameterizes NewLexicon.
type LexiconConfig struct {
	Size        int     // number of words; must be > 0
	ZipfS       float64 // popularity skew; 1.0 is classic Zipf
	SynonymRate float64 // probability a word joins the previous word's group
	Seed        uint64
}

// DefaultLexiconConfig returns the configuration used by the experiments:
// 2,000 words, classic Zipf skew, and roughly one word in five sharing a
// synonym group with a neighbor.
func DefaultLexiconConfig() LexiconConfig {
	return LexiconConfig{Size: 2000, ZipfS: 1.0, SynonymRate: 0.2, Seed: 1}
}

// NewLexicon builds a deterministic lexicon from cfg.
func NewLexicon(cfg LexiconConfig) *Lexicon {
	if cfg.Size <= 0 {
		panic("vocab: lexicon size must be positive")
	}
	src := rng.New(cfg.Seed)
	lex := &Lexicon{
		words:     make([]Word, cfg.Size),
		canonical: make([]int, cfg.Size),
		groupOf:   make([]int, cfg.Size),
		src:       src,
	}
	for i := 0; i < cfg.Size; i++ {
		text := syntheticWord(i)
		lex.words[i] = Word{ID: i, Text: text, Rank: i}
	}
	// Build synonym groups: consecutive words merge with probability
	// SynonymRate, giving geometric group sizes like real thesauri.
	g := -1
	for i := 0; i < cfg.Size; i++ {
		if i == 0 || !src.Bool(cfg.SynonymRate) {
			g++
			lex.groups = append(lex.groups, nil)
		}
		lex.groups[g] = append(lex.groups[g], i)
		lex.groupOf[i] = g
		lex.canonical[i] = lex.groups[g][0]
	}
	lex.zipf = rng.NewZipf(src.Split(), cfg.Size, cfg.ZipfS)
	return lex
}

// syntheticWord deterministically produces a pronounceable unique word for
// index i: base-(consonant×vowel) syllables, so word 0 is "ba", 1 is "be"...
func syntheticWord(i int) string {
	consonants := "bdfgklmnprstvz"
	vowels := "aeiou"
	n := i
	var b strings.Builder
	for {
		c := consonants[n%len(consonants)]
		n /= len(consonants)
		v := vowels[n%len(vowels)]
		n /= len(vowels)
		b.WriteByte(c)
		b.WriteByte(v)
		if n == 0 {
			break
		}
		n--
	}
	return b.String()
}

// Size returns the number of words.
func (l *Lexicon) Size() int { return len(l.words) }

// Word returns the word with the given ID; it panics on out-of-range IDs.
func (l *Lexicon) Word(id int) Word {
	if id < 0 || id >= len(l.words) {
		panic(fmt.Sprintf("vocab: word ID %d out of range [0,%d)", id, len(l.words)))
	}
	return l.words[id]
}

// Sample draws a word ID with Zipfian popularity (head words most likely).
func (l *Lexicon) Sample() int { return l.zipf.Draw() }

// SampleFrom draws a word ID with Zipfian popularity using the caller's
// source, leaving the lexicon's internal stream untouched.
func (l *Lexicon) SampleFrom(src *rng.Source) int {
	// The Zipf CDF is immutable; only the draw consumes randomness, so
	// rebuilding the search over the shared CDF with the caller's uniform
	// draw is cheap and keeps the lexicon read-only after construction.
	return l.zipf.DrawWith(src)
}

// Canonical returns the representative ID of id's synonym group. Two words
// are synonyms iff their Canonical IDs are equal.
func (l *Lexicon) Canonical(id int) int { return l.canonical[id] }

// Synonyms returns all IDs in id's synonym group, including id itself.
// The returned slice must not be modified.
func (l *Lexicon) Synonyms(id int) []int { return l.groups[l.groupOf[id]] }

// AreSynonyms reports whether a and b denote the same concept.
func (l *Lexicon) AreSynonyms(a, b int) bool { return l.canonical[a] == l.canonical[b] }

// Misspell returns text with a single character-level typo drawn from src:
// substitution, transposition, deletion or duplication. Words of length 1
// are returned unchanged.
func Misspell(text string, src *rng.Source) string {
	if len(text) < 2 {
		return text
	}
	b := []byte(text)
	switch src.Intn(4) {
	case 0: // substitute
		i := src.Intn(len(b))
		b[i] = byte('a' + src.Intn(26))
	case 1: // transpose
		i := src.Intn(len(b) - 1)
		b[i], b[i+1] = b[i+1], b[i]
	case 2: // delete
		i := src.Intn(len(b))
		b = append(b[:i], b[i+1:]...)
	default: // duplicate
		i := src.Intn(len(b))
		b = append(b[:i+1], b[i:]...)
	}
	return string(b)
}
