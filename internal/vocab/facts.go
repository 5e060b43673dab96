package vocab

import (
	"humancomp/internal/rng"
)

// Relation is the kind of a common-sense fact, mirroring the sentence
// templates Verbosity shows to its describer ("___ is a kind of ___",
// "___ is used for ___", ...).
type Relation int

// The relations collected by Verbosity's templates.
const (
	IsA Relation = iota
	UsedFor
	HasPart
	FoundNear
	RelatedTo
	numRelations
)

// String returns the Verbosity sentence-template form of the relation.
func (r Relation) String() string {
	switch r {
	case IsA:
		return "is a kind of"
	case UsedFor:
		return "is used for"
	case HasPart:
		return "has"
	case FoundNear:
		return "is found near"
	case RelatedTo:
		return "is related to"
	default:
		return "unknown relation"
	}
}

// Relations returns all fact relations in template order.
func Relations() []Relation {
	return []Relation{IsA, UsedFor, HasPart, FoundNear, RelatedTo}
}

// Fact is a common-sense triple about a subject concept.
type Fact struct {
	Subject  int // lexicon word ID
	Relation Relation
	Object   int // lexicon word ID
}

// FactBase is a deterministic synthetic common-sense knowledge base:
// the ground truth Verbosity's guesser is trying to reach. Each concept
// has a handful of true facts across the relation templates.
type FactBase struct {
	Lexicon *Lexicon
	facts   map[int][]Fact // by subject
	index   map[Fact]bool
}

// FactBaseConfig parameterizes NewFactBase.
type FactBaseConfig struct {
	Lexicon      LexiconConfig
	FactsPerWord float64 // Poisson mean, min 2
	Seed         uint64
}

// DefaultFactBaseConfig returns the fact base used by the experiments.
func DefaultFactBaseConfig() FactBaseConfig {
	return FactBaseConfig{Lexicon: DefaultLexiconConfig(), FactsPerWord: 5, Seed: 3}
}

// NewFactBase builds a deterministic fact base from cfg.
func NewFactBase(cfg FactBaseConfig) *FactBase {
	lex := NewLexicon(cfg.Lexicon)
	src := rng.New(cfg.Seed)
	fb := &FactBase{
		Lexicon: lex,
		facts:   make(map[int][]Fact, lex.Size()),
		index:   make(map[Fact]bool),
	}
	for subj := 0; subj < lex.Size(); subj++ {
		n := src.Poisson(cfg.FactsPerWord)
		if n < 2 {
			n = 2
		}
		// Retry duplicate or self-referential draws so every concept ends
		// up with its full quota; the attempt bound keeps generation total
		// even on tiny lexicons.
		for added, attempts := 0, 0; added < n && attempts < 20*n; attempts++ {
			f := Fact{
				Subject:  subj,
				Relation: Relation(src.Intn(int(numRelations))),
				Object:   lex.SampleFrom(src),
			}
			if f.Object == subj || fb.index[f] {
				continue
			}
			fb.index[f] = true
			fb.facts[subj] = append(fb.facts[subj], f)
			added++
		}
	}
	return fb
}

// Facts returns the true facts about subject. The slice must not be modified.
func (fb *FactBase) Facts(subject int) []Fact { return fb.facts[subject] }

// IsTrue reports whether the fact holds, accepting synonym substitutions
// for the object ("a cat is found near a sofa" ≡ "... near a couch").
func (fb *FactBase) IsTrue(f Fact) bool {
	if fb.index[f] {
		return true
	}
	for _, syn := range fb.Lexicon.Synonyms(f.Object) {
		if fb.index[Fact{Subject: f.Subject, Relation: f.Relation, Object: syn}] {
			return true
		}
	}
	return false
}
