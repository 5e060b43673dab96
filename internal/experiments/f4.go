package experiments

import (
	"humancomp/internal/antifraud"
	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/worker"
)

// F4 reproduces the collusion-resistance figure. Colluders agree on a
// scripted word to inject junk labels. Undefended, they choose their own
// partners (coordinated entry) and every agreement is accepted; defended,
// pairing is random, taboo throttles repeats, and the entropy and
// pair-bias detectors discard labels from flagged players. The poisoning
// rate (bad labels among accepted) must stay low under defenses and
// explode without them.
func F4(o Options) Result {
	res := Result{
		ID:    "F4",
		Title: "Label poisoning vs colluder fraction, defenses on/off",
		Header: []string{"colluders", "poisoned (no defense)", "accepted (no defense)",
			"poisoned (defended)", "accepted (defended)", "flagged players"},
	}
	rounds := o.n(8000, 800)

	for i, frac := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		noDefPoison, noDefAccepted := f4Run(o, uint64(400+10*i), frac, rounds, false, nil)
		flagged := map[string]bool{}
		defPoison, defAccepted := f4Run(o, uint64(400+10*i), frac, rounds, true, flagged)
		res.AddRow(pct(frac), pct(noDefPoison), d(noDefAccepted),
			pct(defPoison), d(defAccepted), d(len(flagged)))
	}
	res.AddNote("published shape: defenses keep the poisoning rate near the honest-error floor while undefended collusion scales with the colluder fraction")
	return res
}

// f4Run plays rounds and returns (badLabelFraction, acceptedLabels).
func f4Run(o Options, seedOff uint64, colluderFrac float64, rounds int, defended bool, flaggedOut map[string]bool) (float64, int) {
	corpus := expCorpus(o, seedOff)
	// A deliberately small population relative to the round count, so the
	// detectors see enough history per player — the regime the deployed
	// systems operate in.
	popCfg := worker.DefaultPopulationConfig(o.n(150, 50))
	popCfg.ColluderFrac = colluderFrac
	popCfg.ColludeWord = 777 % corpus.Lexicon.Size()
	popCfg.Seed = o.Seed + seedOff + 1
	ws := worker.NewPopulation(popCfg)
	for _, w := range ws {
		w.Profile.ThinkMean = 0
	}
	var colluders, all []*worker.Worker
	for _, w := range ws {
		all = append(all, w)
		if w.Behavior == worker.Colluder {
			colluders = append(colluders, w)
		}
	}

	cfg := games.DefaultESPConfig()
	cfg.Seed = o.Seed + seedOff + 2
	cfg.RetireAt = 0
	// Taboo is off in both arms: its diversity/precision trade is studied
	// in F2, and leaving it on would confound the anti-collusion signal.
	cfg.PromoteAfter = 1 << 30
	g := games.NewESP(corpus, cfg)
	src := rng.New(o.Seed + seedOff + 3)

	entropy := antifraud.NewEntropyDetector(5, 1.8)
	pairs := antifraud.NewPairBias(5, 2.0)

	type roundRec struct {
		a, b   string
		word   int
		img    int
		agreed bool
	}
	var recs []roundRec

	for r := 0; r < rounds; r++ {
		var a, b *worker.Worker
		if !defended && len(colluders) >= 2 && src.Bool(colluderFrac) {
			// Coordinated entry: a colluder pair walks in together.
			i := src.Intn(len(colluders))
			j := src.Intn(len(colluders) - 1)
			if j >= i {
				j++
			}
			a, b = colluders[i], colluders[j]
		} else {
			i := src.Intn(len(all))
			j := src.Intn(len(all) - 1)
			if j >= i {
				j++
			}
			a, b = all[i], all[j]
		}
		img, ok := g.PickImage()
		if !ok {
			break
		}
		out := g.PlayRound(a, b, img)
		recs = append(recs, roundRec{a: a.ID, b: b.ID, word: out.Word, img: img, agreed: out.Agreed})
		if defended {
			pairs.RecordRound(a.ID, b.ID, out.Agreed)
			if out.Agreed {
				entropy.Record(a.ID, corpus.Lexicon.Canonical(out.Word))
				entropy.Record(b.ID, corpus.Lexicon.Canonical(out.Word))
			}
		}
	}

	accepted, bad := 0, 0
	for _, rec := range recs {
		if !rec.agreed {
			continue
		}
		if defended {
			if entropy.Suspicious(rec.a) || entropy.Suspicious(rec.b) || pairs.Suspicious(rec.a, rec.b) {
				if flaggedOut != nil {
					if entropy.Suspicious(rec.a) {
						flaggedOut[rec.a] = true
					}
					if entropy.Suspicious(rec.b) {
						flaggedOut[rec.b] = true
					}
				}
				continue
			}
		}
		accepted++
		if !corpus.IsTrueTag(rec.img, rec.word) {
			bad++
		}
	}
	if accepted == 0 {
		return 0, 0
	}
	return float64(bad) / float64(accepted), accepted
}
