package main

import "testing"

// TestRunLocalEveryGame plays each game local mode names with a small
// crowd and requires it to validate outputs; an unknown name is an error.
func TestRunLocalEveryGame(t *testing.T) {
	for _, game := range []string{"esp", "peekaboom", "verbosity", "tagatune", "matchin", "squigl", "phetch"} {
		t.Run(game, func(t *testing.T) {
			rep, err := runLocal(game, 40, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outputs <= 0 {
				t.Errorf("%d outputs in 2 simulated hours: %+v", rep.Outputs, rep)
			}
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := runLocal("pictionary", 40, 2, 1); err == nil {
			t.Fatal("an unknown game ran")
		}
	})
}
