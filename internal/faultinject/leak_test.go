package faultinject

import (
	"strings"
	"testing"
	"time"
)

// parkUntil closes started and blocks until stop is closed: a goroutine of
// this module's code for the leak check to find.
func parkUntil(started chan<- struct{}, stop <-chan struct{}) {
	close(started)
	<-stop
}

// TestLeakedGoroutinesFindsAndForgets: a goroutine running this module's
// code is reported, with its stack, for as long as it runs, and no longer
// once it has ended within the wait.
func TestLeakedGoroutinesFindsAndForgets(t *testing.T) {
	ours := func(stacks []string) bool {
		for _, g := range stacks {
			if strings.Contains(g, "faultinject.parkUntil") {
				return true
			}
		}
		return false
	}
	started, stop := make(chan struct{}), make(chan struct{})
	go parkUntil(started, stop)
	<-started
	if leaked := leakedGoroutines(0); !ours(leaked) {
		t.Fatalf("a parked goroutine was not reported; got %d stacks:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
	close(stop)
	if ours(leakedGoroutines(2 * time.Second)) {
		t.Fatal("a goroutine that ended is still reported")
	}
}
