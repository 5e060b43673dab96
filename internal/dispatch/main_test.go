package dispatch

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine running this module's code
// outlives its tests, such as the sync loop of a WAL no test closed.
// Stragglers get up to two seconds to end.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(2 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutine(s) running humancomp code outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines waits up to timeout for every goroutine but the caller
// that has a humancomp/ frame on its stack to end, and returns the stacks
// of those still running.
func leakedGoroutines(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		var leaked []string
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		// The first stack is the calling goroutine's own.
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			for _, line := range strings.Split(g, "\n") {
				if strings.HasPrefix(line, "humancomp/") {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}
