package faultinject

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Main runs a package's tests, m being its *testing.M, and exits with their
// code, or with 1 when they passed but a goroutine running this module's
// code outlived them, such as the sync loop of a WAL no test closed. The
// stragglers get up to two seconds to end. A package whose tests start
// goroutines makes it its TestMain:
//
//	func TestMain(m *testing.M) { faultinject.Main(m) }
func Main(m interface{ Run() int }) {
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
