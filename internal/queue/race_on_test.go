//go:build race

package queue

// raceEnabled lets the allocation pins stand down under the race detector,
// whose instrumentation allocates on its own account.
const raceEnabled = true
