//go:build race

package dispatch

// raceEnabled lets the allocation gates stand down under the race
// detector, where sync.Pool deliberately drops a share of what is put back
// and every count reads high.
const raceEnabled = true
