//go:build !race

package dispatch

const raceEnabled = false
