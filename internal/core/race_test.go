//go:build race

package core

// raceEnabled reports a -race build. The race runtime's sync.Pool
// drops a random share of Put items on purpose, so allocation-count
// tests over pooled scratch cannot hold under it.
const raceEnabled = true
