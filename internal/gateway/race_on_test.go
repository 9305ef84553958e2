//go:build race

package gateway_test

// raceEnabled mirrors the race-detector build tag.
const raceEnabled = true
