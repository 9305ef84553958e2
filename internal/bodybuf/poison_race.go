//go:build race

package bodybuf

// poisonOnRelease makes Release overwrite the bytes it gives up, so that a
// read after the owner's Release is both wrong and a reported data race.
const poisonOnRelease = true
