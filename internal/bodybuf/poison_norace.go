//go:build !race

package bodybuf

const poisonOnRelease = false
