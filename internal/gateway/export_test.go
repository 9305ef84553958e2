package gateway

// MaxForwardBytes exposes the relayed-body bound to the external tests.
const MaxForwardBytes = maxForwardBytes
