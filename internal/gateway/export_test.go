package gateway

// MaxForwardBytes exposes the relayed-body bound to the external tests.
const MaxForwardBytes = maxForwardBytes

// SetEdgeBounds replaces the edge variant cache's fixed bounds, so that a
// test can overflow them with a small working set. Call it before any
// traffic.
func (g *Gateway) SetEdgeBounds(variantsPerPath int, maxBytes int64) {
	g.edge.maxVariants, g.edge.maxBytes = variantsPerPath, maxBytes
}
