package sne

import (
	"sort"

	"netdesign/internal/broadcast"
	"netdesign/internal/numeric"
)

// BindingDeviation is an LP (3) row with a positive shadow price: the
// deviation that pins down the subsidy bill. ShadowPrice is the marginal
// subsidy saved if the player at Node found entering through ViaEdge one
// unit less attractive — the designer's sensitivity report.
type BindingDeviation struct {
	Node        int
	ViaEdge     int
	EntryNode   int // the node the deviation enters the tree through
	ShadowPrice float64
}

// BindingDeviations solves the broadcast SNE LP and returns the
// constraints that are binding at the optimum, most expensive first,
// together with the optimal enforcement itself. It answers the practical
// question "which defection threats are actually costing money?". The
// shadow prices come straight from the dual vector of a pooled chain's
// solve — one per emitted row, in emission order.
func BindingDeviations(st *broadcast.State) ([]BindingDeviation, *Result, error) {
	c := chainPool.Get().(*BroadcastLPChain)
	defer chainPool.Put(c)
	c.prepare(st, 1)
	sol, res, err := c.solve(st, nil)
	if err != nil {
		return nil, nil, err
	}
	var binding []BindingDeviation
	for i, price := range sol.Duals {
		if price > numeric.Eps {
			binding = append(binding, BindingDeviation{
				Node:        c.bl.rowU[i],
				ViaEdge:     c.bl.rowEdge[i],
				EntryNode:   c.bl.rowV[i],
				ShadowPrice: price,
			})
		}
	}
	sort.Slice(binding, func(a, z int) bool {
		return binding[a].ShadowPrice > binding[z].ShadowPrice
	})
	return binding, res, nil
}
