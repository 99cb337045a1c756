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
// shadow prices come straight from the sparse revised simplex's dual
// vector — one per emitted row, in emission order.
func BindingDeviations(st *broadcast.State) ([]BindingDeviation, *Result, error) {
	bl := blPool.Get().(*broadcastLP)
	defer blPool.Put(bl)
	sol, res, err := solveBroadcast(st, bl, false, nil)
	if err != nil {
		return nil, nil, err
	}
	var binding []BindingDeviation
	for i, price := range sol.Duals {
		if price > numeric.Eps {
			binding = append(binding, BindingDeviation{
				Node:        bl.rowU[i],
				ViaEdge:     bl.rowEdge[i],
				EntryNode:   bl.rowV[i],
				ShadowPrice: price,
			})
		}
	}
	sort.Slice(binding, func(a, z int) bool {
		return binding[a].ShadowPrice > binding[z].ShadowPrice
	})
	return binding, res, nil
}
