package lp

import (
	"fmt"
	"testing"
)

// TestWarmRetryableWrappedSentinels pins the ResolveFrom cold-retry
// trigger to errors.Is semantics: a sentinel wrapped with context — the
// way any future caller annotates errors — must still send the solver
// back to a cold start instead of surfacing the pathology.
func TestWarmRetryableWrappedSentinels(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrIterationLimit, true},
		{errSingularBasis, true},
		{errNotDualFeasible, true},
		{fmt.Errorf("lp: dual phase: %w", ErrIterationLimit), true},
		{fmt.Errorf("lp: seating basis: %w", errSingularBasis), true},
		{fmt.Errorf("lp: seating basis: %w", errNotDualFeasible), true},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", ErrIterationLimit)), true},
		{nil, false},
		{fmt.Errorf("lp: unrelated failure"), false},
	}
	for _, c := range cases {
		if got := warmRetryable(c.err); got != c.want {
			t.Errorf("warmRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
