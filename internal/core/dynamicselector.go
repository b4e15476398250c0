package core

import (
	"fmt"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// DynamicRingSelector adapts a churning DHT as a selection distribution:
// requests are addressed to whichever *current* member owns a uniform
// random point, so departed ids are never selected and fresh joiners take
// over their arcs immediately. The distribution changes between rounds,
// which Algorithm 1 permits — it only needs all nodes to share the same
// distribution within a round.
type DynamicRingSelector struct{ ring *overlay.DynamicRing }

// NewDynamicRingSelector wraps a dynamic ring.
func NewDynamicRingSelector(r *overlay.DynamicRing) (DynamicRingSelector, error) {
	if r == nil {
		return DynamicRingSelector{}, fmt.Errorf("core: dynamic ring selector needs a ring")
	}
	return DynamicRingSelector{ring: r}, nil
}

// Pick implements Selector. A rebuild failure is impossible for a ring with
// at least one member, which DynamicRing guarantees; the impossible branch
// panics rather than silently mis-selecting.
func (ds DynamicRingSelector) Pick(s *rng.Stream) int {
	id, err := ds.ring.PickOwnerID(s)
	if err != nil {
		panic(fmt.Sprintf("core: dynamic ring pick failed: %v", err))
	}
	return id
}

// N implements Selector: the id space size, matching the profile width.
func (ds DynamicRingSelector) N() int { return ds.ring.N() }

// Prepare implements Preparer: it forces the lazy ring rebuild that Pick
// would otherwise trigger, so that the round engine's workers only ever
// read the snapshot concurrently. Membership must not change during a
// round, which the round-synchronous simulations guarantee.
func (ds DynamicRingSelector) Prepare() error {
	_, _, err := ds.ring.Snapshot()
	return err
}
