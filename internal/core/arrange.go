package core

// This file implements the supply/demand entry point of the dating service
// on the round engine of engine.go: the caller's per-round vectors take the
// place of a Service's fixed profile. Every round is seeded, so an
// Arranger's output is a pure function of (supply, demand, selector, seed)
// and Workers=k is bit-for-bit identical to Workers=1 under any goroutine
// schedule. Storage relies on this: it can turn the Workers knob without
// changing a single published number.

import (
	"fmt"

	"repro/internal/par"
)

// Arranger runs dating rounds directly from per-node supply and demand
// vectors, reusing scratch buffers across rounds. Like Service, an Arranger
// runs one round at a time — do not call Arrange concurrently; parallelism
// happens *inside* a round via the workers argument.
type Arranger struct {
	sel    Selector
	eng    engine
	shared []Date // ArrangeShared's date buffer, overwritten by its next round
}

// NewArranger returns an Arranger over the given selection distribution.
func NewArranger(sel Selector) (*Arranger, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: arranger needs a selector")
	}
	// shared starts empty, not nil: nil asks the engine for a fresh slice.
	return &Arranger{sel: sel, shared: []Date{}}, nil
}

// N returns the number of addressable nodes.
func (a *Arranger) N() int { return a.sel.N() }

// ArrangeShared is Arrange drawing its worker count from a shared budget:
// the round runs with the caller's worker plus whatever spare tokens b has
// at this moment, released when the round is done. Because Arrange is
// worker-count independent, whatever the pool hands out is a pure speed
// knob. A nil budget arranges serially.
// The dates live in a buffer the Arranger keeps, valid until its next
// ArrangeShared, so storage's rounds allocate nothing proportional to n.
func (a *Arranger) ArrangeShared(out, in []int, seed uint64, b *par.Budget) (dates []Date, err error) {
	b.Use(0, func(workers int) {
		if dates, err = a.arrange(a.shared[:0], out, in, seed, workers); err == nil {
			a.shared = dates
		}
	})
	return dates, err
}

// Arrange runs one dating-service round: out[i] offers (units node i wants
// to send) and in[i] requests (units node i can absorb), both of which may
// be zero — protocols such as replicated storage have fluctuating per-round
// demand, and a node with nothing to offer simply stays silent that round.
// The paper's abstract description covers this directly: the service
// "randomly joins demands and supplies of some resource into couples".
//
// Entries must be non-negative, sum to at most math.MaxInt32 each way, and
// both slices must have the selector's length. Dates never exceed
// out[i]/in[i] for any node, and are returned in rendezvous order. The
// result is bit-for-bit identical for every workers count >= 1; seed alone
// selects the round's randomness.
func (a *Arranger) Arrange(out, in []int, seed uint64, workers int) ([]Date, error) {
	return a.arrange(nil, out, in, seed, workers)
}

// arrange runs one checked round, appending its dates to dst (the engine's
// buffer contract: nil is a fresh slice).
func (a *Arranger) arrange(dst []Date, out, in []int, seed uint64, workers int) ([]Date, error) {
	n := a.sel.N()
	if len(out) != n || len(in) != n {
		return nil, fmt.Errorf("core: supply/demand vectors (%d/%d) must match selector size %d", len(out), len(in), n)
	}
	if err := indexable(n, out, in); err != nil {
		return nil, err
	}
	if err := checkWorkers(workers); err != nil {
		return nil, err
	}
	return a.eng.round(dst, a.sel, out, in, nil, nil, seed, workers), nil
}
