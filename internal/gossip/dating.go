package gossip

import (
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// datingStep adapts the dating service as a rumor spreading round: run
// Algorithm 1; the round's epilogue (state.apply) then transfers the rumor
// along every date whose sender was informed at the start of the round.
//
// Per the paper, the protocol is oblivious: informed nodes keep issuing
// receiving requests and uninformed nodes keep issuing offers (a date from
// an uninformed sender simply carries nothing useful). This wastes some
// bandwidth but keeps the protocol simple and churn-tolerant, and the
// O(log n) bound holds regardless (Theorem 4).
//
// Every round runs on the seeded engine: the per-round seed is one draw
// off the run stream, and the seeded path derives its randomness per node
// and per rendezvous, so the spreading run is bit-identical for every
// budget size — the worker count is a pure speed knob. When b is non-nil
// the round grabs the caller's worker plus whatever spare tokens the
// shared budget has that round; a nil budget runs serially.
func datingStep(svc *core.Service, b *par.Budget) stepFunc {
	return func(st *state, s *rng.Stream) ([]core.Date, error) {
		var alive func(i int) bool
		if st.dead != nil {
			// st.dead is fixed for the duration of the round, so the
			// closure is safe for the engine's concurrent workers.
			alive = func(i int) bool { return !st.dead[i] }
		}
		// One draw per round whatever the worker count, so the run stream
		// evolves identically for every budget size.
		return svc.RunRoundShared(s.Uint64(), b, alive)
	}
}

// PhaseBoundaries analyzes an I_t history against the three-phase structure
// of Theorem 4's proof: phase 1 ends when I_t reaches max(m/n, log n);
// phase 2 ends when I_t reaches m/2; phase 3 ends at completion. It returns
// the 1-based round at which each phase ended (0 if never reached).
func PhaseBoundaries(itHistory []int, m, n int) (endPhase1, endPhase2, endPhase3 int) {
	if n <= 0 {
		return 0, 0, 0
	}
	log2n := 0
	for v := 1; v < n; v <<= 1 {
		log2n++
	}
	threshold1 := m / n
	if log2n > threshold1 {
		threshold1 = log2n
	}
	if threshold1 < 1 {
		threshold1 = 1
	}
	threshold2 := m / 2
	for i, it := range itHistory {
		round := i + 1
		if endPhase1 == 0 && it >= threshold1 {
			endPhase1 = round
		}
		if endPhase2 == 0 && it >= threshold2 {
			endPhase2 = round
		}
	}
	if len(itHistory) > 0 {
		endPhase3 = len(itHistory)
	}
	return endPhase1, endPhase2, endPhase3
}
