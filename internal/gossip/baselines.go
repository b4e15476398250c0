package gossip

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// The baseline spreading algorithms of [KSSV00] as simulated in Figure 2.
// All of them assume the ability to choose another node uniformly at random
// — the capability the dating service dispenses with. Decisions read the
// start-of-round informed set (st.informed) and record each rumor transfer
// with st.send; the round's epilogue (state.apply) informs the receivers, so
// rounds are synchronous. A baseline round cannot fail.

// pickOther returns a uniform node other than i (a node gains nothing from
// contacting itself).
func pickOther(n, i int, s *rng.Stream) int {
	j := s.Intn(n - 1)
	if j >= i {
		j++
	}
	return j
}

// stepPush: every informed node sends the rumor to a uniformly random node.
// Receivers accept any number of simultaneous pushes (the "much higher
// bandwidth" benefit the paper notes for unfair schemes).
func stepPush(st *state, s *rng.Stream) ([]core.Date, error) {
	n := len(st.informed)
	for i := 0; i < n; i++ {
		if !st.up(i) || !st.informed[i] {
			continue
		}
		st.send(i, pickOther(n, i, s))
	}
	return st.dates, nil
}

// stepPull: every uninformed node asks a uniformly random node; it becomes
// informed if the asked node was informed. The asked node serves every
// request addressed to it ("unfair": its outgoing load is unbounded).
func stepPull(st *state, s *rng.Stream) ([]core.Date, error) {
	n := len(st.informed)
	for i := 0; i < n; i++ {
		if !st.up(i) || st.informed[i] {
			continue
		}
		t := pickOther(n, i, s)
		if st.up(t) && st.informed[t] {
			st.send(t, i)
		}
	}
	return st.dates, nil
}

// stepPushPull: every node contacts a uniformly random node and the pair
// exchange the rumor in both directions ("double communication in each
// round", as the paper remarks).
func stepPushPull(st *state, s *rng.Stream) ([]core.Date, error) {
	n := len(st.informed)
	for i := 0; i < n; i++ {
		if !st.up(i) {
			continue
		}
		t := pickOther(n, i, s)
		if !st.up(t) {
			continue
		}
		if st.informed[i] && !st.informed[t] {
			st.send(i, t)
		}
		if st.informed[t] && !st.informed[i] {
			st.send(t, i)
		}
	}
	return st.dates, nil
}

// stepFairPull: like PULL, but an informed node satisfies only ONE of the
// requests it received this round, chosen uniformly (the paper's fairness
// notion: bounded outgoing bandwidth).
func stepFairPull(st *state, s *rng.Stream) ([]core.Date, error) {
	n := len(st.informed)
	// winner[t] is the reservoir-sampled single requester node t will serve.
	winner := make([]int, n)
	seen := make([]int, n)
	for i := range winner {
		winner[i] = -1
	}
	for i := 0; i < n; i++ {
		if !st.up(i) || st.informed[i] {
			continue
		}
		t := pickOther(n, i, s)
		if !st.up(t) || !st.informed[t] {
			continue
		}
		seen[t]++
		if s.Intn(seen[t]) == 0 { // keep each requester with prob 1/seen
			winner[t] = i
		}
	}
	for t := 0; t < n; t++ {
		if w := winner[t]; w >= 0 {
			st.send(t, w)
		}
	}
	return st.dates, nil
}

// stepFairPushPull: every node contacts a uniformly random node; pushes are
// delivered as usual, but the pull direction is fair — a contacted informed
// node answers only one of its callers.
func stepFairPushPull(st *state, s *rng.Stream) ([]core.Date, error) {
	n := len(st.informed)
	winner := make([]int, n)
	seen := make([]int, n)
	for i := range winner {
		winner[i] = -1
	}
	for i := 0; i < n; i++ {
		if !st.up(i) {
			continue
		}
		t := pickOther(n, i, s)
		if !st.up(t) {
			continue
		}
		// Push direction: caller delivers the rumor with its own bandwidth.
		if st.informed[i] && !st.informed[t] {
			st.send(i, t)
		}
		// Pull direction: t will answer exactly one caller.
		if st.informed[t] && !st.informed[i] {
			seen[t]++
			if s.Intn(seen[t]) == 0 {
				winner[t] = i
			}
		}
	}
	for t := 0; t < n; t++ {
		if w := winner[t]; w >= 0 {
			st.send(t, w)
		}
	}
	return st.dates, nil
}
