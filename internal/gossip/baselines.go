package gossip

import "repro/internal/rng"

// The baseline spreading algorithms of [KSSV00] as simulated in Figure 2.
// All of them assume the ability to choose another node uniformly at random
// — the capability the dating service dispenses with. Decisions read the
// start-of-round informed set (st.informed) and record each rumor transfer
// with st.send; the round's epilogue (state.apply) informs the receivers, so
// rounds are synchronous.

// baselines is the step of each baseline algorithm; Dating has none, its
// dates come from the dating service.
var baselines = [...]stepFunc{
	Push: stepPush, Pull: stepPull, PushPull: stepPushPull,
	FairPull: stepFairPull, FairPushPull: stepFairPushPull, Dating: nil,
}

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
func stepPush(st *state, s *rng.Stream) {
	n := len(st.informed)
	for i := 0; i < n; i++ {
		if !st.f.Up(i) || !st.informed[i] {
			continue
		}
		st.send(i, pickOther(n, i, s))
	}
}

// stepPull: every uninformed node asks a uniformly random node; it becomes
// informed if the asked node was informed. The asked node serves every
// request addressed to it ("unfair": its outgoing load is unbounded).
func stepPull(st *state, s *rng.Stream) { contact(st, s, false, false) }

// stepFairPull: like PULL, but an informed node satisfies only ONE of the
// requests it received this round, chosen uniformly (the paper's fairness
// notion: bounded outgoing bandwidth).
func stepFairPull(st *state, s *rng.Stream) { contact(st, s, false, true) }

// stepPushPull: every node contacts a uniformly random node and the pair
// exchange the rumor in both directions ("double communication in each
// round", as the paper remarks).
func stepPushPull(st *state, s *rng.Stream) { contact(st, s, true, false) }

// stepFairPushPull: every node contacts a uniformly random node; pushes are
// delivered as usual, but the pull direction is fair — a contacted informed
// node answers only one of its callers.
func stepFairPushPull(st *state, s *rng.Stream) { contact(st, s, true, true) }

// contact is the round of the four pulling baselines: every live node
// (with push) or every live uninformed node (without) contacts a uniformly
// random node. With push, an informed caller sends the rumor to the node it
// called. An informed called node answers every uninformed caller, or,
// when fair, one of them chosen uniformly by reservoir sampling.
func contact(st *state, s *rng.Stream, push, fair bool) {
	n := len(st.informed)
	var winner, seen []int32
	if fair {
		if st.winner == nil {
			st.winner, st.seen = make([]int32, n), make([]int32, n)
		}
		winner, seen = st.winner, st.seen
	}
	for i := 0; i < n; i++ {
		if !st.f.Up(i) || (!push && st.informed[i]) {
			continue
		}
		t := pickOther(n, i, s)
		if !st.f.Up(t) {
			continue
		}
		if push && st.informed[i] && !st.informed[t] {
			st.send(i, t)
		}
		if !st.informed[t] || st.informed[i] {
			continue
		}
		if !fair {
			st.send(t, i)
			continue
		}
		seen[t]++
		if s.Intn(int(seen[t])) == 0 { // keep each caller with probability 1/seen
			winner[t] = int32(i) + 1
		}
	}
	for t, w := range winner {
		if w > 0 {
			st.send(t, int(w-1))
		}
		winner[t], seen[t] = 0, 0
	}
}
