package gossip

import (
	"slices"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/run"
)

// Direct unit tests of the baseline step functions: each algorithm's
// one-round semantics, independent of full runs.

func informedState(n int, informed ...int) *state {
	st := newState(&run.Flat{N: n}, bandwidth.Homogeneous(n, 1))
	for _, i := range informed {
		st.inform(i)
	}
	return st
}

// play runs one round of step and its epilogue and returns the round's
// loads, counted from the transfers the step recorded.
func play(st *state, step stepFunc, s *rng.Stream) (out, in []int) {
	st.dates = st.dates[:0]
	step(st, s)
	out, in = core.RoundResult{Dates: st.dates}.PerNode(len(st.informed))
	st.apply(st.dates)
	return out, in
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func TestStepPushInformsOneTargetPerInformed(t *testing.T) {
	st := informedState(10, 0, 1)
	out, _ := play(st, stepPush, rng.New(1))
	// Exactly two pushes happened; at most 2 new nodes (collisions allowed).
	newCount := countTrue(st.informed) - 2
	if newCount < 0 || newCount > 2 {
		t.Fatalf("push informed %d new nodes from 2 senders", newCount)
	}
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("push out-loads %v", out[:2])
	}
	// Informed senders stay informed.
	if !st.informed[0] || !st.informed[1] {
		t.Fatal("push made a sender forget")
	}
}

func TestStepPushNoSelfTarget(t *testing.T) {
	// With 2 nodes, an informed node must always push to the other one.
	st := informedState(2, 0)
	play(st, stepPush, rng.New(2))
	if !st.informed[1] {
		t.Fatal("push with n=2 did not inform the other node")
	}
}

func TestStepPullOnlyFromInformed(t *testing.T) {
	st := informedState(2, 0)
	out, _ := play(st, stepPull, rng.New(3))
	// Node 1 pulls from node 0 (the only other node), which is informed.
	if !st.informed[1] {
		t.Fatal("pull from the unique informed neighbor failed")
	}
	if out[0] != 1 {
		t.Fatalf("server load %d, want 1", out[0])
	}
}

func TestStepPullNothingWhenNooneInformed(t *testing.T) {
	st := informedState(8) // nobody informed
	play(st, stepPull, rng.New(4))
	if countTrue(st.informed) != 0 {
		t.Fatal("pull informed someone out of thin air")
	}
}

func TestStepPushPullBothDirections(t *testing.T) {
	// n=2: whichever direction the contacts go, both end up informed.
	st := informedState(2, 0)
	play(st, stepPushPull, rng.New(5))
	if !st.informed[0] || !st.informed[1] {
		t.Fatalf("push-pull with n=2 did not converge in one round: %v", st.informed)
	}
}

func TestStepFairPullServesExactlyOne(t *testing.T) {
	// 1 informed node, 9 uninformed: every requester targets node 0 (the
	// only informed one it can profit from), but only one is served.
	const n = 10
	st := informedState(n, 0)
	out, _ := play(st, stepFairPull, rng.New(6))
	newCount := countTrue(st.informed) - 1
	if newCount > 1 {
		t.Fatalf("fair pull served %d requesters from one informed node", newCount)
	}
	if out[0] > 1 {
		t.Fatalf("fair pull out-load %d", out[0])
	}
}

func TestStepFairPullUniformAmongRequesters(t *testing.T) {
	// The single served requester must be uniform among those who asked.
	// With n=3, nodes 1 and 2 always ask node 0 or each other; count who
	// gets informed over many trials when both asked node 0.
	counts := [3]int{}
	s := rng.New(7)
	const trials = 60000
	for i := 0; i < trials; i++ {
		st := informedState(3, 0)
		play(st, stepFairPull, s)
		for j := 1; j < 3; j++ {
			if st.informed[j] {
				counts[j]++
			}
		}
	}
	// By symmetry nodes 1 and 2 must be informed equally often.
	diff := float64(counts[1]-counts[2]) / float64(counts[1]+counts[2])
	if diff < -0.03 || diff > 0.03 {
		t.Fatalf("asymmetric fair pull: %v", counts)
	}
}

func TestStepFairPushPullPushStillUnbounded(t *testing.T) {
	// The push direction delivers regardless of fairness: with everyone
	// informed except one, that node is pushed to by possibly many callers
	// but pulled answers stay single.
	const n = 16
	informed := make([]int, n-1)
	for i := range informed {
		informed[i] = i
	}
	st := informedState(n, informed...)
	_, in := play(st, stepFairPushPull, rng.New(8))
	if !st.informed[n-1] {
		// The lone uninformed node contacted an informed node (pull) and
		// possibly got pushed to; with n-1 informed of n the chance of
		// neither is (tiny but) nonzero, so only assert when loads show
		// contact happened.
		contacted := in[n-1] > 0
		if contacted {
			t.Fatal("contacted node stayed uninformed")
		}
	}
}

func TestStepsRespectAliveMask(t *testing.T) {
	for name, step := range map[string]stepFunc{
		"push": stepPush, "pull": stepPull, "push-pull": stepPushPull,
		"fair-pull": stepFairPull, "fair-push-pull": stepFairPushPull,
	} {
		st := informedState(12, 0)
		for i := 6; i < 12; i++ {
			st.crash(i)
		}
		play(st, step, rng.New(9))
		for i := 6; i < 12; i++ {
			if st.informed[i] {
				t.Errorf("%s informed dead node %d", name, i)
			}
		}
	}
}

// TestStateResetClearsLoads checks the round epilogue on Flat: the
// loads are zero again after a round, only transfers from nodes informed
// at the start of the round inform, a receiver dated twice is informed
// once, and the run reports the round's largest loads.
func TestStateResetClearsLoads(t *testing.T) {
	// 1 -> 4 follows the date 0 -> 1 that informs node 1 this very round:
	// it must carry nothing, as 1 was uninformed when the round began. In
	// round 2 both 1 and 2 date node 4.
	dates := []core.Date{{Sender: 0, Receiver: 1}, {Sender: 1, Receiver: 4}, {Sender: 0, Receiver: 2}, {Sender: 3, Receiver: 2}, {Sender: 2, Receiver: 4}}
	f := &run.Flat{N: 5, Limit: 2, Step: func(*rng.Stream) []core.Date { return slices.Clone(dates) }}
	st := newState(f, bandwidth.Homogeneous(5, 1))
	st.inform(0)
	var informed [][]bool
	f.Dates = func(_ int, d []core.Date) error {
		st.apply(d)
		informed = append(informed, slices.Clone(st.informed))
		return nil
	}
	f.End = func(int) (int, int, bool) { return st.count, len(dates), false }
	res, err := f.Drive(rng.New(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Loads left behind by round 1 would show as 4 and 4 in round 2.
	if res.Rounds != 2 || res.MaxOutLoad != 2 || res.MaxInLoad != 2 {
		t.Fatalf("%d rounds, largest loads %d out, %d in; want 2 rounds, 2 and 2", res.Rounds, res.MaxOutLoad, res.MaxInLoad)
	}
	if want := []bool{true, true, true, false, false}; !slices.Equal(informed[0], want) {
		t.Fatalf("informed %v after round 1, want %v", informed[0], want)
	}
	if want := []bool{true, true, true, false, true}; !slices.Equal(informed[1], want) {
		t.Fatalf("informed %v after round 2, want %v", informed[1], want)
	}
	if st.count != 4 || st.it != 4 {
		t.Fatalf("count %d, I_t %d; want 4 and 4", st.count, st.it)
	}
}

func TestTallyCountsOnlyAlive(t *testing.T) {
	st := informedState(5, 0, 1, 2)
	st.crash(2)
	if st.count != 2 {
		t.Fatalf("count = %d, want 2 (dead informed excluded)", st.count)
	}
	if st.it != 2 {
		t.Fatalf("I_t = %d with unit bandwidths", st.it)
	}
	if st.done() {
		t.Fatal("not done: nodes 3 and 4 are alive and uninformed")
	}
	st.apply([]core.Date{{Sender: 0, Receiver: 3}, {Sender: 1, Receiver: 4}})
	if !st.done() {
		t.Fatal("done flag wrong with all alive informed")
	}
}

func TestPickOtherNeverSelf(t *testing.T) {
	s := rng.New(10)
	for n := 2; n <= 5; n++ {
		for i := 0; i < n; i++ {
			for trial := 0; trial < 200; trial++ {
				if j := pickOther(n, i, s); j == i || j < 0 || j >= n {
					t.Fatalf("pickOther(%d, %d) = %d", n, i, j)
				}
			}
		}
	}
}

func TestPickOtherUniform(t *testing.T) {
	s := rng.New(11)
	counts := make([]int, 4)
	const draws = 80000
	for i := 0; i < draws; i++ {
		counts[pickOther(4, 1, s)]++
	}
	if counts[1] != 0 {
		t.Fatal("self picked")
	}
	for _, j := range []int{0, 2, 3} {
		want := float64(draws) / 3
		if float64(counts[j]) < 0.95*want || float64(counts[j]) > 1.05*want {
			t.Fatalf("pickOther skewed: %v", counts)
		}
	}
}
