package simnet

import (
	"testing"

	"repro/internal/rng"
)

// pingStep: every node sends its id to node (id+1) mod n each round and
// counts received pings in A of the next message.
func pingStep(n int) StepFunc {
	return func(node, round int, inbox []Message, s *rng.Stream) []Message {
		return []Message{{To: (node + 1) % n, Kind: 1, A: int32(len(inbox))}}
	}
}

// seeds returns a seed function rooted at root: step (round, node) draws
// from Derive(root, round, node).
func seeds(root uint64) func(round, node int) uint64 {
	return func(round, node int) uint64 { return rng.Derive(root, uint64(round), uint64(node)) }
}

func TestLiveValidation(t *testing.T) {
	if _, err := NewLive(0, seeds(1), pingStep(1)); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := NewLive(4, nil, pingStep(4)); err == nil {
		t.Error("accepted nil seed function")
	}
	if _, err := NewLive(4, seeds(1), nil); err == nil {
		t.Error("accepted nil step")
	}
}

func TestLiveRunDeliversEachRound(t *testing.T) {
	const n = 8
	l, err := NewLive(n, seeds(99), pingStep(n))
	if err != nil {
		t.Fatal(err)
	}
	st := l.Run(5)
	if st.Rounds != 5 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.Sent != 5*n {
		t.Fatalf("sent = %d, want %d", st.Sent, 5*n)
	}
	// After round 1 every node receives exactly one ping each round, so the
	// final mailboxes hold one message each with A == 1.
	for i := 0; i < n; i++ {
		in := l.Inbox(i)
		if len(in) != 1 {
			t.Fatalf("node %d inbox %v", i, in)
		}
		if in[0].A != 1 {
			t.Fatalf("node %d saw A=%d", i, in[0].A)
		}
		if in[0].From != (i-1+n)%n {
			t.Fatalf("node %d got ping from %d", i, in[0].From)
		}
	}
}

func TestLiveDropsInvalidDestination(t *testing.T) {
	step := func(node, round int, inbox []Message, s *rng.Stream) []Message {
		return []Message{{To: -1}, {To: 1000}}
	}
	l, _ := NewLive(4, seeds(1), step)
	st := l.Run(2)
	if st.Sent != 0 || st.Dropped != 16 {
		t.Fatalf("stats = sent %d dropped %d", st.Sent, st.Dropped)
	}
}

func TestLiveSetsFromField(t *testing.T) {
	step := func(node, round int, inbox []Message, s *rng.Stream) []Message {
		// Deliberately wrong From; the engine must overwrite it.
		return []Message{{From: 99, To: 0}}
	}
	l, _ := NewLive(3, seeds(1), step)
	l.Run(1)
	for _, m := range l.Inbox(0) {
		if m.From == 99 {
			t.Fatal("engine did not stamp the true sender")
		}
	}
}

func TestLiveMultipleRunCalls(t *testing.T) {
	const n = 4
	l, _ := NewLive(n, seeds(5), pingStep(n))
	l.Run(2)
	st := l.Run(3)
	if st.Rounds != 5 || st.Sent != 5*n {
		t.Fatalf("cumulative stats = %+v", st)
	}
}
