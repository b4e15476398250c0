package simnet

import (
	"fmt"
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

func TestLiveConcurrentEqualsSequential(t *testing.T) {
	// A stateful protocol, as the gossip protocols are: each peer writes
	// only its own entry of a shared per-peer slice and pushes the rumor to
	// a random peer once it knows it. The concurrent engine and its
	// sequential twin must give the same informed history and traffic.
	const n, rounds = 200, 12
	run := func(concurrent bool) ([]int, Stats) {
		informed := make([]bool, n)
		informed[0] = true
		l, err := NewLive(n, seeds(7), func(node, round int, inbox []Message, s *rng.Stream) []Message {
			if len(inbox) > 0 {
				informed[node] = true
			}
			if !informed[node] {
				return nil
			}
			return []Message{{To: s.Intn(n), Kind: 1}}
		})
		if err != nil {
			t.Fatal(err)
		}
		var history []int
		var st Stats
		for r := 0; r < rounds; r++ {
			if concurrent {
				st = l.Run(1)
			} else {
				st = l.RunSequential(1)
			}
			count := 0
			for _, inf := range informed {
				if inf {
					count++
				}
			}
			history = append(history, count)
		}
		return history, st
	}
	ha, sa := run(true)
	hb, sb := run(false)
	if fmt.Sprint(ha) != fmt.Sprint(hb) || sa != sb {
		t.Fatalf("concurrent %v %+v, sequential %v %+v", ha, sa, hb, sb)
	}
	if ha[rounds-1] <= ha[0] {
		t.Fatalf("the rumor never spread: %v", ha)
	}
}

func TestLiveMatchesSequential(t *testing.T) {
	// A randomized step: each node sends to a random destination carrying a
	// random payload. With per-peer private streams, concurrent and
	// sequential execution must be identical message-for-message.
	step := func(node, round int, inbox []Message, s *rng.Stream) []Message {
		var out []Message
		k := 1 + s.Intn(3)
		for j := 0; j < k; j++ {
			out = append(out, Message{To: s.Intn(32), Kind: 2, A: int32(s.Uint64() % 1000)})
		}
		return out
	}
	a, _ := NewLive(32, seeds(7), step)
	b, _ := NewLive(32, seeds(7), step)
	sa := a.Run(6)
	sb := b.RunSequential(6)
	if sa.Sent != sb.Sent || sa.Dropped != sb.Dropped {
		t.Fatalf("traffic differs: live %+v vs seq %+v", sa.Sent, sb.Sent)
	}
	for i := 0; i < 32; i++ {
		ia, ib := a.Inbox(i), b.Inbox(i)
		if len(ia) != len(ib) {
			t.Fatalf("node %d inbox sizes differ: %d vs %d", i, len(ia), len(ib))
		}
		for j := range ia {
			if ia[j] != ib[j] {
				t.Fatalf("node %d message %d differs: %+v vs %+v", i, j, ia[j], ib[j])
			}
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
