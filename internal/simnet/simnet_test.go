package simnet

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := NewNetwork(-3); err == nil {
		t.Error("accepted negative n")
	}
}

func TestSendDeliverRoundTrip(t *testing.T) {
	nw, err := NewNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 2, Kind: 7, A: 42})
	nw.Send(Message{From: 1, To: 2, Kind: 7, A: 43})
	if got := len(nw.Inbox(2)); got != 0 {
		t.Fatalf("message delivered before round boundary: %d", got)
	}
	nw.Deliver()
	in := nw.Inbox(2)
	if len(in) != 2 {
		t.Fatalf("inbox size %d, want 2", len(in))
	}
	if in[0].A != 42 || in[1].A != 43 {
		t.Fatalf("payloads %v", in)
	}
	nw.Deliver()
	if len(nw.Inbox(2)) != 0 {
		t.Fatal("inbox not cleared after next round")
	}
	st := nw.Stats()
	if st.Sent != 2 || st.Rounds != 2 || st.ByKind[7] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendValidatesEndpoints(t *testing.T) {
	nw, _ := NewNetwork(2)
	nw.Send(Message{From: 0, To: 5})
	nw.Send(Message{From: -1, To: 1})
	if st := nw.Stats(); st.Sent != 0 || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKillAndRevive(t *testing.T) {
	nw, _ := NewNetwork(3)
	nw.Kill(1)
	if nw.Alive(1) || nw.AliveCount() != 2 {
		t.Fatal("kill did not take effect")
	}
	nw.Kill(1) // idempotent
	if nw.AliveCount() != 2 {
		t.Fatal("double kill changed count")
	}
	nw.Send(Message{From: 0, To: 1}) // to dead node
	nw.Send(Message{From: 1, To: 0}) // from dead node
	if st := nw.Stats(); st.Sent != 0 || st.Dropped != 2 {
		t.Fatalf("dead traffic not dropped: %+v", st)
	}
	nw.Revive(1)
	if !nw.Alive(1) || nw.AliveCount() != 3 {
		t.Fatal("revive did not take effect")
	}
	nw.Revive(1) // idempotent
	if nw.AliveCount() != 3 {
		t.Fatal("double revive changed count")
	}
}

func TestReviveClearsInbox(t *testing.T) {
	nw, _ := NewNetwork(2)
	nw.Send(Message{From: 0, To: 1})
	nw.Deliver()
	nw.Kill(1)
	nw.Revive(1)
	if len(nw.Inbox(1)) != 0 {
		t.Fatal("revived node kept stale inbox")
	}
}

func TestCrash(t *testing.T) {
	nw, _ := NewNetwork(1000)
	s := rng.New(42)
	killed := nw.Crash(s, 0.1, 0)
	if killed < 50 || killed > 150 {
		t.Fatalf("killed %d of 1000 at p=0.1", killed)
	}
	if !nw.Alive(0) {
		t.Fatal("protected node crashed")
	}
	if nw.AliveCount() != 1000-killed {
		t.Fatalf("alive count %d after killing %d", nw.AliveCount(), killed)
	}
	// p = 0 kills nobody; p = 1 kills everyone unprotected.
	if extra := nw.Crash(s, 0); extra != 0 {
		t.Fatalf("p=0 killed %d", extra)
	}
	nw2, _ := NewNetwork(10)
	nw2.Crash(s, 1, 3)
	if nw2.AliveCount() != 1 || !nw2.Alive(3) {
		t.Fatal("p=1 with protection failed")
	}
}

// pingStep: every node sends its id to node (id+1) mod n each round and
// counts received pings in A of the next message.
func pingStep(n int) StepFunc {
	return func(node, round int, inbox []Message, s *rng.Stream) []Message {
		return []Message{{To: (node + 1) % n, Kind: 1, A: int64(len(inbox))}}
	}
}

func TestLiveValidation(t *testing.T) {
	if _, err := NewLive(0, 1, pingStep(1)); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := NewLive(4, 1, nil); err == nil {
		t.Error("accepted nil step")
	}
}

func TestLiveRunDeliversEachRound(t *testing.T) {
	const n = 8
	l, err := NewLive(n, 99, pingStep(n))
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
		l, err := NewLive(n, 7, func(node, round int, inbox []Message, s *rng.Stream) []Message {
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
			out = append(out, Message{To: s.Intn(32), Kind: 2, A: int64(s.Uint64() % 1000)})
		}
		return out
	}
	a, _ := NewLive(32, 7, step)
	b, _ := NewLive(32, 7, step)
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
	l, _ := NewLive(4, 1, step)
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
	l, _ := NewLive(3, 1, step)
	l.Run(1)
	for _, m := range l.Inbox(0) {
		if m.From == 99 {
			t.Fatal("engine did not stamp the true sender")
		}
	}
}

func TestLiveMultipleRunCalls(t *testing.T) {
	const n = 4
	l, _ := NewLive(n, 5, pingStep(n))
	l.Run(2)
	st := l.Run(3)
	if st.Rounds != 5 || st.Sent != 5*n {
		t.Fatalf("cumulative stats = %+v", st)
	}
}
