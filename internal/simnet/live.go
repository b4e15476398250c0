package simnet

import (
	"fmt"

	"repro/internal/rng"
)

// StepFunc is one peer's behavior for one round: given its id, the round
// number, and the messages delivered to it, it returns the messages it wants
// to send. The provided stream is the step's private randomness, seeded
// afresh for every (round, peer), so a step's draws do not depend on which
// peers stepped before it.
type StepFunc func(node, round int, inbox []Message, s *rng.Stream) []Message

// Live runs a protocol one peer at a time, with one mailbox slice per peer,
// and routes each round's messages in peer order. It is the differential
// oracle of the test suites: the simplest engine that can be right, against
// which the sharded runtime of internal/live — the same step functions on a
// fixed worker pool, flat message buffers and a pluggable network model —
// is checked bit for bit.
type Live struct {
	n     int
	step  StepFunc
	seed  func(round, node int) uint64
	inbox [][]Message
	stats Stats
}

// NewLive creates a live engine for n peers. Peer i's stream in round r is
// seeded seed(r, i), afresh every round, so no stream outlives a step: a
// caller that passes another runtime's seeds (internal/live's PeerSeed)
// replays that runtime's randomness exactly, making cross-engine runs
// comparable bit for bit.
func NewLive(n int, seed func(round, node int) uint64, step StepFunc) (*Live, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("simnet: live engine needs n > 0, got %d", n)
	case seed == nil:
		return nil, fmt.Errorf("simnet: live engine needs a seed function")
	case step == nil:
		return nil, fmt.Errorf("simnet: live engine needs a step function")
	}
	return &Live{n: n, step: step, seed: seed, inbox: make([][]Message, n)}, nil
}

// Run executes the given number of rounds, stepping the peers one after
// another in id order, and returns the traffic statistics. It may be called
// repeatedly; mailbox state carries over between calls.
func (l *Live) Run(rounds int) Stats {
	for r := 0; r < rounds; r++ {
		round := int(l.stats.Rounds)
		next := make([][]Message, l.n)
		for i := 0; i < l.n; i++ {
			for _, m := range l.step(i, round, l.inbox[i], rng.New(l.seed(round, i))) {
				m.From = i
				if m.To < 0 || m.To >= l.n {
					l.stats.Dropped++
					continue
				}
				l.stats.Sent++
				l.stats.ByKind[m.Kind]++
				next[m.To] = append(next[m.To], m)
			}
		}
		l.inbox = next
		l.stats.Rounds++
	}
	return l.stats
}

// Inbox exposes the current mailbox of a peer, for post-run inspection.
func (l *Live) Inbox(i int) []Message { return l.inbox[i] }
