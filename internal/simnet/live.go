package simnet

import (
	"fmt"
	"sync"

	"repro/internal/rng"
)

// StepFunc is one peer's behavior for one round: given its id, the round
// number, and the messages delivered to it, it returns the messages it wants
// to send. The provided stream is the step's private randomness, seeded
// afresh for every (round, peer); StepFunc must not touch any shared state
// (peers run concurrently in the Live engine).
type StepFunc func(node, round int, inbox []Message, s *rng.Stream) []Message

// Live runs a protocol with one goroutine per peer. Per-round barriers are
// realized with WaitGroups; the coordinator routes messages between rounds
// in peer order so that a Live run and a sequential run with the same seed
// produce identical traffic.
//
// Live demonstrates that the protocols run on genuinely concurrent peers,
// but one goroutine (and one mailbox slice) per peer per round does not
// scale past ~10^5 peers. The sharded runtime in internal/live executes the
// same step functions with a fixed worker pool and flat message buffers —
// use it for large n or for non-synchronous network models.
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

// Run executes the given number of rounds concurrently and returns the
// traffic statistics. It may be called repeatedly; mailbox state carries
// over between calls.
func (l *Live) Run(rounds int) Stats {
	outs := make([][]Message, l.n)
	for r := 0; r < rounds; r++ {
		round := int(l.stats.Rounds)
		var wg sync.WaitGroup
		wg.Add(l.n)
		for i := 0; i < l.n; i++ {
			go func(i int) {
				defer wg.Done()
				outs[i] = l.step(i, round, l.inbox[i], rng.New(l.seed(round, i)))
			}(i)
		}
		wg.Wait()
		// Route in peer order for determinism.
		next := make([][]Message, l.n)
		for i := 0; i < l.n; i++ {
			for _, m := range outs[i] {
				m.From = i
				if m.To < 0 || m.To >= l.n {
					l.stats.Dropped++
					continue
				}
				l.stats.Sent++
				l.stats.ByKind[m.Kind]++
				next[m.To] = append(next[m.To], m)
			}
			outs[i] = nil
		}
		l.inbox = next
		l.stats.Rounds++
	}
	return l.stats
}

// RunSequential executes the same protocol single-threaded. It exists so
// tests can assert that concurrent and sequential execution are
// observationally identical.
func (l *Live) RunSequential(rounds int) Stats {
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
