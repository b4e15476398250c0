// Package simnet is the execution substrate for the protocols in this
// repository. It provides two engines over the same message model:
//
//   - Network, a deterministic round-synchronous engine matching the paper's
//     model ("communication is organized in rounds"): messages sent during
//     round t are delivered at the start of round t+1, nodes may crash, and
//     all traffic is counted so experiments can report protocol overhead.
//
//   - Live, a concurrent engine with one goroutine per peer and channel
//     mailboxes, demonstrating that the same protocol step functions run
//     unchanged on genuinely parallel peers. Results are bit-identical to
//     the sequential engine because each peer owns a private random stream
//     and the coordinator routes messages in peer order.
//
// For million-peer runs — or for latency, loss and churn network models —
// use the sharded runtime in internal/live instead: it executes the same
// step functions over the same Message/Stats types with a fixed worker
// pool, flat reusable buffers, and a pluggable NetModel, and is
// bit-identical across shard counts.
//
// Payloads are two int32 words (enough for "the address of your date" plus a
// tag — the paper stresses that control messages are tiny, about one IP
// address each). int32 is enough because every payload the protocols send is
// a peer id, a state byte, a variant or a consensus stamp, and peer ids are
// bounded by n <= MaxInt32: NewNetwork and the sharded runtime both reject a
// larger n.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Message is a unit protocol message: 32 bytes.
type Message struct {
	From, To int
	Kind     uint8
	A, B     int32
}

// Stats aggregates traffic counters for an engine run.
type Stats struct {
	Sent    int64 // messages accepted for delivery
	Dropped int64 // messages to dead or invalid destinations
	Rounds  int64 // Deliver calls
	// Clamped counts messages whose planned delay exceeded the engine's
	// schedulable horizon and was clamped to it: a NetModel.Plan result
	// beyond MaxDelay() on the sharded runtime, or a float boundary-noise
	// clamp on the async calendar. The messages are still delivered (at the
	// horizon), but a nonzero count flags a model whose Plan and MaxDelay
	// disagree. Round-synchronous engines never clamp.
	Clamped int64
	ByKind  [256]int64 // sent messages per Kind
}

// Network is the deterministic round-synchronous engine. The zero value is
// unusable; construct with NewNetwork.
type Network struct {
	n      int
	inbox  [][]Message
	outbox [][]Message
	alive  []bool
	nAlive int
	stats  Stats
}

// NewNetwork creates an engine with n live nodes and empty mailboxes.
func NewNetwork(n int) (*Network, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("simnet: network needs n > 0, got %d", n)
	case n > math.MaxInt32:
		// A peer id rides in a payload word.
		return nil, fmt.Errorf("simnet: %d nodes exceed the network's limit of %d (payloads are int32)", n, math.MaxInt32)
	}
	nw := &Network{
		n:      n,
		inbox:  make([][]Message, n),
		outbox: make([][]Message, n),
		alive:  make([]bool, n),
		nAlive: n,
	}
	for i := range nw.alive {
		nw.alive[i] = true
	}
	return nw, nil
}

// N returns the number of nodes (live and dead).
func (nw *Network) N() int { return nw.n }

// Send queues a message for delivery at the next round boundary. Messages
// from dead senders or to dead/out-of-range destinations are counted as
// dropped and discarded; the paper's model lets crashed nodes vanish
// silently.
func (nw *Network) Send(m Message) {
	if m.To < 0 || m.To >= nw.n || m.From < 0 || m.From >= nw.n ||
		!nw.alive[m.To] || !nw.alive[m.From] {
		nw.stats.Dropped++
		return
	}
	nw.stats.Sent++
	nw.stats.ByKind[m.Kind]++
	nw.outbox[m.To] = append(nw.outbox[m.To], m)
}

// Deliver advances the round boundary: queued messages become the new
// inboxes and the previous inboxes are discarded.
func (nw *Network) Deliver() {
	nw.stats.Rounds++
	nw.inbox, nw.outbox = nw.outbox, nw.inbox
	for i := range nw.outbox {
		nw.outbox[i] = nw.outbox[i][:0]
	}
}

// Inbox returns the messages delivered to node i this round. The slice is
// valid until the next Deliver call and must not be retained.
func (nw *Network) Inbox(i int) []Message { return nw.inbox[i] }

// Alive reports whether node i is up.
func (nw *Network) Alive(i int) bool { return nw.alive[i] }

// AliveCount returns the number of live nodes.
func (nw *Network) AliveCount() int { return nw.nAlive }

// Kill crashes node i: it stops sending and receiving. Killing a dead node
// is a no-op.
func (nw *Network) Kill(i int) {
	if nw.alive[i] {
		nw.alive[i] = false
		nw.nAlive--
	}
}

// Revive brings node i back up with an empty inbox (its state is the
// protocol's concern). Reviving a live node is a no-op.
func (nw *Network) Revive(i int) {
	if !nw.alive[i] {
		nw.alive[i] = true
		nw.nAlive++
		nw.inbox[i] = nw.inbox[i][:0]
	}
}

// Crash kills each currently-live node independently with probability p,
// except nodes listed in protect; it returns the number of nodes killed.
// This is the churn model of experiment E9.
func (nw *Network) Crash(s *rng.Stream, p float64, protect ...int) int {
	prot := map[int]bool{}
	for _, i := range protect {
		prot[i] = true
	}
	killed := 0
	for i := 0; i < nw.n; i++ {
		if nw.alive[i] && !prot[i] && s.Bernoulli(p) {
			nw.Kill(i)
			killed++
		}
	}
	return killed
}

// Stats returns a copy of the traffic counters.
func (nw *Network) Stats() Stats { return nw.stats }
