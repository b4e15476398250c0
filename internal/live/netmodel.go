package live

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simnet"
)

// Drop is the Plan return value for a message the network loses.
const Drop = -1

// NetModel decides the fate of every message the runtime routes: how many
// rounds it is in flight, or whether the network loses it. Plugging a model
// into Config.Net runs the *same* protocol step code under paper-faithful
// or realistic network conditions.
//
// Determinism contract: Plan is called once per message, in emission order,
// with From/To already set. When Random() is true, s is a private stream
// seeded rng.Derive(runtime seed, netDomain, round, sender) — whichever
// shard owns the sender derives the same stream, so delivery decisions are
// bit-identical for every shard count. When Random() is false, s is nil and
// Plan must be a pure function of (round, m).
type NetModel interface {
	// Plan returns the number of rounds the message is in flight (>= 1;
	// 1 reproduces the synchronous model: sent in round r, delivered at the
	// start of round r+1), or Drop if the network loses it. Values above
	// MaxDelay mean Plan and MaxDelay disagree — a model bug: the runtime
	// delivers such messages at MaxDelay and counts each rewrite in
	// Stats.Clamped, so a well-formed model always runs with Clamped == 0.
	Plan(round int, m simnet.Message, s *rng.Stream) int
	// MaxDelay bounds Plan's return value; the runtime sizes its delivery
	// ring with it. Must be >= 1.
	MaxDelay() int
	// Random reports whether Plan draws from s. Models that return false
	// skip the per-sender stream derivation entirely (the perfect-sync hot
	// path pays nothing for the pluggable interface).
	Random() bool
}

// Sync is the paper's model: every message sent in round r is delivered at
// the start of round r+1, nothing is lost. The zero NetModel (Config.Net ==
// nil) is Sync.
type Sync struct{}

// Plan implements NetModel.
func (Sync) Plan(int, simnet.Message, *rng.Stream) int { return 1 }

// MaxDelay implements NetModel.
func (Sync) MaxDelay() int { return 1 }

// Random implements NetModel.
func (Sync) Random() bool { return false }

// FixedLatency delivers every message after exactly Rounds rounds: the
// network is reliable but each hop takes a constant multiple of the round
// length. Rounds == 1 is Sync.
type FixedLatency struct {
	Rounds int // in-flight rounds per message, >= 1
}

// Plan implements NetModel.
func (f FixedLatency) Plan(int, simnet.Message, *rng.Stream) int { return f.Rounds }

// MaxDelay implements NetModel.
func (f FixedLatency) MaxDelay() int { return f.Rounds }

// Random implements NetModel.
func (FixedLatency) Random() bool { return false }

// GeomLatency gives each message an independent geometric flight time: it
// arrives after round k with probability P*(1-P)^(k-1), modeling memoryless
// per-message jitter (the asynchronous-gossip latency model). Cap bounds the
// tail so the delivery ring stays small; the lost probability mass goes to
// delay Cap, not to drops.
type GeomLatency struct {
	P   float64 // per-round arrival probability, in (0, 1]
	Cap int     // largest delay, >= 1
}

// Plan implements NetModel.
func (g GeomLatency) Plan(_ int, _ simnet.Message, s *rng.Stream) int {
	d := 1
	for d < g.Cap && !s.Bernoulli(g.P) {
		d++
	}
	return d
}

// MaxDelay implements NetModel.
func (g GeomLatency) MaxDelay() int { return g.Cap }

// Random implements NetModel.
func (GeomLatency) Random() bool { return true }

// Loss drops each message independently with probability P and otherwise
// defers to Under (nil = Sync). Composing Loss{P, GeomLatency{...}} yields
// the classical lossy asynchronous network.
type Loss struct {
	P     float64 // iid drop probability, in [0, 1)
	Under NetModel
}

func (l Loss) under() NetModel {
	if l.Under == nil {
		return Sync{}
	}
	return l.Under
}

// Plan implements NetModel.
func (l Loss) Plan(round int, m simnet.Message, s *rng.Stream) int {
	if s.Bernoulli(l.P) {
		return Drop
	}
	return l.under().Plan(round, m, s)
}

// MaxDelay implements NetModel.
func (l Loss) MaxDelay() int { return l.under().MaxDelay() }

// Random implements NetModel.
func (Loss) Random() bool { return true }

// EpochChurn models correlated failures, the overlay-churn regime of the
// dynamic-DHT experiments: time is cut into epochs of Epoch rounds, and in
// each epoch every peer is independently down with probability DownFrac —
// for the *whole* epoch. Every message to or from a down peer is lost, so
// losses cluster per peer (a down rendezvous loses all its offers at once),
// unlike the iid Loss model. Down-ness is decided by hashing (Seed, epoch,
// peer) with the repository's Derive scheme: no state, no randomness drawn
// from the sender stream, identical on every shard layout.
type EpochChurn struct {
	Seed     uint64  // churn process seed, independent of the runtime seed
	Epoch    int     // rounds per epoch, >= 1
	DownFrac float64 // probability a peer is down for a given epoch, in [0, 1)
	Under    NetModel
}

func (c EpochChurn) under() NetModel {
	if c.Under == nil {
		return Sync{}
	}
	return c.Under
}

// Down reports whether peer is down during the epoch containing round.
func (c EpochChurn) Down(round, peer int) bool {
	if c.DownFrac <= 0 {
		return false
	}
	epoch := uint64(round / c.Epoch)
	threshold := uint64(c.DownFrac * float64(1<<63) * 2)
	return rng.Derive(c.Seed, churnDomain, epoch, uint64(peer)) < threshold
}

// Plan implements NetModel.
func (c EpochChurn) Plan(round int, m simnet.Message, s *rng.Stream) int {
	if c.Down(round, m.From) || c.Down(round, m.To) {
		return Drop
	}
	return c.under().Plan(round, m, s)
}

// MaxDelay implements NetModel.
func (c EpochChurn) MaxDelay() int { return c.under().MaxDelay() }

// Random implements NetModel.
func (c EpochChurn) Random() bool { return c.under().Random() }

// RingLatency is the worked NetModel-asymmetry example: per-pair message
// latency proportional to ring distance in a DHT-style embedding. Peer i
// sits at position Pos[i] on the unit ring (the Section 4 overlay's
// coordinate space, or any embedding of the physical topology), and a
// message from i to j is in flight for
//
//	1 + floor(arc(i, j) * Scale)
//
// rounds, where arc is the shorter arc between the two positions (in
// [0, 1/2]), clamped to Max. Nearby peers talk at the synchronous round
// rate; antipodal peers pay up to Max rounds — so unlike the symmetric
// models above, *which* rendezvous a request lands on decides how fast the
// handshake completes. Plan is a pure function of (From, To): no randomness
// is drawn, and runs stay bit-identical for every shard count.
type RingLatency struct {
	// Pos holds every peer's ring position in [0, 1); len(Pos) must cover
	// the runtime's peer count.
	Pos []float64
	// Scale converts arc distance to rounds of flight time: a message
	// travelling the maximal arc of 1/2 takes 1 + floor(Scale/2) rounds
	// before clamping.
	Scale float64
	// Max caps the delay (and sizes the runtime's delivery ring), >= 1.
	Max int
}

// Plan implements NetModel.
func (r RingLatency) Plan(_ int, m simnet.Message, _ *rng.Stream) int {
	arc := r.Pos[m.From] - r.Pos[m.To]
	if arc < 0 {
		arc = -arc
	}
	if arc > 0.5 {
		arc = 1 - arc
	}
	// Clamped before the conversion: a large Scale would overflow int.
	if x := arc * r.Scale; x < float64(r.Max-1) {
		return 1 + int(x)
	}
	return r.Max
}

// MaxDelay implements NetModel.
func (r RingLatency) MaxDelay() int { return r.Max }

// Random implements NetModel.
func (RingLatency) Random() bool { return false }

// UniformRing embeds n peers at independent uniform positions on the unit
// ring, derived from seed with the repository's scheme — the standard
// embedding for RingLatency when no real overlay coordinates exist.
func UniformRing(n int, seed uint64) []float64 {
	s := rng.New(rng.Derive(seed, ringDomain))
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = s.Float64()
	}
	return pos
}

// validateNet rejects models the runtime cannot schedule; n is the peer
// count, for models whose parameters are per-peer. Range checks are written
// in the accepting form, so that NaN — for which every comparison is false —
// is rejected.
func validateNet(net NetModel, n int) error {
	if net.MaxDelay() < 1 {
		return fmt.Errorf("live: net model MaxDelay %d < 1", net.MaxDelay())
	}
	switch m := net.(type) {
	case FixedLatency:
		if m.Rounds < 1 {
			return fmt.Errorf("live: FixedLatency.Rounds %d < 1", m.Rounds)
		}
	case GeomLatency:
		if !(m.P > 0 && m.P <= 1) {
			return fmt.Errorf("live: GeomLatency.P %v outside (0, 1]", m.P)
		}
		if m.Cap < 1 {
			return fmt.Errorf("live: GeomLatency.Cap %d < 1", m.Cap)
		}
	case Loss:
		if !(m.P >= 0 && m.P < 1) {
			return fmt.Errorf("live: Loss.P %v outside [0, 1)", m.P)
		}
		if m.Under != nil {
			return validateNet(m.Under, n)
		}
	case EpochChurn:
		if m.Epoch < 1 {
			return fmt.Errorf("live: EpochChurn.Epoch %d < 1", m.Epoch)
		}
		if !(m.DownFrac >= 0 && m.DownFrac < 1) {
			return fmt.Errorf("live: EpochChurn.DownFrac %v outside [0, 1)", m.DownFrac)
		}
		if m.Under != nil {
			return validateNet(m.Under, n)
		}
	case RingLatency:
		if m.Max < 1 {
			return fmt.Errorf("live: RingLatency.Max %d < 1", m.Max)
		}
		if !(m.Scale >= 0) || math.IsInf(m.Scale, 0) {
			return fmt.Errorf("live: RingLatency.Scale %v must be non-negative and finite", m.Scale)
		}
		if len(m.Pos) < n {
			return fmt.Errorf("live: RingLatency embeds %d peers, runtime has %d", len(m.Pos), n)
		}
		for i, x := range m.Pos[:n] {
			if !(x >= 0 && x < 1) {
				return fmt.Errorf("live: RingLatency.Pos[%d] %v outside [0, 1)", i, x)
			}
		}
	}
	return nil
}
