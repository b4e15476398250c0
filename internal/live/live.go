// Package live is the round-synchronous message runtime: it executes the
// same per-peer protocol step functions as the simnet engines, but scales to
// millions of peers by running them on the shard-runtime core of
// internal/shardrt — a fixed set of shard workers filing messages on pooled
// pages under their destination's owner — instead of a goroutine per peer.
// The core's package comment describes deliver, route, the pages and why
// the shard count is invisible; a tick is a round here. What this package adds is the step
// loop, sleeping peers and the network model.
//
// # Sleeping peers
//
// A protocol whose peers are mostly idle hands the runtime an
// ActiveStepFunc instead of a StepFunc: the step reports whether its peer
// stays awake. Every peer starts awake; a peer that last reported false and
// has no mail this round is not stepped at all. A peer that is not stepped
// emits nothing and keeps its state — so returning false is a promise that
// a step with an empty inbox would have emitted nothing and changed no
// state, until mail arrives (mail always wakes the peer for that round,
// whatever it reported). Each step draws from a stream of its own, so a
// skipped step leaves no stream behind for a later one. Under that promise
// skipping is invisible: trajectories and Stats are those of stepping
// everyone. The promise is checked rather than trusted — the goroutine
// engine ignores the bit and steps everyone, and the suites run the same
// protocols on both. A plain StepFunc is an ActiveStepFunc that always
// reports true. On a round the core delivers sparsely (internal/shardrt,
// "Dense and sparse ticks": few messages and few awake peers in a shard's
// range) the walk visits the awake peers and the peers with mail and
// nobody else, so a quiet round costs what its active peers cost rather
// than a pass over the range.
//
// # Determinism
//
// A run is a pure function of (n, seed, step, net model). Peer i's step in
// round r draws from a stream seeded rng.Derive(seed, peerDomain, r, i)
// (PeerSeed): the runtime derives the round's prefix once per shard and
// tick and absorbs i on the step's first draw, the same chain bit for bit,
// into one generator per shard. No generator state outlives a step, so the
// runtime keeps no randomness per peer. A NetModel that consumes randomness
// gets a stream seeded rng.Derive(seed, netDomain, round, sender),
// re-derived at each sender's first emission of the round, so its
// decisions depend on the message sequence, never the worker. With the
// core's canonical inbox order the runtime is bit-identical to a sequential
// run for any shard count, and — under the Sync model, with the same
// per-step seeds — to simnet.Live itself. The test suite pins both.
package live

import (
	"bytes"
	"fmt"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shardrt"
	"repro/internal/simnet"
)

// Seed-derivation domains, keeping the runtime's stream families disjoint.
const (
	peerDomain  uint64 = 0x91 // per-(round, peer) protocol streams
	netDomain   uint64 = 0x92 // per-(round, sender) network-model streams
	churnDomain uint64 = 0x93 // EpochChurn's (epoch, peer) down-ness hash
	ringDomain  uint64 = 0x94 // UniformRing's embedding positions
)

// PeerSeed returns the seed of peer i's stream in round r of a runtime
// rooted at seed. Exposed so tests can replay a runtime's exact randomness
// on the goroutine engine.
func PeerSeed(seed uint64, r, i int) uint64 {
	return rng.Derive(seed, peerDomain, uint64(r), uint64(i))
}

// StepFunc is one peer's behavior for one round: given its id, the round
// number, and the messages delivered to it, it emits the messages it wants
// to send (From is stamped by the runtime). The inbox is valid for the call
// only: the runtime unpacks the next peer's into the same scratch. The
// provided stream is the step's private randomness, seeded
// PeerSeed(seed, round, node). A StepFunc may keep per-peer protocol state
// indexed by node, but must not touch any shared state: peers of different
// shards run concurrently. The emit-callback shape (instead of returning a
// slice, as simnet.StepFunc does) lets the runtime route messages without a
// per-peer allocation.
type StepFunc func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message))

// ActiveStepFunc is a StepFunc that reports whether its peer stays awake.
// A peer that reported false is not stepped again until it has mail, so
// false promises that a step with an empty inbox would emit nothing and
// leave the peer's state alone (see "Sleeping peers" in the package
// comment); what it would have drawn does not matter.
type ActiveStepFunc func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) (awake bool)

// Config parameterizes a runtime.
type Config struct {
	// N is the peer count.
	N int
	// Seed roots every stream of the run.
	Seed uint64
	// Step is the per-peer protocol, run for every peer every round.
	Step StepFunc
	// ActiveStep is the per-peer protocol of a run whose peers can sleep;
	// exactly one of Step and ActiveStep is set.
	ActiveStep ActiveStepFunc
	// Shards is the worker count; any value produces bit-identical results.
	// 0 selects GOMAXPROCS.
	Shards int
	// Net decides message fates; nil is the paper's perfect-sync model.
	Net NetModel
	// Obs, when non-nil, receives per-(round, shard, phase) spans and
	// per-round gauges. Observers are read-only: attaching one never
	// changes any result (the determinism suites pin this).
	Obs *obs.Observer
}

// peerSource is a shard's generator for the peer it is stepping. The step
// loop sets node and unseeded per peer; the step's first draw seeds the
// generator Absorb(roundKey, node), which is PeerSeed(seed, round, node),
// so a step that draws nothing pays for no seeding.
type peerSource struct {
	gen      rng.Xoshiro256
	roundKey uint64 // Derive(seed, peerDomain, round), set once per tick
	node     int
	unseeded bool
}

func (p *peerSource) Uint64() uint64 {
	if p.unseeded {
		p.gen.Seed(rng.Absorb(p.roundKey, uint64(p.node)))
		p.unseeded = false
	}
	return p.gen.Uint64()
}

func (p *peerSource) Seed(seed uint64) { p.gen.Seed(seed); p.unseeded = false }

// shardState is what a worker keeps beside its core lane: the stepped
// peer's stream, the network model's stream, re-derived per (round,
// sender), and the emit callback.
type shardState struct {
	lane      *shardrt.Lane
	peer      peerSource
	stream    *rng.Stream
	netGen    rng.Xoshiro256
	netStream *rng.Stream
	netSeeded bool
	emit      func(simnet.Message)
}

// shard pads shardState the way the core pads its lanes: the peer source
// and netSeeded are written on every peer-step, so neighbours must not
// share their lines.
type shard struct {
	shardState
	_ [2*cacheLine - unsafe.Sizeof(shardState{})%cacheLine]byte
}

const cacheLine = shardrt.CacheLine

// Runtime executes a protocol over n peers with shard workers. Construct
// with New; a Runtime runs one round at a time (Run must not be called
// concurrently), parallelism happens inside the round.
type Runtime struct {
	core    *shardrt.Core
	step    StepFunc       // dense protocol: every peer is stepped
	active  ActiveStepFunc // sleeping-peer protocol; exactly one is set
	net     NetModel
	netRand bool
	seed    uint64
	peerKey uint64 // Derive(seed, peerDomain), the prefix of every step's seed
	round   int

	// asleep[i] records that peer i last reported "not awake"; written only
	// by the shard owning i. Nil under Step, where nobody sleeps.
	asleep []bool
	sh     []shard
}

// nextAwake returns the first index of asleep[i:] whose peer is awake, or
// len(asleep): bytes.IndexByte over the flags, which a bool stores as the
// byte 0 or 1, so the sparse walk skips a run of sleeping peers with a
// vectorised search rather than peer by peer.
func nextAwake(asleep []bool, i int) int {
	rest := asleep[i:]
	k := bytes.IndexByte(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rest))), len(rest)), 0)
	if k < 0 {
		return len(asleep)
	}
	return i + k
}

// New builds a runtime.
func New(cfg Config) (*Runtime, error) {
	if (cfg.Step == nil) == (cfg.ActiveStep == nil) {
		return nil, fmt.Errorf("live: runtime needs exactly one of Step and ActiveStep")
	}
	net := cfg.Net
	if net == nil {
		net = Sync{}
	}
	if err := validateNet(net, cfg.N); err != nil {
		return nil, err
	}
	// The ring holds the round being delivered plus MaxDelay rounds ahead; a
	// MaxDelay whose ring wraps or exceeds shardrt.MaxRing fails here.
	core, err := shardrt.New(shardrt.Config{
		N: cfg.N, Shards: cfg.Shards, Ring: net.MaxDelay() + 1,
		Obs: cfg.Obs, Track: "live", WorkGauge: "stepped", DepthGauge: "queue_depth",
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		core:    core,
		step:    cfg.Step,
		active:  cfg.ActiveStep,
		net:     net,
		netRand: net.Random(),
		seed:    cfg.Seed,
		peerKey: rng.Derive(cfg.Seed, peerDomain),
		sh:      make([]shard, core.Shards()),
	}
	if rt.active != nil {
		rt.asleep = make([]bool, cfg.N) // every peer starts awake
	}
	cuts := core.Cuts()
	for w := range rt.sh {
		sh := &rt.sh[w]
		sh.lane = core.Lane(w)
		sh.lane.Awake(cuts[w+1] - cuts[w]) // every peer starts awake
		sh.stream = rng.NewWithSource(&sh.peer)
		sh.netStream = rng.NewWithSource(&sh.netGen)
		sh.emit = rt.makeEmit(sh)
	}
	return rt, nil
}

// N returns the peer count.
func (rt *Runtime) N() int { return rt.core.N() }

// Shards returns the effective worker count.
func (rt *Runtime) Shards() int { return rt.core.Shards() }

// Cuts returns the step ranges: shard w steps the peers of [cuts[w],
// cuts[w+1]), and only it writes their protocol state.
func (rt *Runtime) Cuts() []int { return rt.core.Cuts() }

// Round returns the next round number Run will execute.
func (rt *Runtime) Round() int { return rt.round }

// Stats returns a copy of the traffic counters.
func (rt *Runtime) Stats() simnet.Stats { return rt.core.Stats() }

// makeEmit builds shard sh's emission callback: address the message, let
// the net model plan the flight time, and hand it to the lane. Messages to
// out-of-range peers and messages the model drops are both counted as
// Dropped, matching the simnet engines; a Plan result beyond MaxDelay()
// means the model's two methods disagree — a model bug, not a network event
// — and is delivered at the horizon and counted in Stats.Clamped.
func (rt *Runtime) makeEmit(sh *shard) func(simnet.Message) {
	ln := sh.lane
	return func(m simnet.Message) {
		if !ln.Address(&m) {
			return
		}
		var s *rng.Stream
		if rt.netRand {
			if !sh.netSeeded {
				sh.netGen.Seed(rng.Derive(rt.seed, netDomain, uint64(rt.round), uint64(m.From)))
				sh.netSeeded = true
			}
			s = sh.netStream
		}
		d := rt.net.Plan(rt.round, m, s)
		if d < 1 {
			ln.Drop()
			return
		}
		ln.Send(d, m)
	}
}

// Run executes the given number of rounds and returns the cumulative
// traffic statistics. It may be called repeatedly; in-flight messages carry
// over between calls.
func (rt *Runtime) Run(rounds int) simnet.Stats {
	for r := 0; r < rounds; r++ {
		rt.core.Deliver(rt.round)
		rt.core.FanOutSpan(rt.round, obs.PhaseStep, rt.stepRange)
		rt.core.Route(rt.round)
		rt.round++
	}
	return rt.core.Stats()
}

// InFlight returns the messages sent and not yet delivered: after Run,
// those due in a later round.
func (rt *Runtime) InFlight() int { return rt.core.InFlight() }

// Inbox returns the messages delivered to peer i in the round Run executed
// last, for post-run inspection, in a fresh slice.
func (rt *Runtime) Inbox(i int) []simnet.Message { return rt.core.Inbox(i) }

// stepRange is the runtime's one step loop, run after the deliver barrier:
// shard w sets the round's seed prefix, then walks its peer range in
// ascending order, seating its lane and its peer source at each peer it
// steps, and skips the peers that are asleep and have no mail. Everything
// the loop reads per peer is hoisted into locals, and the skipped peers are
// counted rather than the stepped ones, so a dense protocol pays for one
// test of a local per peer and nothing else. The awake peers it leaves are
// reported to the lane, which weighs them in the next Deliver's density
// switch; a plain Step reported its whole range in New, so its ticks are
// always dense. On a sparse tick the walk is stepSparse.
func (rt *Runtime) stepRange(w int) {
	sh := &rt.sh[w]
	ln := sh.lane
	cuts := rt.core.Cuts()
	lo, hi := cuts[w], cuts[w+1]
	inOff := rt.core.View()
	asleep := rt.asleep
	step, active, round := rt.step, rt.active, rt.round
	src, stream, emit := &sh.peer, sh.stream, sh.emit
	src.roundKey = rng.Absorb(rt.peerKey, uint64(round))
	// The step ranges are the delivery ranges (New passes the core no
	// Weights), so shard w's mail is owner w's.
	if dests, ends, ok := rt.core.Mail(w); ok {
		rt.stepSparse(sh, lo, hi, inOff[lo], dests, ends)
		return
	}
	skipped, awake := 0, 0
	start := inOff[lo]
	for i := lo; i < hi; i++ {
		stop := inOff[i+1]
		if active != nil && start == stop && asleep[i] {
			skipped++
		} else {
			ln.Seat(i)
			src.node, src.unseeded = i, true
			sh.netSeeded = false
			inbox := ln.Inbox(start, stop)
			if active != nil {
				up := active(i, round, inbox, stream, emit)
				asleep[i] = !up
				if up {
					awake++
				}
			} else {
				step(i, round, inbox, stream, emit)
			}
		}
		start = stop
	}
	ln.AddWork(hi - lo - skipped)
	if active != nil {
		ln.Awake(awake)
	}
}

// stepSparse is stepRange on a sparse tick, which only an ActiveStep run
// has: it steps the awake peers and the peers on the mail list, merged in
// ascending order, and nobody else, so it costs O(awake + mail) steps plus
// a byte scan of the sleeping flags. start is where the range's first inbox
// begins in the view; a peer off the list has the empty inbox at the
// cursor.
func (rt *Runtime) stepSparse(sh *shard, lo, hi int, start int32, dests, ends []int32) {
	ln := sh.lane
	asleep := rt.asleep[:hi]
	active, round := rt.active, rt.round
	src, stream, emit := &sh.peer, sh.stream, sh.emit
	stepped, awake, k := 0, 0, 0
	for next := nextAwake(asleep, lo); ; {
		i, stop := next, start
		if k < len(dests) && int(dests[k]) <= i {
			i, stop = int(dests[k]), ends[k]
			k++
		}
		if i >= hi {
			break
		}
		ln.Seat(i)
		src.node, src.unseeded = i, true
		sh.netSeeded = false
		up := active(i, round, ln.Inbox(start, stop), stream, emit)
		asleep[i] = !up
		if up {
			awake++
		}
		stepped++
		start = stop
		if i == next {
			next = nextAwake(asleep, i+1)
		}
	}
	ln.AddWork(stepped)
	ln.Awake(awake)
}
