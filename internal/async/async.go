// Package async is the clockless event-driven runtime: the shard-runtime
// core of internal/shardrt — the same lanes filing messages on pages under
// their destination's owner, route and owner-local deliver as
// internal/live — with no global round. Each peer fires on its own
// exponential clock, the rate drawn from its heterogeneity profile, and the
// core's ring is a calendar queue whose time axis is cut into buckets: a
// tick is a bucket, and shards only synchronize at bucket boundaries.
//
// # Clock model
//
// Peer i fires at the points of a Poisson process with rate Rates[i]: the
// gap between firing k-1 and firing k is an Exp(Rates[i]) draw. Real gossip
// is asynchronous push&pull on exactly such clocks (Patsonakis &
// Roussopoulos, "Asynchronous Rumour Spreading"); with unit rates the mean
// inter-firing gap is 1, so time unit = expected synchronous round, which is
// what makes sync-vs-async spread curves directly comparable.
//
// # The calendar queue
//
// Continuous time is partitioned into buckets of width BucketWidth. In
// bucket b = [b·W, (b+1)·W), after the core has delivered the arrivals that
// fall in it, each shard walks its own peer range: a peer first absorbs its
// arrivals (in canonical order), then replays its firings with timestamps
// inside the bucket, in time order; emitted messages are stamped with
// arrival time = emission time + Latency, and the core's ring holds the
// Latency/BucketWidth + 3 buckets that can be pending at once. Peers
// interact only through messages that land in later buckets, so shards
// never read each other's state between the boundary barriers.
//
// # Two sets of ranges
//
// Step ranges are cut once, in New, by cumulative clock rate (the core's
// Weights are Rates): a peer of rate 8 replays eight times the firings of a
// peer of rate 1, so on a profile with the fast peers in front equal-width
// ranges left one shard with most of the bucket's work and the others
// waiting at the barrier. Delivery keeps the uniform id cuts. The core's
// package comment says why the two may differ and why neither shows in any
// result; per-peer state here — the clocks and the protocol's own arrays —
// is touched by the step phase alone.
//
// # Determinism
//
// A run is a pure function of (n, seed, rates, widths, handlers). Peer i's
// stream k is seeded rng.Derive(seed, rng.DomainAsyncFire, i, k); the
// runtime derives the (seed, DomainAsyncFire) prefix once and absorbs i and
// k per firing, which is the same chain bit for bit. Stream 0 draws the
// first gap and nothing else. Firing k opens stream k+1: the protocol draws
// from it first, then the runtime draws the gap to firing k+1. A gap is a
// ziggurat draw and takes a variable number of outputs (one on about 98.9 %
// of draws), as a protocol's draws may, so the gap starts wherever the
// protocol left the stream. No generator state outlives a firing: a shard
// reseeds one generator per firing, and the core keeps no per-peer states.
// With the core's canonical (peer, firing) emission order every shard count
// replays the identical event history bit for bit. Arrival times are
// quantized to bucket boundaries (an arrival inside bucket b is absorbed
// when bucket b opens, before any firing of bucket b), so the effective
// latency of a message is max(Latency, time to the next boundary) — the
// bucket width is the latency quantum of the model.
package async

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shardrt"
	"repro/internal/simnet"
)

// FireFunc is one peer's behavior at one firing of its clock: peer fires
// for the k-th time at absolute time t, draws whatever randomness it needs
// from s (its private per-(peer, firing) stream, from which the runtime
// then draws the gap to the peer's next firing), and emits messages. From
// is stamped by the runtime; emitted messages arrive Latency later,
// quantized to the bucket boundary. A FireFunc may keep per-peer state indexed by peer id but must
// not touch shared state: peers of different shards run concurrently.
type FireFunc func(peer, fire int, t float64, s *rng.Stream, emit func(simnet.Message))

// RecvFunc handles one arrived message at its destination peer. It runs at
// the boundary of the bucket containing the arrival time, before any of the
// peer's firings in that bucket; m is a copy, unpacked from the delivered
// view. RecvFunc gets no stream — handlers must be pure functions of the
// peer state and the message, which keeps all randomness accounted to
// (peer, firing-index) coordinates. Replies emitted here are timed from the
// bucket boundary.
type RecvFunc func(peer int, m simnet.Message, emit func(simnet.Message))

// Config parameterizes a runtime.
type Config struct {
	// N is the peer count.
	N int
	// Seed roots every stream of the run.
	Seed uint64
	// Fire is the per-firing protocol behavior.
	Fire FireFunc
	// Recv handles arrivals; nil means arrivals are dropped on the floor
	// (pure-push protocols that encode everything in Fire).
	Recv RecvFunc
	// Rates holds each peer's clock rate (> 0, finite); nil means unit
	// rates. Protocols derive these from their heterogeneity profile.
	Rates []float64
	// BucketWidth is the calendar bucket width W in clock-time units; 0
	// selects 1.0 (one bucket per expected unit-rate firing).
	BucketWidth float64
	// Latency is each message's flight time in clock-time units; 0 selects
	// BucketWidth. Arrivals are quantized to the boundary of the bucket the
	// arrival time falls in, and never land in the bucket that sent them.
	Latency float64
	// Shards is the worker count; any value produces bit-identical results.
	// 0 selects GOMAXPROCS; negative is an error.
	Shards int
	// Obs, when non-nil, receives per-(bucket, shard, phase) spans and
	// per-bucket gauges. Observers are read-only: attaching one never
	// changes any result (the determinism suites pin this).
	Obs *obs.Observer
}

// shardState is what a worker keeps beside its core lane: the time of the
// event it is replaying, which emit turns into an arrival bucket, and the
// generator every firing of its range reseeds and draws from.
type shardState struct {
	lane   *shardrt.Lane
	now    float64
	emit   func(simnet.Message)
	state  rng.Xoshiro256
	stream *rng.Stream
}

// shard pads shardState the way the core pads its lanes: now and state are
// written on every firing, so neighbours must not share their lines.
type shard struct {
	shardState
	_ [2*shardrt.CacheLine - unsafe.Sizeof(shardState{})%shardrt.CacheLine]byte
}

// Runtime executes an asynchronous protocol over n peers with shard
// workers. Construct with New; RunBuckets advances the calendar one bucket
// at a time and must not be called concurrently — parallelism happens
// inside the bucket.
type Runtime struct {
	core    *shardrt.Core
	fire    FireFunc
	recv    RecvFunc
	rates   []float64
	width   float64
	latency float64
	bucket  int
	// fireKey is Derive(Seed, DomainAsyncFire), the prefix every firing
	// stream's seed shares: peer i's stream k is seeded
	// Absorb(Absorb(fireKey, i), k).
	fireKey uint64

	// Per-peer clock state: the pending firing's absolute time and its
	// index. No generator state outlives a firing.
	nextFire []float64
	fireIdx  []uint64
	sh       []shard
}

// New builds a runtime. Peer clocks are seeded (and their first gaps drawn)
// in parallel across the shard workers.
func New(cfg Config) (*Runtime, error) {
	if cfg.Fire == nil {
		return nil, fmt.Errorf("async: runtime needs a fire function")
	}
	width := cfg.BucketWidth
	if width == 0 {
		width = 1
	}
	if width < 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("async: bucket width %v must be positive and finite", cfg.BucketWidth)
	}
	latency := cfg.Latency
	if latency == 0 {
		latency = width
	}
	if latency < 0 || math.IsNaN(latency) || math.IsInf(latency, 0) {
		return nil, fmt.Errorf("async: latency %v must be positive and finite", cfg.Latency)
	}
	// Compared in float: the ratio of two finite floats can be beyond int.
	if latency/width >= shardrt.MaxRing {
		return nil, fmt.Errorf("async: latency %v is %v bucket widths, beyond the calendar's %d slots",
			cfg.Latency, latency/width, shardrt.MaxRing)
	}
	rates := cfg.Rates
	if rates != nil {
		if len(rates) < cfg.N {
			return nil, fmt.Errorf("async: %d rates for %d peers", len(rates), cfg.N)
		}
		for i := 0; i < cfg.N; i++ {
			if !(rates[i] > 0) || math.IsInf(rates[i], 0) {
				return nil, fmt.Errorf("async: peer %d clock rate %v must be positive and finite", i, rates[i])
			}
		}
	}
	// An emission spans at most Latency/BucketWidth + 2 buckets (the upper
	// clamp in Send only guards float boundary noise), and the ring holds
	// the bucket being delivered as well.
	core, err := shardrt.New(shardrt.Config{
		N: cfg.N, Shards: cfg.Shards, Ring: int(latency/width) + 3, Weights: rates,
		Obs: cfg.Obs, Track: "async", WorkGauge: "fired", DepthGauge: "calendar_depth",
	})
	if err != nil {
		return nil, err
	}
	if rates == nil {
		rates = make([]float64, cfg.N)
		for i := range rates {
			rates[i] = 1
		}
	}
	rt := &Runtime{
		core:     core,
		fire:     cfg.Fire,
		recv:     cfg.Recv,
		rates:    rates,
		width:    width,
		latency:  latency,
		fireKey:  rng.Derive(cfg.Seed, rng.DomainAsyncFire),
		nextFire: make([]float64, cfg.N),
		fireIdx:  make([]uint64, cfg.N),
		sh:       make([]shard, core.Shards()),
	}
	for w := range rt.sh {
		sh := &rt.sh[w]
		sh.lane = core.Lane(w)
		sh.emit = rt.makeEmit(sh)
		sh.stream = rng.NewWithSource(&sh.state)
	}
	core.FanOut(func(w int) {
		sh := &rt.sh[w]
		lo, hi := core.Part().Range(w)
		for i := lo; i < hi; i++ {
			sh.state.Seed(rng.Absorb(rng.Absorb(rt.fireKey, uint64(i)), 0))
			rt.nextFire[i] = sh.stream.ExpFloat64() / rates[i]
		}
	})
	return rt, nil
}

// N returns the peer count.
func (rt *Runtime) N() int { return rt.core.N() }

// Shards returns the effective worker count.
func (rt *Runtime) Shards() int { return rt.core.Shards() }

// Cuts returns the step ranges, cut by cumulative clock rate: shard w
// steps the peers of [cuts[w], cuts[w+1]), and only it writes their
// protocol state.
func (rt *Runtime) Cuts() []int { return rt.core.Cuts() }

// Bucket returns the next bucket index RunBuckets will execute.
func (rt *Runtime) Bucket() int { return rt.bucket }

// Time returns the simulated time the calendar has advanced to: the start
// of the next bucket.
func (rt *Runtime) Time() float64 { return float64(rt.bucket) * rt.width }

// Fired returns the total number of clock firings executed so far.
func (rt *Runtime) Fired() int64 { return rt.core.Work() }

// Stats returns a copy of the traffic counters; Rounds counts buckets.
func (rt *Runtime) Stats() simnet.Stats { return rt.core.Stats() }

// makeEmit builds shard sh's emission callback: address the message,
// compute the arrival bucket from the current event time plus the flight
// latency, and hand it to the lane. Arrivals always land at least one
// bucket ahead (the bucket boundary is the latency quantum).
func (rt *Runtime) makeEmit(sh *shard) func(simnet.Message) {
	ln := sh.lane
	return func(m simnet.Message) {
		if !ln.Address(&m) {
			return
		}
		ln.Send(max(1, int((sh.now+rt.latency)/rt.width)-rt.bucket), m)
	}
}

// RunBuckets executes the given number of calendar buckets and returns the
// cumulative traffic statistics. It may be called repeatedly; in-flight
// messages and pending firings carry over between calls.
func (rt *Runtime) RunBuckets(buckets int) simnet.Stats {
	for b := 0; b < buckets; b++ {
		rt.core.Deliver(rt.bucket)
		rt.stepAll()
		rt.core.Route(rt.bucket)
		rt.bucket++
	}
	return rt.core.Stats()
}

// Inbox returns the messages delivered to peer i in the bucket RunBuckets
// executed last, for post-run inspection, in a fresh slice.
func (rt *Runtime) Inbox(i int) []simnet.Message { return rt.core.Inbox(i) }

// stepAll advances every peer through the current bucket: shard w walks its
// step range in ascending order; each peer absorbs its arrivals (canonical
// order, timed from the bucket boundary), then replays its clock firings
// that fall inside the bucket in time order, drawing each firing's
// randomness — and then the gap to the next firing — from the firing's
// private derived stream. Concatenating the shards' emissions in shard order
// therefore yields global (peer, firing) scan order, the canonical order
// the delivery sort preserves.
//
// Every peer is visited, since any may fire, but a step range is cut by
// clock rate and may span several delivery owners, each dense or sparse
// (the core's package comment): the walk takes the range owner by owner
// and reads a dense owner's inboxes off the view's offsets and a sparse
// one's off its mail list, with a cursor at that moves with the walk.
func (rt *Runtime) stepAll() {
	bStart := float64(rt.bucket) * rt.width
	bEnd := bStart + rt.width
	inOff, cuts, part := rt.core.View(), rt.core.Cuts(), rt.core.Part()
	rt.core.FanOutSpan(rt.bucket, obs.PhaseStep, func(w int) {
		sh := &rt.sh[w]
		ln := sh.lane
		fired := 0
		for lo, hi := cuts[w], cuts[w+1]; lo < hi; {
			o := part.Owner(lo)
			end := min(hi, part.End(o))
			dests, ends, sparse := rt.core.Mail(o)
			at, _ := slices.BinarySearch(dests, int32(lo))
			start := inOff[lo]
			if sparse {
				if start = inOff[part.Start(o)]; at > 0 {
					start = ends[at-1]
				}
			}
			for i := lo; i < end; i++ {
				ln.Seat(i)
				if rt.recv != nil {
					stop := start
					if !sparse {
						stop = inOff[i+1]
					} else if at < len(dests) && int(dests[at]) == i {
						stop = ends[at]
						at++
					}
					sh.now = bStart
					for _, m := range ln.Inbox(start, stop) {
						rt.recv(i, m, sh.emit)
					}
					start = stop
				}
				for rt.nextFire[i] < bEnd {
					t := rt.nextFire[i]
					k := rt.fireIdx[i]
					sh.now = t
					sh.state.Seed(rng.Absorb(rng.Absorb(rt.fireKey, uint64(i)), k+1))
					rt.fire(i, int(k), t, sh.stream, sh.emit)
					fired++
					rt.fireIdx[i] = k + 1
					rt.nextFire[i] = t + sh.stream.ExpFloat64()/rt.rates[i]
				}
			}
			lo = end
		}
		ln.AddWork(fired)
	})
}
