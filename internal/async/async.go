// Package async is the clockless event-driven runtime: the same sharded,
// flat-buffer execution style as internal/live, but with no global round
// barrier. Each peer fires on its own exponential clock — the rate drawn
// from its heterogeneity profile — and the runtime drains a sharded,
// timestamp-ordered calendar queue whose time axis is cut into buckets.
// Shards only synchronize at bucket boundaries.
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
// Continuous time is partitioned into buckets of width BucketWidth; the
// runtime executes bucket b = [b·W, (b+1)·W) as one parallel step:
//
//	deliver  messages whose arrival falls in this bucket are counting-sorted
//	         by destination on the owner-range exchange kernel of
//	         internal/exch — the per-(shard, owner) record/Prefix/Fill idiom
//	         shared with the live runtime — so peer i's arrivals are one
//	         contiguous slice;
//	step     each shard walks its own peer range: a peer first absorbs its
//	         arrivals (in canonical order), then replays its firings with
//	         timestamps inside the bucket, in time order; emitted messages
//	         are stamped with arrival time = emission time + Latency and
//	         recorded in the per-(shard, Δbucket) chunks of a concat-form
//	         exchange;
//	route    exch.SetBase/Flush hand the chunks off to the future calendar
//	         slots in parallel, preserving shard-order concatenation.
//
// Within a bucket, peers interact only through messages that land in later
// buckets, so shards never read each other's state between the boundary
// barriers — the bucket boundary is the only synchronization point, where
// the round-synchronous runtime pays three barriers per round.
//
// # Two sets of ranges
//
// Deliver and step cut [0, n) differently. Delivery ranges are the uniform
// id cuts of exch.Partition: arrivals are spread over the ids by the
// protocol's selector, and the kernel wants O(1) Owner and one count array
// per range. Step ranges are cut once, in New, by cumulative clock rate
// (exch.BalancedCuts over Rates): a peer of rate 8 replays eight times the
// firings of a peer of rate 1, so on a profile with the fast peers in front
// equal-width ranges left one shard with most of the bucket's work and the
// others waiting at the barrier. A step range may be empty (one peer
// carrying most of the rate). The two cuts need not agree because per-peer
// state — clocks, generator states, the protocol's own arrays — is touched
// by the step phase alone; deliver and route move message buffers only, and
// step reads the delivered view strictly after the deliver barrier. Nor do
// the step cuts show in any result: ranges are contiguous and ascending,
// the outbox has one row per step shard, and SetBase concatenates the rows
// in shard order, which is peer order wherever the cuts fall.
//
// # Calendar buffers
//
// A calendar slot owns a buffer only while it holds messages. Once deliver
// has gathered a slot into the delivered view, the slot's buffer goes on a
// free list, and route draws from that list before it allocates; the ring
// of Latency/BucketWidth+3 slots therefore shares as many buffers as are
// non-empty at once — one when every message spans a single bucket —
// instead of owning one each. The delivered view is a buffer of its own
// that never joins the list, so what Inbox returns stays valid until the
// next RunBuckets even though the slot it came from has been refilled. A
// non-empty slot that must grow (several Δbuckets landing in it) copies its
// contents into the larger buffer. Fresh buffers, and the delivered view,
// are allocated with a quarter of headroom: traffic that creeps up bucket
// by bucket, as pull replies make it do, then reallocates every few buckets
// instead of on each.
//
// # Determinism
//
// A run is a pure function of (n, seed, rates, widths, handlers) — the
// shard count is invisible. Peer i's k-th firing draws its inter-firing gap
// and its protocol randomness from a private stream seeded
// rng.Derive(seed, rng.DomainAsyncFire, i, k); since only the shard owning
// peer i ever advances that state, and since the exchange kernel reassembles
// messages in global (peer, firing-index) scan order regardless of which
// shard recorded them, every shard count replays the identical event
// history bit for bit. Arrival times are quantized to bucket boundaries
// (an arrival inside bucket b is absorbed when bucket b opens, before any
// firing of bucket b), so the effective latency of a message is
// max(Latency, time to the next boundary) — the bucket width is the
// latency quantum of the model.
package async

import (
	"fmt"
	"math"
	"runtime"
	"time"
	"unsafe"

	"repro/internal/exch"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// FireFunc is one peer's behavior at one firing of its clock: peer fires
// for the k-th time at absolute time t, draws whatever randomness it needs
// from s (its private per-(peer, firing) stream — the same stream the gap
// before this firing came from), and emits messages. From is stamped by the
// runtime; emitted messages arrive Latency later, quantized to the bucket
// boundary. A FireFunc may keep per-peer state indexed by peer id but must
// not touch shared state: peers of different shards run concurrently.
type FireFunc func(peer, fire int, t float64, s *rng.Stream, emit func(simnet.Message))

// RecvFunc handles one arrived message at its destination peer. It runs at
// the boundary of the bucket containing the arrival time, before any of the
// peer's firings in that bucket. RecvFunc gets no stream — handlers must be
// pure functions of the peer state and the message, which keeps all
// randomness accounted to (peer, firing-index) coordinates. Replies emitted
// here are timed from the bucket boundary.
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

// cursorSource adapts the flat per-peer xoshiro state array as an
// rng.Source, exactly as the live runtime does: the owning shard points
// node at the peer being fired, so one Stream per shard serves every peer
// of the shard without allocation.
type cursorSource struct {
	states []rng.Xoshiro256
	node   int
}

func (c *cursorSource) Uint64() uint64   { return c.states[c.node].Uint64() }
func (c *cursorSource) Seed(seed uint64) { c.states[c.node].Seed(seed) }

// shard is one worker's private state.
type shard struct {
	w      int
	src    cursorSource
	stream *rng.Stream

	sender int
	now    float64
	emit   func(simnet.Message)

	sent    int64
	dropped int64
	clamped int64
	fired   int64
	byKind  [256]int64
}

// Runtime executes an asynchronous protocol over n peers with shard
// workers. Construct with New; RunBuckets advances the calendar one bucket
// at a time and must not be called concurrently — parallelism happens
// inside the bucket.
type Runtime struct {
	n        int
	shards   int
	fire     FireFunc
	recv     RecvFunc
	rates    []float64
	width    float64
	latency  float64
	maxDelta int // largest Δbucket a message can span; ring size - 1
	seed     uint64
	bucket   int

	// Per-peer clock state: the xoshiro state of the pending firing (gap
	// already drawn from it; the firing's protocol draws continue it), the
	// pending firing's absolute time, and its index.
	states   []rng.Xoshiro256
	nextFire []float64
	fireIdx  []uint64

	// part is the delivery partition: uniform id ranges, whose owners sort
	// the bucket's arrivals. stepCut holds the shards+1 boundaries of the
	// step ranges: contiguous like part's, but cut by cumulative clock rate,
	// so that every shard replays about the same number of firings.
	part    exch.Partition
	stepCut []int
	sh      []shard

	// inbox is the delivery exchange: per-(shard, owner) chunks of
	// (destination, slot index) records, Fill-sorted by each owner.
	inbox exch.Exchange[int32]
	// outbox is the calendar handoff: per-(shard, Δbucket) concat chunks of
	// emitted messages, flushed into the calendar slots with SetBase/Flush.
	outbox exch.Exchange[simnet.Message]

	// slots is the calendar: messages arriving in bucket b sit in
	// slots[b % (maxDelta+1)], in canonical (sender, firing) order. A slot
	// owns a buffer only while it holds messages; free holds the buffers of
	// gathered slots until route reuses them (package comment, "Calendar
	// buffers"), never more than the ring has slots.
	slots [][]simnet.Message
	free  [][]simnet.Message
	// sorted/inOff are the delivered view of the current bucket: peer i's
	// arrivals are sorted[inOff[i]:inOff[i+1]]. sorted never joins free.
	sorted    []simnet.Message
	sortedIdx []int32
	inOff     []int32

	stats simnet.Stats
	fired int64

	// Instrumentation (nil when no observer is attached; the hot path then
	// pays a nil check and nothing else). arenas[w] is shard w's span sink,
	// merged into tr at the bucket barrier; the gauges sample the calendar
	// once per bucket from the coordinator.
	tr              *obs.Track
	arenas          []*obs.Arena
	gSent, gDropped *obs.Gauge
	gClamped        *obs.Gauge
	gFired, gQueue  *obs.Gauge
	gScratch        *obs.Gauge
}

// New builds a runtime. Peer clocks are seeded (and their first gaps drawn)
// in parallel across the shard workers.
func New(cfg Config) (*Runtime, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("async: runtime needs n > 0, got %d", cfg.N)
	}
	if cfg.Fire == nil {
		return nil, fmt.Errorf("async: runtime needs a fire function")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("async: shards %d must be non-negative (0 selects GOMAXPROCS)", cfg.Shards)
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
	rates := cfg.Rates
	if rates == nil {
		rates = make([]float64, cfg.N)
		for i := range rates {
			rates[i] = 1
		}
	}
	if len(rates) < cfg.N {
		return nil, fmt.Errorf("async: %d rates for %d peers", len(rates), cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		if !(rates[i] > 0) || math.IsInf(rates[i], 0) {
			return nil, fmt.Errorf("async: peer %d clock rate %v must be positive and finite", i, rates[i])
		}
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > cfg.N {
		shards = cfg.N
	}

	rt := &Runtime{
		n:        cfg.N,
		shards:   shards,
		fire:     cfg.Fire,
		recv:     cfg.Recv,
		rates:    rates,
		width:    width,
		latency:  latency,
		maxDelta: int(latency/width) + 2,
		seed:     cfg.Seed,
		states:   make([]rng.Xoshiro256, cfg.N),
		nextFire: make([]float64, cfg.N),
		fireIdx:  make([]uint64, cfg.N),
		part:     exch.Partition{N: cfg.N, Parts: shards},
		stepCut:  exch.BalancedCuts(nil, cfg.N, shards, func(i int) float64 { return rates[i] }),
		sh:       make([]shard, shards),
		inOff:    make([]int32, cfg.N+1),
	}
	ring := rt.maxDelta + 1
	rt.slots = make([][]simnet.Message, ring)
	rt.free = make([][]simnet.Message, 0, ring)
	rt.inbox.Reset(shards, rt.part)
	rt.outbox.Reset(shards, exch.Partition{N: ring, Parts: ring})
	for w := range rt.sh {
		sh := &rt.sh[w]
		sh.w = w
		sh.src.states = rt.states
		sh.stream = rng.NewWithSource(&sh.src)
		sh.emit = rt.makeEmit(sh)
	}
	if cfg.Obs != nil {
		rt.tr = cfg.Obs.Track("async", shards)
		rt.arenas = make([]*obs.Arena, shards)
		for w := range rt.arenas {
			rt.arenas[w] = rt.tr.Arena(w)
		}
		rt.gSent = rt.tr.Gauge("sent")
		rt.gDropped = rt.tr.Gauge("dropped")
		rt.gClamped = rt.tr.Gauge("clamped")
		rt.gFired = rt.tr.Gauge("fired")
		rt.gQueue = rt.tr.Gauge("calendar_depth")
		rt.gScratch = rt.tr.Gauge("scratch_bytes")
	}
	rt.fanOut(func(w int) {
		sh := &rt.sh[w]
		lo, hi := rt.part.Range(w)
		for i := lo; i < hi; i++ {
			rt.states[i].Seed(rng.Derive(cfg.Seed, rng.DomainAsyncFire, uint64(i), 0))
			sh.src.node = i
			rt.nextFire[i] = sh.stream.ExpFloat64() / rt.rates[i]
		}
	})
	return rt, nil
}

// N returns the peer count.
func (rt *Runtime) N() int { return rt.n }

// Shards returns the effective worker count.
func (rt *Runtime) Shards() int { return rt.shards }

// Bucket returns the next bucket index RunBuckets will execute.
func (rt *Runtime) Bucket() int { return rt.bucket }

// Time returns the simulated time the calendar has advanced to: the start
// of the next bucket.
func (rt *Runtime) Time() float64 { return float64(rt.bucket) * rt.width }

// Fired returns the total number of clock firings executed so far.
func (rt *Runtime) Fired() int64 { return rt.fired }

// Stats returns a copy of the traffic counters; Rounds counts buckets.
func (rt *Runtime) Stats() simnet.Stats { return rt.stats }

// makeEmit builds shard sh's emission callback: stamp the sender, compute
// the arrival bucket from the current event time plus the flight latency,
// and record the message in the matching per-(shard, Δbucket) chunk.
// Arrivals always land at least one bucket ahead (the bucket boundary is
// the latency quantum); the upper clamp only guards float boundary noise
// and is counted in Stats.Clamped.
func (rt *Runtime) makeEmit(sh *shard) func(simnet.Message) {
	return func(m simnet.Message) {
		m.From = sh.sender
		if m.To < 0 || m.To >= rt.n {
			sh.dropped++
			return
		}
		db := int((sh.now+rt.latency)/rt.width) - rt.bucket
		if db < 1 {
			db = 1
		}
		if db > rt.maxDelta {
			db = rt.maxDelta
			sh.clamped++
		}
		sh.sent++
		sh.byKind[m.Kind]++
		rt.outbox.RecordTo(sh.w, db, m)
	}
}

// fanOut runs f(w) for every shard; the barriers on both sides are the only
// synchronization in the runtime.
func (rt *Runtime) fanOut(f func(w int)) {
	par.Do(rt.shards, f)
}

// fanOutSpan is fanOut with each shard's work recorded as a phase span in
// the shard's private arena. With no observer it is exactly fanOut — the
// disabled path costs one nil check per phase.
func (rt *Runtime) fanOutSpan(p obs.Phase, f func(w int)) {
	if rt.arenas == nil {
		rt.fanOut(f)
		return
	}
	bucket := rt.bucket
	rt.fanOut(func(w int) {
		t0 := time.Now()
		f(w)
		rt.arenas[w].Record(bucket, p, t0)
	})
}

// bucketSample feeds the per-bucket gauges and merges the shard arenas into
// the track; called by the coordinator at the end of route, where the
// shards are quiescent. No-op without an observer.
func (rt *Runtime) bucketSample() {
	if rt.tr == nil {
		return
	}
	rt.gSent.Sample(rt.bucket, rt.stats.Sent)
	rt.gDropped.Sample(rt.bucket, rt.stats.Dropped)
	rt.gClamped.Sample(rt.bucket, rt.stats.Clamped)
	rt.gFired.Sample(rt.bucket, rt.fired)
	depth := 0
	for _, s := range rt.slots {
		depth += len(s)
	}
	rt.gQueue.Sample(rt.bucket, int64(depth))
	rt.gScratch.Sample(rt.bucket, rt.scratchBytes())
	rt.tr.Barrier()
}

// scratchBytes estimates the runtime's reusable buffer footprint: the
// calendar ring with its free list, the delivered view and the offset table.
func (rt *Runtime) scratchBytes() int64 {
	const msgBytes = int64(unsafe.Sizeof(simnet.Message{}))
	b := int64(cap(rt.sorted))*msgBytes + int64(cap(rt.sortedIdx))*4 + int64(cap(rt.inOff))*4
	for _, s := range rt.slots {
		b += int64(cap(s)) * msgBytes
	}
	for _, s := range rt.free {
		b += int64(cap(s)) * msgBytes
	}
	return b
}

// RunBuckets executes the given number of calendar buckets and returns the
// cumulative traffic statistics. It may be called repeatedly; in-flight
// messages and pending firings carry over between calls.
func (rt *Runtime) RunBuckets(buckets int) simnet.Stats {
	for b := 0; b < buckets; b++ {
		rt.deliver()
		rt.stepAll()
		rt.route()
		rt.bucket++
		rt.stats.Rounds++
	}
	return rt.stats
}

// Inbox returns the messages delivered to peer i in the bucket RunBuckets
// executed last, for post-run inspection. Valid until the next RunBuckets.
func (rt *Runtime) Inbox(i int) []simnet.Message {
	return rt.sorted[rt.inOff[i]:rt.inOff[i+1]]
}

// deliver counting-sorts the calendar slot opening this bucket by
// destination on the owner-range exchange: record per-owner chunks, serial
// prefix, per-owner Fill + gather — the exact delivery kernel of the live
// runtime, with buckets in place of rounds.
func (rt *Runtime) deliver() {
	slot := rt.bucket % (rt.maxDelta + 1)
	buf := rt.slots[slot]
	if len(buf) == 0 {
		rt.sorted = rt.sorted[:0]
		for i := range rt.inOff {
			rt.inOff[i] = 0
		}
		return
	}

	bufPart := exch.Partition{N: len(buf), Parts: rt.shards}
	rt.fanOutSpan(obs.PhaseDeliver, func(w int) {
		rt.inbox.ClearWorker(w)
		lo, hi := bufPart.Range(w)
		for k := lo; k < hi; k++ {
			rt.inbox.Record(w, int32(buf[k].To), int32(k))
		}
	})
	rt.inbox.Prefix()

	if cap(rt.sorted) < len(buf) {
		// Pull replies make each bucket of a spread a few percent larger than
		// the last; growing to exactly len(buf) reallocated the whole view on
		// every one of them.
		rt.sorted = make([]simnet.Message, len(buf), withHeadroom(len(buf)))
		rt.sortedIdx = make([]int32, len(buf), withHeadroom(len(buf)))
	}
	rt.sorted = rt.sorted[:len(buf)]
	rt.sortedIdx = rt.sortedIdx[:len(buf)]
	rt.fanOutSpan(obs.PhaseDeliver, func(o int) {
		end := rt.inbox.Fill(o, rt.inOff, rt.sortedIdx)
		for j := rt.inbox.Base(o); j < end; j++ {
			rt.sorted[j] = buf[rt.sortedIdx[j]]
		}
	})
	rt.inOff[rt.n] = int32(len(buf))
	// The gather has copied every message out: the slot's buffer is free
	// for whichever slot route fills next.
	rt.slots[slot] = nil
	rt.free = append(rt.free, buf[:0])
}

// stepAll advances every peer through the current bucket: shard w walks its
// peer range in ascending order; each peer absorbs its arrivals (canonical
// order, timed from the bucket boundary), then replays its clock firings
// that fall inside the bucket in time order, drawing each firing's
// randomness — and the gap to the next firing — from the firing's private
// derived stream. Concatenating the shards' emissions in shard order
// therefore yields global (peer, firing) scan order, the canonical order
// the delivery sort preserves.
func (rt *Runtime) stepAll() {
	bStart := float64(rt.bucket) * rt.width
	bEnd := bStart + rt.width
	rt.fanOutSpan(obs.PhaseStep, func(w int) {
		sh := &rt.sh[w]
		lo, hi := rt.stepCut[w], rt.stepCut[w+1]
		for i := lo; i < hi; i++ {
			sh.sender = i
			if rt.recv != nil {
				sh.now = bStart
				for _, m := range rt.sorted[rt.inOff[i]:rt.inOff[i+1]] {
					rt.recv(i, m, sh.emit)
				}
			}
			for rt.nextFire[i] < bEnd {
				t := rt.nextFire[i]
				k := rt.fireIdx[i]
				sh.now = t
				sh.src.node = i
				rt.fire(i, int(k), t, sh.stream, sh.emit)
				sh.fired++
				rt.fireIdx[i] = k + 1
				rt.states[i].Seed(rng.Derive(rt.seed, rng.DomainAsyncFire, uint64(i), k+1))
				rt.nextFire[i] = t + sh.stream.ExpFloat64()/rt.rates[i]
			}
		}
	})
}

// route hands the shards' per-Δbucket chunks off to the future calendar
// slots in parallel: SetBase assigns every shard a disjoint range of each
// slot, Flush copies concurrently, preserving the shard-order concatenation
// the determinism contract rests on; then the traffic counters merge.
func (rt *Runtime) route() {
	ring := rt.maxDelta + 1
	work := false
	for d := 1; d <= rt.maxDelta; d++ {
		slot := (rt.bucket + d) % ring
		base := len(rt.slots[slot])
		acc := rt.outbox.SetBase(d, base)
		if acc == base {
			continue
		}
		work = true
		rt.slots[slot] = rt.growSlot(rt.slots[slot], acc)
	}
	if work {
		rt.fanOutSpan(obs.PhaseRoute, func(w int) {
			for d := 1; d <= rt.maxDelta; d++ {
				slot := (rt.bucket + d) % ring
				rt.outbox.Flush(w, d, rt.slots[slot])
			}
		})
	}
	for w := range rt.sh {
		sh := &rt.sh[w]
		rt.stats.Sent += sh.sent
		rt.stats.Dropped += sh.dropped
		rt.stats.Clamped += sh.clamped
		rt.fired += sh.fired
		sh.sent, sh.dropped, sh.clamped, sh.fired = 0, 0, 0, 0
		for k, c := range sh.byKind {
			if c != 0 {
				rt.stats.ByKind[k] += c
				sh.byKind[k] = 0
			}
		}
	}
	rt.bucketSample()
}

// growSlot returns the calendar slot buffer s resliced to length size,
// contents kept. A buffer that is too small is traded for the largest one on
// the free list; when that is too small as well it is left to the collector
// (the traffic has outgrown it) and a fresh buffer with headroom takes its
// place. Either way the old buffer joins the free list, so every allocation
// leaves the ring and the list together holding at most ring buffers.
func (rt *Runtime) growSlot(s []simnet.Message, size int) []simnet.Message {
	if cap(s) >= size {
		return s[:size]
	}
	var ns []simnet.Message
	if len(rt.free) > 0 {
		k := 0
		for j := range rt.free {
			if cap(rt.free[j]) > cap(rt.free[k]) {
				k = j
			}
		}
		last := len(rt.free) - 1
		ns, rt.free[k], rt.free[last] = rt.free[k], rt.free[last], nil
		rt.free = rt.free[:last]
	}
	if cap(ns) < size {
		ns = make([]simnet.Message, size, withHeadroom(size))
	}
	ns = ns[:size]
	if cap(s) > 0 {
		copy(ns, s)
		rt.free = append(rt.free, s[:0])
	}
	return ns
}

// withHeadroom is the capacity a message buffer of length size is allocated
// with: a quarter more, so that traffic creeping up bucket by bucket does
// not reallocate on every bucket, without leaving the buffer at twice its
// peak as doubling can.
func withHeadroom(size int) int { return size + size/4 }
