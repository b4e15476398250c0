// Package shardrt is the shard-runtime core under the two message runtimes,
// round-synchronous internal/live and exponential-clock internal/async: a
// fixed set of shard workers over flat, reusable message buffers, advancing
// one tick (a round, a calendar bucket) at a time. A runtime instantiates
// the core and keeps only what is its own: what one peer does in a tick and
// how many ticks a message flies. Differences arrive as data (ring size,
// step weights, track and gauge names); the core never asks who called it.
//
// # A tick
//
// The core splits the peer ids into Shards contiguous ranges. The caller
// runs three phases per tick, with a barrier (FanOut) between them:
//
//	Deliver  the ring slot due this tick is counting-sorted by destination
//	         on the owner-range exchange of internal/exch: each worker
//	         splits its contiguous chunk of the slot into per-owner
//	         (destination, index) chunks, a tiny serial Prefix assigns owner
//	         base offsets, and each owner Fill-sorts its own peer range and
//	         gathers the messages — so peer i's inbox is the contiguous
//	         slice sorted[inOff[i]:inOff[i+1]] (View, Inbox) and delivery
//	         scratch is O(n + messages);
//	step     the caller's own loop, one FanOutSpan over the step ranges:
//	         worker w seats its Lane at each peer of [cuts[w], cuts[w+1]) in
//	         ascending order and emits through it; Lane.Send records the
//	         message in the per-(worker, delay) chunk of a second,
//	         concat-form exchange;
//	Route    chunk lengths are known after the step barrier, so SetBase
//	         gives every worker a disjoint range of each future slot and the
//	         workers Flush in parallel, preserving worker-order
//	         concatenation; the lanes' counters merge into Stats and the
//	         gauges are sampled.
//
// # Two sets of ranges
//
// Delivery owners are always the uniform id cuts of exch.Partition (O(1)
// Owner, one count array per range). Step ranges are the cut array: the same
// uniform cuts by default, exch.BalancedCuts over Config.Weights when a
// peer's step cost is known and skewed; a step range may then be empty. The
// two need not agree, because per-peer state is touched by the step phase
// alone while Deliver and Route move message buffers only, and no result can
// tell where a step cut falls: ranges are contiguous and ascending, the
// outbox has one row per worker, and SetBase concatenates the rows in worker
// order, which is peer order wherever the cuts are.
//
// # Buffers
//
// A ring slot owns a buffer only while it holds messages. Once Deliver has
// gathered a slot, its buffer goes on a free list that Route draws from
// before it allocates, so the ring shares as many buffers as are non-empty
// at once. The delivered view is a buffer of its own that never joins the
// list: Inbox stays valid until the next Deliver although the slot it came
// from has been refilled. A non-empty slot that must grow copies into the
// larger buffer. Fresh buffers and the view get a quarter of headroom, so
// traffic that creeps up tick by tick reallocates every few ticks, not on
// each, without the double-peak footprint of doubling.
//
// # Determinism
//
// Nothing depends on the shard count. Peer i's generator state is advanced
// only by the worker whose step range holds i; workers walk ascending
// ranges, so concatenation in worker order is global emission order; the
// delivery sort is stable, so every inbox is in (tick sent, sender,
// emission) order. Lanes are padded so that no two workers' hot fields share
// a cache line.
package shardrt

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

const (
	// CacheLine is the line size the per-worker padding assumes.
	CacheLine = 64
	// MaxRing is the largest ring New accepts: messages fly at most
	// MaxRing-1 ticks. The largest ring in the repository has 9 slots; a
	// larger request is a unit mistake, and the ring and the shards x ring
	// outbox chunk headers are allocated up front.
	MaxRing = 1 << 16
)

// Config sizes a core.
type Config struct {
	N      int // peers, in [1, MaxInt32]
	Shards int // workers; 0 selects GOMAXPROCS, capped at N
	Ring   int // ring slots, in [2, MaxRing]; Send takes delays in [1, Ring)
	// Weights, when non-nil, cuts the step ranges by cumulative weight
	// (len >= N); nil keeps them equal to the delivery ranges.
	Weights []float64
	// Obs, when non-nil, receives per-(tick, worker, phase) spans and
	// per-tick gauges on a track named Track. Track also prefixes New's
	// errors; WorkGauge and DepthGauge name the per-tick work count and the
	// messages in flight.
	Obs                          *obs.Observer
	Track, WorkGauge, DepthGauge string
}

// cursorSource adapts the flat per-peer xoshiro state array as an
// rng.Source: the lane points node at the peer being stepped, so one Stream
// per worker serves every peer of its range without allocation.
type cursorSource struct {
	states []rng.Xoshiro256
	node   int
}

func (c *cursorSource) Uint64() uint64   { return c.states[c.node].Uint64() }
func (c *cursorSource) Seed(seed uint64) { c.states[c.node].Seed(seed) }

// laneState is one worker's private state: its cursor stream, the peer it
// is seated at (the sender of whatever it emits) and the tick's counters.
type laneState struct {
	// Stream draws from the generator state of the seated peer.
	Stream *rng.Stream
	src    cursorSource

	// w, n, ring and out are the core's, copied so that an emission reads
	// nothing but its own lane.
	w, n, ring             int
	out                    *exch.Exchange[simnet.Message]
	sent, dropped, clamped int64
	work                   int64
	byKind                 [256]int64
}

// Lane pads laneState so that no two workers share a cache line: the lanes
// are a dense array, and the seat and the counters are written on every
// peer-step and every message. The pad is a full line (so the guarantee
// does not depend on the array's alignment) rounded up to keep the size a
// multiple of the line.
type Lane struct {
	laneState
	_ [2*CacheLine - unsafe.Sizeof(laneState{})%CacheLine]byte
}

// Seat points the lane at peer i: Stream draws from i's state and emissions
// are stamped From i.
func (l *Lane) Seat(i int) { l.src.node = i }

// Address stamps m with the seated sender and reports whether its
// destination exists; a message to nowhere is counted as Dropped.
func (l *Lane) Address(m *simnet.Message) bool {
	m.From = l.src.node
	if m.To < 0 || m.To >= l.n {
		l.dropped++
		return false
	}
	return true
}

// Drop counts a message the caller's network lost.
func (l *Lane) Drop() { l.dropped++ }

// Send schedules an addressed message d >= 1 ticks ahead. The core cannot
// schedule past its ring, so a larger d is delivered at the horizon and
// counted in Stats.Clamped rather than silently reclassified.
func (l *Lane) Send(d int, m simnet.Message) {
	if d >= l.ring {
		d = l.ring - 1
		l.clamped++
	}
	l.sent++
	l.byKind[m.Kind]++
	l.out.RecordTo(l.w, d, m)
}

// AddWork adds k units to the tick's work count (peers stepped, clocks
// fired): the WorkGauge sample, and Work's running total.
func (l *Lane) AddWork(k int) { l.work += int64(k) }

// Core is the shared machine. Construct with New; Deliver, the caller's
// step fan-out and Route run in that order once per tick, from one
// goroutine — parallelism happens inside the phases.
type Core struct {
	n, shards, ring int

	states []rng.Xoshiro256
	part   exch.Partition // delivery owners: uniform id ranges
	cuts   []int          // step ranges: shards+1 ascending boundaries
	lanes  []Lane

	// inbox is the delivery exchange: per-(worker, owner) chunks of
	// (destination, slot index) records, Fill-sorted by each owner. outbox
	// is the route exchange: per-(worker, delay) concat chunks of emissions.
	inbox  exch.Exchange[int32]
	outbox exch.Exchange[simnet.Message]

	// slots[t % ring] holds the messages due at tick t in canonical order;
	// free holds the buffers of gathered slots (package comment, "Buffers").
	slots, free [][]simnet.Message
	// sorted/inOff are the delivered view; sortedIdx is the Fill output
	// feeding the gather (4-byte slot indices in the exchange chunks instead
	// of 40-byte messages).
	sorted    []simnet.Message
	sortedIdx []int32
	inOff     []int32

	stats simnet.Stats
	work  int64

	// Instrumentation, nil without an observer: the hot path then pays a nil
	// check per phase. arenas[w] is worker w's span sink, merged into tr at
	// the end of Route.
	tr                        *obs.Track
	arenas                    []*obs.Arena
	gSent, gDropped, gClamped *obs.Gauge
	gWork, gDepth, gScratch   *obs.Gauge
}

// EffectiveShards returns the worker count New runs with for a configured
// Shards value over n peers: 0 selects GOMAXPROCS, and the count is capped
// at n.
func EffectiveShards(n, shards int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return min(shards, n)
}

// New validates cfg, before allocating anything, and builds the core. The
// generator states are left unseeded for the caller.
func New(cfg Config) (*Core, error) {
	switch {
	case cfg.N <= 0:
		return nil, fmt.Errorf("%s: runtime needs n > 0, got %d", cfg.Track, cfg.N)
	case cfg.N > math.MaxInt32:
		// Deliver records destinations and slot indices as int32.
		return nil, fmt.Errorf("%s: %d peers exceed the runtime's limit of %d", cfg.Track, cfg.N, math.MaxInt32)
	case cfg.Shards < 0:
		return nil, fmt.Errorf("%s: shards %d must be non-negative (0 selects GOMAXPROCS)", cfg.Track, cfg.Shards)
	case cfg.Ring < 2 || cfg.Ring > MaxRing:
		return nil, fmt.Errorf("%s: a delivery ring of %d slots is outside [2, %d]", cfg.Track, cfg.Ring, MaxRing)
	}
	shards := EffectiveShards(cfg.N, cfg.Shards)
	c := &Core{
		n: cfg.N, shards: shards, ring: cfg.Ring,
		states: make([]rng.Xoshiro256, cfg.N),
		part:   exch.Partition{N: cfg.N, Parts: shards},
		lanes:  make([]Lane, shards),
		slots:  make([][]simnet.Message, cfg.Ring),
		free:   make([][]simnet.Message, 0, cfg.Ring),
		inOff:  make([]int32, cfg.N+1),
	}
	if cfg.Weights != nil {
		c.cuts = exch.BalancedCuts(nil, cfg.N, shards, func(i int) float64 { return cfg.Weights[i] })
	} else {
		c.cuts = make([]int, shards+1)
		for w := range c.cuts {
			c.cuts[w] = c.part.Start(w)
		}
	}
	c.inbox.Reset(shards, c.part)
	c.outbox.Reset(shards, exch.Partition{N: cfg.Ring, Parts: cfg.Ring})
	for w := range c.lanes {
		l := &c.lanes[w]
		l.w, l.n, l.ring, l.out = w, c.n, c.ring, &c.outbox
		l.src.states = c.states
		l.Stream = rng.NewWithSource(&l.src)
	}
	if cfg.Obs != nil {
		c.tr = cfg.Obs.Track(cfg.Track, shards)
		c.arenas = make([]*obs.Arena, shards)
		for w := range c.arenas {
			c.arenas[w] = c.tr.Arena(w)
		}
		c.gSent = c.tr.Gauge("sent")
		c.gDropped = c.tr.Gauge("dropped")
		c.gClamped = c.tr.Gauge("clamped")
		c.gWork = c.tr.Gauge(cfg.WorkGauge)
		c.gDepth = c.tr.Gauge(cfg.DepthGauge)
		c.gScratch = c.tr.Gauge("scratch_bytes")
	}
	return c, nil
}

// N returns the peer count.
func (c *Core) N() int { return c.n }

// Shards returns the effective worker count.
func (c *Core) Shards() int { return c.shards }

// Stats returns a copy of the traffic counters; Rounds counts ticks.
func (c *Core) Stats() simnet.Stats { return c.stats }

// Work returns the total of the lanes' AddWork over all ticks routed.
func (c *Core) Work() int64 { return c.work }

// States returns the per-peer generator states; state i belongs to the
// worker whose range holds i.
func (c *Core) States() []rng.Xoshiro256 { return c.states }

// Part returns the delivery partition.
func (c *Core) Part() exch.Partition { return c.part }

// Cuts returns the step-range boundaries: worker w steps [Cuts()[w],
// Cuts()[w+1]).
func (c *Core) Cuts() []int { return c.cuts }

// Lane returns worker w's lane.
func (c *Core) Lane(w int) *Lane { return &c.lanes[w] }

// View returns the delivered view of the last Deliver: peer i's inbox is
// sorted[inOff[i]:inOff[i+1]]. Valid until the next Deliver.
func (c *Core) View() (sorted []simnet.Message, inOff []int32) { return c.sorted, c.inOff }

// Inbox returns the messages delivered to peer i by the last Deliver.
func (c *Core) Inbox(i int) []simnet.Message { return c.sorted[c.inOff[i]:c.inOff[i+1]] }

// Buffers exposes the ring and the free list to the lifetime tests of the
// packages above; read-only.
func (c *Core) Buffers() (slots, free [][]simnet.Message) { return c.slots, c.free }

// FanOut runs f(w) for every worker; w == 0 runs on the calling goroutine.
// The barriers on both sides are the only synchronization in the runtime.
func (c *Core) FanOut(f func(w int)) { par.Do(c.shards, f) }

// FanOutSpan is FanOut with each worker's share recorded as a phase span of
// the tick in the worker's private arena; without an observer it is FanOut.
func (c *Core) FanOutSpan(tick int, p obs.Phase, f func(w int)) {
	if c.arenas == nil {
		c.FanOut(f)
		return
	}
	c.FanOut(func(w int) {
		t0 := time.Now()
		f(w)
		c.arenas[w].Record(tick, p, t0)
	})
}

// Deliver sorts the slot due at tick into the delivered view. Within a
// peer's bucket Fill's order is ascending slot position: the canonical
// (tick sent, sender, emission) order. An empty slot leaves every inbox
// empty.
func (c *Core) Deliver(tick int) {
	slot := tick % c.ring
	buf := c.slots[slot]
	if len(buf) == 0 {
		c.sorted = c.sorted[:0]
		clear(c.inOff)
		return
	}

	bufPart := exch.Partition{N: len(buf), Parts: c.shards}
	c.FanOutSpan(tick, obs.PhaseDeliver, func(w int) {
		c.inbox.ClearWorker(w)
		lo, hi := bufPart.Range(w)
		for k := lo; k < hi; k++ {
			c.inbox.Record(w, int32(buf[k].To), int32(k))
		}
	})
	c.inbox.Prefix()

	if cap(c.sorted) < len(buf) {
		c.sorted = make([]simnet.Message, len(buf), withHeadroom(len(buf)))
		c.sortedIdx = make([]int32, len(buf), withHeadroom(len(buf)))
	}
	c.sorted = c.sorted[:len(buf)]
	c.sortedIdx = c.sortedIdx[:len(buf)]
	c.FanOutSpan(tick, obs.PhaseDeliver, func(o int) {
		end := c.inbox.Fill(o, c.inOff, c.sortedIdx)
		for j := c.inbox.Base(o); j < end; j++ {
			c.sorted[j] = buf[c.sortedIdx[j]]
		}
	})
	c.inOff[c.n] = int32(len(buf))
	// The gather has copied every message out: the slot's buffer is free for
	// whichever slot Route fills next.
	c.slots[slot] = nil
	c.free = append(c.free, buf[:0])
}

// Route hands the tick's emissions to the future slots and closes the tick:
// the lanes' counters merge into Stats and the gauges are sampled. Slot
// (tick + d) is never the slot delivered this tick since 1 <= d < ring.
func (c *Core) Route(tick int) {
	filled := false
	for d := 1; d < c.ring; d++ {
		slot := (tick + d) % c.ring
		base := len(c.slots[slot])
		if end := c.outbox.SetBase(d, base); end != base {
			filled = true
			c.slots[slot] = c.growSlot(c.slots[slot], end)
		}
	}
	if filled {
		c.FanOutSpan(tick, obs.PhaseRoute, func(w int) {
			for d := 1; d < c.ring; d++ {
				c.outbox.Flush(w, d, c.slots[(tick+d)%c.ring])
			}
		})
	}
	var work int64
	for w := range c.lanes {
		l := &c.lanes[w]
		c.stats.Sent += l.sent
		c.stats.Dropped += l.dropped
		c.stats.Clamped += l.clamped
		work += l.work
		l.sent, l.dropped, l.clamped, l.work = 0, 0, 0, 0
		for k, n := range l.byKind {
			if n != 0 {
				c.stats.ByKind[k] += n
				l.byKind[k] = 0
			}
		}
	}
	c.work += work
	c.stats.Rounds++
	if c.tr == nil {
		return
	}
	c.gSent.Sample(tick, c.stats.Sent)
	c.gDropped.Sample(tick, c.stats.Dropped)
	c.gClamped.Sample(tick, c.stats.Clamped)
	c.gWork.Sample(tick, work)
	depth := 0
	for _, s := range c.slots {
		depth += len(s)
	}
	c.gDepth.Sample(tick, int64(depth))
	c.gScratch.Sample(tick, c.ScratchBytes())
	c.tr.Barrier()
}

// growSlot returns the slot buffer s resliced to length size, contents
// kept. A buffer that is too small is traded for the largest one on the
// free list; when that is too small as well it is left to the collector
// (the traffic has outgrown it) and a fresh buffer with headroom takes its
// place. Either way the old buffer joins the free list, so every allocation
// leaves the ring and the list together holding at most ring buffers.
func (c *Core) growSlot(s []simnet.Message, size int) []simnet.Message {
	if cap(s) >= size {
		return s[:size]
	}
	var ns []simnet.Message
	if len(c.free) > 0 {
		k := 0
		for j := range c.free {
			if cap(c.free[j]) > cap(c.free[k]) {
				k = j
			}
		}
		last := len(c.free) - 1
		ns, c.free[k], c.free[last] = c.free[k], c.free[last], nil
		c.free = c.free[:last]
	}
	if cap(ns) < size {
		ns = make([]simnet.Message, size, withHeadroom(size))
	}
	ns = ns[:size]
	if cap(s) > 0 {
		copy(ns, s)
		c.free = append(c.free, s[:0])
	}
	return ns
}

// withHeadroom is the capacity a message buffer of length size is allocated
// with (package comment, "Buffers").
func withHeadroom(size int) int { return size + size/4 }

// ScratchBytes estimates the reusable buffer footprint: the ring with its
// free list, the delivered view and the offset table.
func (c *Core) ScratchBytes() int64 {
	const msgBytes = int64(unsafe.Sizeof(simnet.Message{}))
	b := int64(cap(c.sorted))*msgBytes + int64(cap(c.sortedIdx))*4 + int64(cap(c.inOff))*4
	for _, s := range c.slots {
		b += int64(cap(s)) * msgBytes
	}
	for _, s := range c.free {
		b += int64(cap(s)) * msgBytes
	}
	return b
}
