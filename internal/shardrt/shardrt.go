// Package shardrt is the shard-runtime core under the two message runtimes,
// round-synchronous internal/live and exponential-clock internal/async: a
// fixed set of shard workers over pooled message pages, advancing one tick
// (a round, a calendar bucket) at a time. A runtime instantiates the core
// and keeps only what is its own: what one peer does in a tick and how many
// ticks a message flies. Differences arrive as data (ring size, step
// weights, track and gauge names); the core never asks who called it.
//
// # A tick
//
// The core splits the peer ids into Shards contiguous ranges. The caller
// runs three phases per tick, with a barrier (FanOut) between them:
//
//	Deliver  the ring slot due this tick, an ordered list of pages, is
//	         counting-sorted by destination on the owner-range exchange of
//	         internal/exch: each worker splits a contiguous run of the list
//	         into per-owner (destination, index) chunks, a tiny serial
//	         Prefix assigns owner base offsets, and each owner Fill-sorts
//	         its own peer range and gathers the messages — so peer i's inbox
//	         is the contiguous slice sorted[inOff[i]:inOff[i+1]] (View,
//	         Inbox) and delivery scratch is O(n + messages); the gathered
//	         pages go back to the pool;
//	step     the caller's own loop, one FanOutSpan over the step ranges:
//	         worker w seats its Lane at each peer of [cuts[w], cuts[w+1]) in
//	         ascending order and emits through it; Lane.Send appends the
//	         message to the lane's open page for its delay and takes a fresh
//	         page from the pool when that one is full;
//	Route    a serial pass links every lane's pages for delay d onto slot
//	         (tick+d) % ring in worker order, copying no message; the lanes'
//	         counters merge into Stats and the gauges are sampled.
//
// A message is therefore copied twice per hop: into its page by Send and out
// of it by Deliver's gather.
//
// # Two sets of ranges
//
// Delivery owners are always the uniform id cuts of exch.Partition (O(1)
// Owner, one count array per range). Step ranges are the cut array: the same
// uniform cuts by default, exch.BalancedCuts over Config.Weights when a
// peer's step cost is known and skewed; a step range may then be empty. The
// two need not agree, because per-peer state is touched by the step phase
// alone while Deliver and Route move message pages only, and no result can
// tell where a step cut falls: ranges are contiguous and ascending, a lane
// fills its pages in walk order, and Route links the lanes' pages in worker
// order, which is peer order wherever the cuts are.
//
// # Buffers
//
// A page holds up to pageLen messages and is in exactly one place: open or
// parked on a lane (being filled this tick), linked on a ring slot (in
// flight), or in the pool. Deliver's serial epilogue returns a gathered
// slot's pages to the pool and the step takes them from there, one lock per
// page, so the pool makes a page only when every page made is on a lane or a
// slot: pages made never exceed the peak in flight, where a tick leaves at
// most one partly filled page per (worker, delay), and steady traffic makes
// none. The delivered view is a buffer of its own and never a page: Inbox
// stays valid until the next Deliver although the pages it was gathered
// from are being refilled. The view gets a quarter of headroom when it
// grows, so traffic that creeps up tick by tick reallocates it every few
// ticks, not on each.
//
// # Limits
//
// Peers and delivery indices are int32: New rejects more than MaxInt32
// peers and more than MaxRing ring slots, and Route panics, naming the
// limit, before a slot would hold more than maxSlotPages pages — just under
// 2^31 messages due in one tick, over 80 GB of pages, so a bug and not an
// input.
//
// # Determinism
//
// Nothing depends on the shard count. Peer i's generator state is advanced
// only by the worker whose step range holds i. A slot's page list is
// appended to tick by tick, within a tick in worker order, within a worker
// in fill order, and workers walk ascending ranges, so the list read front
// to back is global emission order. Deliver's record pass hands worker w a
// contiguous run of the list and Fill replays the workers' chunks in worker
// order, so the delivery sort is stable and every inbox is in (tick sent,
// sender, emission) order for any ring size and any step cuts. Which
// physical page the pool handed a worker depends on scheduling; nothing but
// the scratch_bytes gauge can tell. Lanes are padded so that no two workers'
// hot fields share a cache line.
package shardrt

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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
	// open-page headers are allocated up front.
	MaxRing = 1 << 16

	// PageLen is the number of messages a page holds. One constant, no
	// knob: at 64 both message workloads ran 4-10 % slower, 1024 was not
	// distinguishable from 256 (CHANGES.md PR 22).
	PageLen   = 1 << pageShift
	pageShift = 8
	// maxSlotPages is the most pages one ring slot may hold: every
	// slotIndex of such a slot, and its message total, fit in int32.
	maxSlotPages = math.MaxInt32 >> pageShift
	// openPad is the number of unused page headers between two lanes' rows
	// of open pages: the fewest that fill a cache line. Send writes its
	// lane's header on every message; at ring 2 two rows allocated apart
	// shared a line on some runs and a two-shard spread then ran no faster
	// than one shard.
	openPad = int((CacheLine-1)/unsafe.Sizeof(page{}) + 1)
)

// page is a run of messages in emission order: length is the fill, capacity
// always PageLen.
type page []simnet.Message

// slotIndex is the delivery index of message k of page p of a slot: what
// Deliver sorts in place of the 40-byte message. It fits for p <
// maxSlotPages, which checkSlot holds every slot to.
func slotIndex(p, k int) int32 { return int32(p<<pageShift | k) }

// checkSlot stops the run when a slot of that many pages could not be
// delivered (package comment, "Limits"). Route calls it once per slot it
// linked to, not per message.
func checkSlot(track string, pages int) {
	if pages > maxSlotPages {
		panic(fmt.Sprintf("%s: %d message pages are due in one tick, beyond the runtime's limit of %d pages of %d (delivery indices are int32)",
			track, pages, maxSlotPages, PageLen))
	}
}

// pagePool holds the pages that are neither on a lane nor on a slot. Its
// lock is the runtime's only synchronization besides the fan-out barriers:
// the step's workers take pages concurrently.
type pagePool struct {
	mu   sync.Mutex
	free []page
	made int
}

// take returns an empty page, a released one before a new one.
func (pl *pagePool) take() page {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if k := len(pl.free) - 1; k >= 0 {
		p := pl.free[k]
		pl.free = pl.free[:k]
		return p
	}
	pl.made++
	return make(page, 0, PageLen)
}

// release returns gathered pages to the pool.
func (pl *pagePool) release(pages []page) {
	pl.mu.Lock()
	for _, p := range pages {
		pl.free = append(pl.free, p[:0])
	}
	pl.mu.Unlock()
}

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

// parkedPage is a page a lane filled to the brim this tick, with its delay.
type parkedPage struct {
	d int
	p page
}

// laneState is one worker's private state: its cursor stream, the peer it
// is seated at (the sender of whatever it emits), the pages it is filling
// and the tick's counters.
type laneState struct {
	// Stream draws from the generator state of the seated peer.
	Stream *rng.Stream
	src    cursorSource

	// n, ring and pool are the core's, copied so that an emission reads
	// nothing but its own lane.
	n, ring int
	pool    *pagePool
	// open[d] is the page the tick's emissions of delay d are appended to
	// (nil before the first), a row of the core's one header array with
	// openPad spare headers after it; full holds the pages that filled up,
	// in fill order. Route links both onto the slots and empties them.
	open                   []page
	full                   []parkedPage
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
	p := l.open[d]
	if len(p) == cap(p) {
		p = l.turn(d)
	}
	l.open[d] = append(p, m) // within capacity: never reallocates
}

// turn parks the full open page of delay d, if there is one, and returns an
// empty page from the pool.
func (l *Lane) turn(d int) page {
	if p := l.open[d]; p != nil {
		l.full = append(l.full, parkedPage{d, p})
	}
	return l.pool.take()
}

// AddWork adds k units to the tick's work count (peers stepped, clocks
// fired): the WorkGauge sample, and Work's running total.
func (l *Lane) AddWork(k int) { l.work += int64(k) }

// slot is the mail due at one tick: pages in canonical order (package
// comment, "Determinism") and the messages they hold.
type slot struct {
	pages []page
	msgs  int
}

// Core is the shared machine. Construct with New; Deliver, the caller's
// step fan-out and Route run in that order once per tick, from one
// goroutine — parallelism happens inside the phases.
type Core struct {
	n, shards, ring int
	track           string

	states []rng.Xoshiro256
	part   exch.Partition // delivery owners: uniform id ranges
	cuts   []int          // step ranges: shards+1 ascending boundaries
	lanes  []Lane

	// inbox is the delivery exchange: per-(worker, owner) chunks of
	// (destination, slot index) records, Fill-sorted by each owner.
	inbox exch.Exchange[int32]

	// slots[t % ring] holds the messages due at tick t; pool holds every
	// page that is on no slot and no lane (package comment, "Buffers").
	slots []slot
	pool  pagePool
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
		n: cfg.N, shards: shards, ring: cfg.Ring, track: cfg.Track,
		states: make([]rng.Xoshiro256, cfg.N),
		part:   exch.Partition{N: cfg.N, Parts: shards},
		lanes:  make([]Lane, shards),
		slots:  make([]slot, cfg.Ring),
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
	stride := c.ring + openPad
	open := make([]page, shards*stride)
	for w := range c.lanes {
		l := &c.lanes[w]
		l.n, l.ring, l.pool = c.n, c.ring, &c.pool
		l.open = open[w*stride : w*stride+c.ring : w*stride+c.ring]
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

// Pages reports the page pool's state to the lifetime tests of the packages
// above: pages made since New and how many of them lie in the pool now (the
// rest are on a slot or a lane).
func (c *Core) Pages() (made, pooled int) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.pool.made, len(c.pool.free)
}

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
// peer's bucket Fill's order is ascending slot index, which is page-list
// order: the canonical (tick sent, sender, emission) order. An empty slot
// leaves every inbox empty.
func (c *Core) Deliver(tick int) {
	sl := &c.slots[tick%c.ring]
	if sl.msgs == 0 {
		c.sorted = c.sorted[:0]
		clear(c.inOff)
		return
	}

	pages := sl.pages
	runs := exch.Partition{N: len(pages), Parts: c.shards}
	c.FanOutSpan(tick, obs.PhaseDeliver, func(w int) {
		c.inbox.ClearWorker(w)
		lo, hi := runs.Range(w)
		for p, pg := range pages[lo:hi] {
			base := slotIndex(lo+p, 0)
			for k := range pg {
				c.inbox.Record(w, int32(pg[k].To), base+int32(k))
			}
		}
	})
	c.inbox.Prefix()

	if cap(c.sorted) < sl.msgs {
		c.sorted = make([]simnet.Message, sl.msgs, withHeadroom(sl.msgs))
		c.sortedIdx = make([]int32, sl.msgs, withHeadroom(sl.msgs))
	}
	c.sorted = c.sorted[:sl.msgs]
	c.sortedIdx = c.sortedIdx[:sl.msgs]
	c.FanOutSpan(tick, obs.PhaseDeliver, func(o int) {
		end := c.inbox.Fill(o, c.inOff, c.sortedIdx)
		for j := c.inbox.Base(o); j < end; j++ {
			idx := c.sortedIdx[j]
			c.sorted[j] = pages[idx>>pageShift][idx&(PageLen-1)]
		}
	})
	c.inOff[c.n] = int32(sl.msgs)
	// The gather has copied every message out: the pages are free for
	// whichever lane asks next.
	c.pool.release(pages)
	sl.pages, sl.msgs = pages[:0], 0
}

// Route links the tick's pages onto the future slots and closes the tick:
// the lanes' counters merge into Stats and the gauges are sampled. Workers
// are visited in order and a worker's full pages precede its open ones, so
// every slot's list grows in canonical order; slot (tick + d) is never the
// slot delivered this tick since 1 <= d < ring.
func (c *Core) Route(tick int) {
	var t0 time.Time
	if c.arenas != nil {
		t0 = time.Now()
	}
	linked := false
	link := func(d int, p page) {
		sl := &c.slots[(tick+d)%c.ring]
		sl.pages = append(sl.pages, p)
		sl.msgs += len(p)
		linked = true
	}
	var work int64
	for w := range c.lanes {
		l := &c.lanes[w]
		for _, f := range l.full {
			link(f.d, f.p)
		}
		l.full = l.full[:0]
		for d := 1; d < c.ring; d++ {
			if p := l.open[d]; p != nil {
				link(d, p)
				l.open[d] = nil
			}
		}
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
	if linked {
		for d := 1; d < c.ring; d++ {
			checkSlot(c.track, len(c.slots[(tick+d)%c.ring].pages))
		}
		if c.arenas != nil {
			c.arenas[0].Record(tick, obs.PhaseRoute, t0)
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
	for i := range c.slots {
		depth += c.slots[i].msgs
	}
	c.gDepth.Sample(tick, int64(depth))
	c.gScratch.Sample(tick, c.ScratchBytes())
	c.tr.Barrier()
}

// withHeadroom is the capacity the delivered view is allocated with for
// size messages (package comment, "Buffers").
func withHeadroom(size int) int { return size + size/4 }

// ScratchBytes estimates the reusable buffer footprint: every page made,
// wherever it is now, the delivered view and the offset table.
func (c *Core) ScratchBytes() int64 {
	const msgBytes = int64(unsafe.Sizeof(simnet.Message{}))
	made, _ := c.Pages()
	return int64(made)*PageLen*msgBytes +
		int64(cap(c.sorted))*msgBytes + int64(cap(c.sortedIdx))*4 + int64(cap(c.inOff))*4
}
