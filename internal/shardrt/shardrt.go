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
//	Deliver  the ring slot due this tick holds, per delivery owner, an
//	         ordered list of pages. The previous tick's view returns its
//	         pages to the pool and takes ⌈msgs/PageLen⌉, under one lock; the
//	         view is those pages in order, record j at
//	         view[j>>pageShift][j&pageMask]. A serial O(shards) pass over
//	         the owners' message counts gives each owner its base index and
//	         its side of the density switch (below), and one FanOutSpan lets
//	         owner o of [lo, hi) sort its own list by destination on its own
//	         offsets inOff[lo+1 .. hi], copying each record from its page
//	         straight to its place in the view (two owners may write the
//	         page at their boundary, never the same record). A dense owner
//	         counting-sorts: the offsets serve as counts and cursors
//	         (exch.PrefixCounts) and end as the offsets, so peer i's inbox
//	         is the run of records between inOff[i] and inOff[i+1] (View),
//	         on one page unless it crosses a seam. A sparse owner leaves its
//	         mail list there instead (Mail). Either way inOff[lo] is o's
//	         base. The slot's pages then go back to the pool;
//	step     the caller's own loop, one FanOutSpan over the step ranges:
//	         worker w seats its Lane at each peer of [cuts[w], cuts[w+1]) in
//	         ascending order, unpacks the peer's inbox into the lane's
//	         scratch (Lane.Inbox) and emits through the lane; Lane.Send
//	         packs the message into a record, resolves the destination's
//	         owner and appends the record to the lane's open page for that
//	         (delay, owner), taking a fresh page from the pool when that one
//	         is full;
//	Route    a serial pass links every lane's pages for (delay d, owner o)
//	         onto owner o's list of slot (tick+d) % ring in worker order,
//	         copying no message; the lanes' counters merge into Stats and the
//	         gauges are sampled.
//
// A message is a simnet.Message (32 bytes) only where a protocol holds it:
// at emit and in the step's inbox. Inside the core it is a 16-byte record:
// two 32-bit words each holding a 28-bit peer id and one nibble of the 8-bit
// kind, and the two int32 payloads. That loses nothing: New admits at most
// 2^28 peers and a Message's payloads are int32. A page of PageLen records
// is then 4 KiB. A hop therefore moves 16 + 16 + 32 bytes — packed onto its
// page by Send, copied onto a page of the view by its owner's sort, unpacked
// into the step's scratch by Lane.Inbox — where two copies of a 40-byte
// Message moved 40 + 40, and the message is stored nowhere but on pages.
//
// # Dense and sparse ticks
//
// A spread is quiet on most ticks: of the 80 ticks of one 350 000-peer
// rumor spread on a Barabási–Albert graph the median carries 1 350 messages.
// Clearing and prefixing an owner's whole offset range then costs more than
// its mail, and so does a step walk over every peer of the range. So
// Deliver decides per owner and tick: the tick is dense when the owner's
// due messages plus its awake peers (the count its lane last reported to
// Awake, 0 for a runtime without an active set and the whole range for one
// that steps everyone) reach range/sparseK, and sparse below. A dense
// owner sorts as above, in O(range + messages). A sparse owner sorts its m
// messages' destinations (sortSparse), in O(m log m), and keeps in its
// offset range its mail list: the peers with mail, ascending, and the end
// of each one's inbox. A step walk over a sparse owner's range then visits
// the listed peers and whatever it steps anyway, in ascending order, and
// every other peer has an empty inbox. The inboxes are the same records in
// the same order on either side, so no result can tell the two apart.
//
// # Two sets of ranges
//
// Delivery owners are always the uniform id cuts of exch.Partition (Owner is
// a multiply, and each owner sorts on its own range of the offsets). Step
// ranges are the cut array: the same uniform cuts by default,
// exch.BalancedCuts over Config.Weights when a peer's step cost is known and
// skewed; a step range may then be empty. The two need not agree, because
// per-peer state is touched by the step phase alone while Deliver and Route
// move message pages only, and no result can tell where a step cut falls:
// ranges are contiguous and ascending, a lane fills its pages in walk order,
// and Route links the lanes' pages in worker order, which is peer order
// wherever the cuts are.
//
// # Buffers
//
// A page holds up to PageLen records and is in exactly one place: open or
// parked on a lane (being filled this tick), linked on a ring slot (in
// flight), held by the delivered view, or in the pool. Deliver's serial
// epilogue returns a delivered slot's pages to the pool and the step takes
// them from there, one lock per page; the view's pages go back at the next
// Deliver, which takes the new view's in the same lock. The pool makes a
// page only when every page made is on a lane, a slot or the view, and a
// tick leaves at most one partly filled page per (lane, delay, owner), so
// pages made never exceed the peak over ticks of linked plus view pages,
// plus shards² × (ring-1); steady traffic makes none. The view is nobody
// else's page: it stays valid until the next Deliver although the pages it
// was copied from are being refilled, and it is never reallocated, only
// made of more or fewer pages — the memory follows the traffic of the
// moment and is shared with the messages in flight. Each lane's inbox
// scratch holds one peer's unpacked inbox at a time and grows to the largest.
// The sparse path needs no buffer of its own: a sparse owner's sort
// scratch and mail list, at most 2m < 2·range/sparseK entries, live in the
// owner's range of the offsets, which a dense tick overwrites whole.
//
// # Limits
//
// New rejects more than 2^28 peers: a record keeps a peer id in 28 bits, so
// that the kind fits beside the two ids in 16 bytes. 2^28 peers would need
// 1 GiB of view offsets alone, and the largest runs in the repository have
// 10^6 (the flat dating engine has limits of its own). New also rejects
// more than MaxRing ring slots and more than maxOpenPages open-page headers
// (shards² × ring, allocated up front). View offsets are int32: Route
// panics, naming the limit, before a slot's message total would pass
// MaxInt32 — 32 GiB of pages due in one tick, so a bug and not an input.
//
// # Determinism
//
// Nothing depends on the shard count. The core keeps no randomness: a
// runtime seeds whatever stream a unit of work needs from that unit's
// coordinates. Owner o's list in a slot is appended to tick by
// tick, within a tick in worker order, within a worker in fill order, and
// workers walk ascending ranges, so the list read front to back is global
// emission order restricted to o's range. Owner o's counting sort is
// stable, and so is a sparse owner's placement (records in page order, each
// at its destination's cursor), so every inbox is in (tick sent, sender,
// emission) order for any ring size, any step cuts and either side of the
// density switch, whose choice depends on the shard count through the
// owners' ranges and shows in no result. Which physical page the pool
// handed a worker
// depends on scheduling; nothing but the scratch_bytes gauge can tell.
// Lanes and their open-page rows are padded so that no two workers' hot
// fields share a cache line.
package shardrt

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/exch"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/simnet"
)

const (
	// CacheLine is the line size the per-worker padding assumes.
	CacheLine = 64
	// MaxRing is the largest ring New accepts: messages fly at most
	// MaxRing-1 ticks. The largest ring in the repository has 9 slots; a
	// larger request is a unit mistake, and the ring is allocated up front.
	MaxRing = 1 << 16

	// PageLen is the number of messages a page holds. One constant, no
	// knob: at 64 both message workloads ran 4-10 % slower, 1024 was not
	// distinguishable from 256 (CHANGES.md PR 22). A power of two, so that
	// record j of the delivered view is view[j>>pageShift][j&pageMask].
	PageLen   = 1 << pageShift
	pageShift = 8
	pageMask  = PageLen - 1
	// maxOpenPages bounds the shards² × ring open-page headers New
	// allocates: 400 MB of headers is a mistake, not a run.
	maxOpenPages = 1 << 24
	// openPad is the number of unused page headers between two lanes' rows
	// of open pages: the fewest that fill a cache line. Send writes its
	// lane's header on every message; at ring 2 two rows allocated apart
	// shared a line on some runs and a two-shard spread then ran no faster
	// than one shard.
	openPad = int((CacheLine-1)/unsafe.Sizeof(page{}) + 1)
	// sparseK is the density switch (package comment, "Dense and sparse
	// ticks"): an owner's tick is sparse while its due messages plus its
	// awake peers stay below range/sparseK. One constant, no knob: on a
	// 350 000-peer rumor spread over a Barabási–Albert graph at two shards,
	// K = 16 read a median time ratio of 0.88 against the switch turned off
	// (19 of 20 pairs), 8 and 32 read 0.91 and 4 gained nothing, its sorts
	// being too long (CHANGES.md). It must be at least 2, so that a sparse
	// owner's mail list and its sort scratch fit in its offsets.
	sparseK = 16
)

// record is a message as the core stores it, on a page and in the view:
// 16 bytes where a simnet.Message is 32, so a page of PageLen records is
// 4 KiB. Every field fits: from and to keep the peer id in their low idBits
// bits because New admits at most maxPeers peers, and one nibble of the kind
// each in the bits above (the high nibble in from); payloads are int32 in a
// Message too.
type record struct {
	from, to uint32
	a, b     int32
}

// idBits is the width of a record's peer ids; maxPeers = 2^idBits is the
// most peers New admits, and idMask selects an id from its word.
const (
	idBits   = 28
	maxPeers = 1 << idBits
	idMask   = maxPeers - 1
)

// RecordBytes is the size of one message on a page or in the delivered view.
const RecordBytes = int64(unsafe.Sizeof(record{}))

// pack stores the addressed message m in r. Both conversions write field by
// field: a record or Message built as a value and then copied went through
// the stack in narrow stores and came back in wide loads, which stall on
// store forwarding (Lane.Inbox ran 3x slower in a micro-benchmark).
func (r *record) pack(m *simnet.Message) {
	r.from = uint32(m.From) | uint32(m.Kind>>4)<<idBits
	r.to = uint32(m.To) | uint32(m.Kind&0xf)<<idBits
	r.a, r.b = m.A, m.B
}

// unpackTo stores the message r holds in m.
func (r *record) unpackTo(m *simnet.Message) {
	m.From = int(r.from & idMask)
	m.To = int(r.to & idMask)
	m.Kind = uint8(r.from>>idBits)<<4 | uint8(r.to>>idBits)
	m.A, m.B = r.a, r.b
}

// dest returns the destination's id: the key Deliver sorts by.
func (r *record) dest() int32 { return int32(r.to & idMask) }

// page is a run of records in emission order: length is the fill, capacity
// always PageLen.
type page []record

// viewPage is a page as the delivered view holds it: all PageLen records
// addressable, so that indexing within it needs no bounds check.
type viewPage = *[PageLen]record

// checkTotal stops the run when a slot of that many messages could not be
// delivered (package comment, "Limits"). Route calls it once per slot it
// linked to, not per message.
func checkTotal(track string, msgs int64) {
	if msgs > math.MaxInt32 {
		panic(fmt.Sprintf("%s: %d messages are due in one tick, beyond the runtime's limit of %d (view offsets are int32)",
			track, msgs, math.MaxInt32))
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
	return pl.get()
}

// get is take with pl.mu held.
func (pl *pagePool) get() page {
	if k := len(pl.free) - 1; k >= 0 {
		p := pl.free[k]
		pl.free = pl.free[:k]
		return p
	}
	pl.made++
	return make(page, 0, PageLen)
}

// release returns delivered pages to the pool.
func (pl *pagePool) release(pages []page) {
	pl.mu.Lock()
	for _, p := range pages {
		pl.free = append(pl.free, p[:0])
	}
	pl.mu.Unlock()
}

// swapView returns the view's pages to the pool and refills the view with k
// pages, released ones before new ones, under one lock.
func (pl *pagePool) swapView(view []viewPage, k int) []viewPage {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, p := range view {
		pl.free = append(pl.free, p[:0])
	}
	view = view[:0]
	for range k {
		view = append(view, viewPage(pl.get()[:PageLen]))
	}
	return view
}

// sparseLimit is the smallest message-plus-awake count at which an owner of
// r peers takes the dense path: ⌈r/sparseK⌉, so a count c is sparse exactly
// when c·sparseK < r, computed without the product overflowing.
func sparseLimit(r int) int { return (r + sparseK - 1) / sparseK }

// Config sizes a core.
type Config struct {
	N      int // peers, in [1, 2^28]
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

// parkedPage is a page a lane filled to the brim this tick, with its delay
// and its delivery owner.
type parkedPage struct {
	d, o int32
	p    page
}

// laneState is one worker's private state: the peer it is seated at (the
// sender of whatever it emits), the pages it is filling, the scratch its
// peers' inboxes are unpacked into and the tick's counters.
type laneState struct {
	from int

	// n, ring, part and pool are the core's, copied so that an emission
	// reads nothing but its own lane; view points at the core's table of
	// delivered pages.
	n, ring int
	part    exch.Partition
	pool    *pagePool
	view    *[]viewPage
	// inbox is the scratch Inbox unpacks into, reused from peer to peer;
	// cur is the view's page curAt, the one Inbox read last (Deliver sets
	// curAt to -1).
	inbox []simnet.Message
	cur   viewPage
	curAt int32
	// open[d*part.Parts+o] is the page the tick's emissions of delay d to
	// owner o are appended to (nil before the first), a row of the core's one
	// header array with openPad spare headers after it; full holds the pages
	// that filled up, in fill order. Route links both onto the slots and
	// empties them.
	open                   []page
	full                   []parkedPage
	sent, dropped, clamped int64
	work                   int64
	// awake is what the runtime last reported through Awake; Deliver reads
	// it for the owner of the same index.
	awake  int
	byKind [256]int64
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

// Seat points the lane at peer i: emissions are stamped From i.
func (l *Lane) Seat(i int) { l.from = i }

// Address stamps m with the seated sender and reports whether its
// destination exists; a message to nowhere is counted as Dropped.
func (l *Lane) Address(m *simnet.Message) bool {
	m.From = l.from
	if m.To < 0 || m.To >= l.n {
		l.dropped++
		return false
	}
	return true
}

// Drop counts a message the caller's network lost.
func (l *Lane) Drop() { l.dropped++ }

// Send schedules an addressed message d >= 1 ticks ahead, filed under its
// destination's delivery owner. The core cannot schedule past its ring, so a
// larger d is delivered at the horizon and counted in Stats.Clamped rather
// than silently reclassified.
func (l *Lane) Send(d int, m simnet.Message) {
	if d >= l.ring {
		d = l.ring - 1
		l.clamped++
	}
	l.sent++
	l.byKind[m.Kind]++
	k := d*l.part.Parts + l.part.Owner(m.To)
	p := l.open[k]
	if len(p) == cap(p) {
		p = l.turn(k)
	}
	p = p[:len(p)+1] // within capacity: never reallocates
	p[len(p)-1].pack(&m)
	l.open[k] = p
}

// turn parks the full open page under header k, if there is one, and
// returns an empty page from the pool.
func (l *Lane) turn(k int) page {
	if p := l.open[k]; p != nil {
		l.full = append(l.full, parkedPage{int32(k / l.part.Parts), int32(k % l.part.Parts), p})
	}
	return l.pool.take()
}

// Inbox returns the delivered records between two of View's offsets as
// Messages: one peer's inbox. They are unpacked into the lane's scratch, so
// the slice is valid until the lane's next Inbox, which is for the duration
// of one step call. The scratch starts at a page's worth of Messages, 8 KB:
// a step writes it for every peer, and two lanes' scratch must not share a
// cache line. An inbox on one page, the common case, is unpacked from the
// lane's cached page without unpackView's loop: the step calls Inbox for
// every peer in ascending order, so one page serves many calls, and Inbox
// took a fifth longer through the loop alone and a sixth longer through the
// page table on every call.
func (l *Lane) Inbox(start, stop int32) []simnet.Message {
	n := int(stop - start)
	if cap(l.inbox) < n {
		l.inbox = make([]simnet.Message, max(n, PageLen, 2*cap(l.inbox)))
	}
	in := l.inbox[:n]
	if k := int(start & pageMask); n > 0 && k+n <= PageLen { // on one page
		if at := start >> pageShift; at != l.curAt {
			l.cur, l.curAt = (*l.view)[at], at
		}
		recs := l.cur[k : k+n]
		for i := range recs {
			recs[i].unpackTo(&in[i])
		}
		return in
	}
	unpackView(*l.view, start, in)
	return in
}

// unpackView unpacks the len(in) records of view from index start on into
// in. The run lies on one page unless it crosses a seam; an empty run
// touches no page, since start may then be one past the view's last page.
func unpackView(view []viewPage, start int32, in []simnet.Message) {
	for len(in) > 0 {
		recs := view[start>>pageShift][start&pageMask:]
		recs = recs[:min(len(recs), len(in))]
		for k := range recs {
			recs[k].unpackTo(&in[k])
		}
		in, start = in[len(recs):], start+int32(len(recs))
	}
}

// AddWork adds k units to the tick's work count (peers stepped, clocks
// fired): the WorkGauge sample, and Work's running total.
func (l *Lane) AddWork(k int) { l.work += int64(k) }

// Awake reports that k peers of the lane's step range will be stepped next
// tick whether or not they have mail: an active-set runtime's awake peers,
// or the whole range for a runtime that steps everyone. Deliver weighs them
// with the messages due to the owner of the same index (package comment,
// "Dense and sparse ticks"), so only a runtime whose step ranges are the
// delivery ranges (Config.Weights nil) reports them; the count stands
// until the next report, and it is 0 before the first.
func (l *Lane) Awake(k int) { l.awake = k }

// slot is the mail due at one tick: per delivery owner, the pages filed
// under it in canonical order (package comment, "Determinism") and the
// messages they hold; msgs is the slot's total. The totals are int64 so
// that Route's sums cannot wrap on a 32-bit target before checkTotal sees
// them.
type slot struct {
	owners []ownerPages
	msgs   int64
}

type ownerPages struct {
	pages []page
	msgs  int64
}

// Core is the shared machine. Construct with New; Deliver, the caller's
// step fan-out and Route run in that order once per tick, from one
// goroutine — parallelism happens inside the phases.
type Core struct {
	n, shards, ring int
	track           string

	part  exch.Partition // delivery owners: uniform id ranges
	cuts  []int          // step ranges: shards+1 ascending boundaries
	lanes []Lane

	// slots[t % ring] holds the messages due at tick t; pool holds every
	// page that is on no slot, no lane and not in the view (package
	// comment, "Buffers").
	slots []slot
	pool  pagePool
	// view/inOff are the delivered view: record j of the tick is
	// view[j>>pageShift][j&pageMask], pages the view alone holds until the
	// next Deliver. In Deliver due is the slot being delivered and base[o]
	// owner o's first index in the view; sortFn is sortOwner, bound once so
	// no tick allocates it. listed[o] is the length of owner o's mail list
	// when its tick was sparse, -1 when it was dense, and sparse counts the
	// sparse owners of the tick.
	view   []viewPage
	inOff  []int32
	due    *slot
	base   []int32
	listed []int32
	sparse int
	sortFn func(o int)

	stats simnet.Stats
	work  int64

	// Instrumentation, nil without an observer: the hot path then pays a nil
	// check per phase. arenas[w] is worker w's span sink, merged into tr at
	// the end of Route.
	tr                        *obs.Track
	arenas                    []*obs.Arena
	gSent, gDropped, gClamped *obs.Gauge
	gWork, gDepth, gScratch   *obs.Gauge
	gSparse                   *obs.Gauge
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

// New validates cfg, before allocating anything, and builds the core.
func New(cfg Config) (*Core, error) {
	shards := EffectiveShards(cfg.N, cfg.Shards)
	switch {
	case cfg.N <= 0:
		return nil, fmt.Errorf("%s: runtime needs n > 0, got %d", cfg.Track, cfg.N)
	case cfg.N > maxPeers:
		// A record keeps a peer id in idBits bits.
		return nil, fmt.Errorf("%s: %d peers exceed the runtime's limit of %d (2^%d, a record's id width)", cfg.Track, cfg.N, maxPeers, idBits)
	case cfg.Shards < 0:
		return nil, fmt.Errorf("%s: shards %d must be non-negative (0 selects GOMAXPROCS)", cfg.Track, cfg.Shards)
	case cfg.Ring < 2 || cfg.Ring > MaxRing:
		return nil, fmt.Errorf("%s: a delivery ring of %d slots is outside [2, %d]", cfg.Track, cfg.Ring, MaxRing)
	case shards*shards > maxOpenPages/cfg.Ring:
		return nil, fmt.Errorf("%s: %d shards² × %d ring slots of open-page headers exceed the runtime's limit of %d", cfg.Track, shards, cfg.Ring, maxOpenPages)
	}
	c := &Core{
		n: cfg.N, shards: shards, ring: cfg.Ring, track: cfg.Track,
		part:   exch.NewPartition(cfg.N, shards),
		lanes:  make([]Lane, shards),
		slots:  make([]slot, cfg.Ring),
		inOff:  make([]int32, cfg.N+1),
		base:   make([]int32, shards),
		listed: make([]int32, shards),
	}
	c.sortFn = c.sortOwner
	for i := range c.slots {
		c.slots[i].owners = make([]ownerPages, shards)
	}
	if cfg.Weights != nil {
		c.cuts = exch.BalancedCuts(nil, cfg.N, shards, func(i int) float64 { return cfg.Weights[i] })
	} else {
		c.cuts = make([]int, shards+1)
		for w := range c.cuts {
			c.cuts[w] = c.part.Start(w)
		}
	}
	row := c.ring * shards
	stride := row + openPad
	open := make([]page, shards*stride)
	for w := range c.lanes {
		l := &c.lanes[w]
		l.n, l.ring, l.part, l.pool, l.view = c.n, c.ring, c.part, &c.pool, &c.view
		l.open = open[w*stride : w*stride+row : w*stride+row]
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
		c.gSparse = c.tr.Gauge("sparse_owners")
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

// Part returns the delivery partition.
func (c *Core) Part() exch.Partition { return c.part }

// Cuts returns the step-range boundaries: worker w steps [Cuts()[w],
// Cuts()[w+1]).
func (c *Core) Cuts() []int { return c.cuts }

// Lane returns worker w's lane.
func (c *Core) Lane(w int) *Lane { return &c.lanes[w] }

// View returns the offsets of the last Deliver's view. For a peer i of an
// owner whose tick was dense (Mail reports no list), its inbox is
// Lane.Inbox(inOff[i], inOff[i+1]); for any owner o, inOff[Part().Start(o)]
// is the view index of o's first message. Valid until the next Deliver.
func (c *Core) View() (inOff []int32) { return c.inOff }

// Mail returns owner o's mail list when the last Deliver found o's tick
// sparse: the peers of o's range that have mail, ascending, and where each
// one's inbox ends in the view. dests[k]'s inbox is
// Lane.Inbox(ends[k-1], ends[k]), the first one's starts at
// View()[Part().Start(o)], and every peer not listed has none. ok is false
// when o's tick was dense: then View's offsets hold o's inboxes. Valid until
// the next Deliver.
func (c *Core) Mail(o int) (dests, ends []int32, ok bool) {
	u := c.listed[o]
	if u < 0 {
		return nil, nil, false
	}
	lo := c.part.Start(o)
	return c.inOff[lo+1 : lo+1+int(u)], c.inOff[lo+1+int(u) : lo+1+2*int(u)], true
}

// SparseOwners returns how many owners the last Deliver took the sparse
// path for: the sparse_owners gauge.
func (c *Core) SparseOwners() int { return c.sparse }

// bounds returns where peer i's inbox lies in the last Deliver's view, on a
// dense or a sparse owner: O(1) or O(log mail).
func (c *Core) bounds(i int) (start, stop int32) {
	o := c.part.Owner(i)
	dests, ends, ok := c.Mail(o)
	if !ok {
		return c.inOff[i], c.inOff[i+1]
	}
	k, found := slices.BinarySearch(dests, int32(i))
	if !found {
		return 0, 0
	}
	if start = c.inOff[c.part.Start(o)]; k > 0 {
		start = ends[k-1]
	}
	return start, ends[k]
}

// Inbox returns the messages delivered to peer i by the last Deliver,
// unpacked into a fresh slice: for inspection after a run, not for a step.
func (c *Core) Inbox(i int) []simnet.Message {
	start, stop := c.bounds(i)
	in := make([]simnet.Message, stop-start)
	unpackView(c.view, start, in)
	return in
}

// ViewBytes is what the delivered view holds beside its pages, which are
// counted with every other page made: the offset table and the table of
// page pointers. A sparse owner's mail list and its sort scratch live in
// the owner's range of the offsets, so they cost nothing beyond it.
func (c *Core) ViewBytes() int64 {
	return int64(cap(c.inOff))*4 + int64(cap(c.view))*int64(unsafe.Sizeof(viewPage(nil)))
}

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

// Deliver sorts the slot due at tick into the delivered view: the previous
// view's pages go back to the pool and the view takes ⌈msgs/PageLen⌉, then
// a serial pass over the owners gives each its base and its side of the
// density switch, then one fan-out of sortOwner.
func (c *Core) Deliver(tick int) {
	sl := &c.slots[tick%c.ring]
	c.view = c.pool.swapView(c.view, int((sl.msgs+pageMask)>>pageShift))
	for w := range c.lanes {
		c.lanes[w].curAt = -1
	}
	var base int32
	c.sparse = 0
	for o := range sl.owners {
		c.base[o] = base
		msgs := int(sl.owners[o].msgs)
		base += int32(msgs)
		c.listed[o] = -1
		if msgs < sparseLimit(c.part.End(o)-c.part.Start(o))-c.lanes[o].awake { // no sum to overflow a 32-bit int
			c.listed[o] = 0
			c.sparse++
		}
	}
	c.due = sl
	c.FanOutSpan(tick, obs.PhaseDeliver, c.sortFn)
	// Every message has been copied out: the pages are free for whichever
	// lane asks next.
	for o := range sl.owners {
		own := &sl.owners[o]
		c.pool.release(own.pages)
		own.pages, own.msgs, sl.msgs = own.pages[:0], 0, 0
	}
}

// sortOwner is owner o's share of Deliver: a stable counting sort of o's
// pages by destination into the view and the offsets of o's range, so an
// inbox is in page-list order, the canonical one. A sparse owner sorts by
// sortSparse instead.
func (c *Core) sortOwner(o int) {
	pages := c.due.owners[o].pages
	lo, hi := c.part.Range(o)
	cur, base := c.inOff[lo+1:hi+1], c.base[o]
	if c.listed[o] >= 0 {
		c.sortSparse(o, pages, cur, base)
		return
	}
	clear(cur)
	if len(pages) == 0 && base == 0 { // every offset of o is 0, as on an empty tick
		return
	}
	for _, p := range pages {
		for k := range p {
			cur[int(p[k].dest())-lo]++
		}
	}
	exch.PrefixCounts(cur, base)
	// Two owners may write the page at their boundary, at distinct records.
	// The index is read into x once: indexing the view through *j twice
	// spilled it to the stack, and the sort ran a fifth slower.
	view := c.view
	for _, p := range pages {
		for k := range p {
			j := &cur[int(p[k].dest())-lo]
			x := *j
			*j = x + 1
			view[x>>pageShift][x&pageMask] = p[k]
		}
	}
}

// sortSparse is sortOwner on a sparse tick, in O(m log m) for o's m
// messages rather than O(range). o's range of the offsets, off, is its
// scratch: the m destinations in page order go to off[:m] and are sorted;
// the u distinct ones are moved to off[:u] and their counts to
// off[m:m+u], which become write cursors (exch.PrefixCounts). Each record,
// in page order, is placed at the cursor of its destination, found by
// binary search, so the sort is stable. The cursors, now the inboxes' ends,
// move to off[u:2u] (Mail), and off's last entry gets o's end in the view,
// so that View()[Start(o+1)] is the next owner's base whatever its side of
// the switch. Everything fits: the switch admits m < range/sparseK, and
// 2m ≤ range-1 for sparseK >= 2.
func (c *Core) sortSparse(o int, pages []page, off []int32, base int32) {
	m := int(c.due.owners[o].msgs)
	keys := off[:m]
	k := 0
	for _, p := range pages {
		for i := range p {
			keys[k] = p[i].dest()
			k++
		}
	}
	slices.Sort(keys)
	u := 0
	for i := 0; i < m; u++ {
		j := i + 1
		for j < m && keys[j] == keys[i] {
			j++
		}
		off[u], off[m+u] = keys[i], int32(j-i)
		i = j
	}
	dests, cur := off[:u], off[m:m+u]
	exch.PrefixCounts(cur, base)
	view := c.view
	for _, p := range pages {
		for i := range p {
			d, _ := slices.BinarySearch(dests, p[i].dest())
			x := cur[d]
			cur[d] = x + 1
			view[x>>pageShift][x&pageMask] = p[i]
		}
	}
	copy(off[u:], cur)
	off[len(off)-1] = base + int32(m)
	c.listed[o] = int32(u)
}

// Route links the tick's pages onto the future slots and closes the tick:
// the lanes' counters merge into Stats and the gauges are sampled. Workers
// are visited in order and a worker's full pages precede its open ones, so
// every owner's list grows in canonical order; slot (tick + d) is never the
// slot delivered this tick since 1 <= d < ring.
func (c *Core) Route(tick int) {
	var t0 time.Time
	if c.arenas != nil {
		t0 = time.Now()
	}
	linked := false
	link := func(d, o int, p page) {
		sl := &c.slots[(tick+d)%c.ring]
		own := &sl.owners[o]
		own.pages = append(own.pages, p)
		own.msgs += int64(len(p))
		sl.msgs += int64(len(p))
		linked = true
	}
	var work int64
	for w := range c.lanes {
		l := &c.lanes[w]
		for _, f := range l.full {
			link(int(f.d), int(f.o), f.p)
		}
		l.full = l.full[:0]
		for d := 1; d < c.ring; d++ {
			row := l.open[d*c.shards : (d+1)*c.shards]
			for o, p := range row {
				if p != nil {
					link(d, o, p)
					row[o] = nil
				}
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
			checkTotal(c.track, c.slots[(tick+d)%c.ring].msgs)
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
	c.gDepth.Sample(tick, int64(c.InFlight()))
	c.gScratch.Sample(tick, c.ScratchBytes())
	c.gSparse.Sample(tick, int64(c.sparse))
	c.tr.Barrier()
}

// InFlight returns the messages routed onto a ring slot and not yet
// delivered: the sum of the slots' totals, O(ring). Between ticks it is
// what the DepthGauge samples.
func (c *Core) InFlight() int {
	depth := 0
	for i := range c.slots {
		depth += int(c.slots[i].msgs)
	}
	return depth
}

// ScratchBytes estimates the reusable buffer footprint: the records of every
// page made, wherever it is now (the view's included), and ViewBytes, whose
// offsets also hold the sparse owners' sort scratch and mail lists. The
// lanes' inbox scratch, one peer's inbox each, is left out.
func (c *Core) ScratchBytes() int64 {
	made, _ := c.Pages()
	return int64(made)*PageLen*RecordBytes + c.ViewBytes()
}
