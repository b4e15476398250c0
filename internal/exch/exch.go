// Package exch is the owner-range exchange kernel of the repository's flat
// engines: records are split by the owner of their destination, a tiny
// serial pass prefixes the owners' incoming totals into base offsets, and
// each owner counting-sorts its own contiguous destination range in
// parallel.
//
//   - Partition is the destination split: owner o owns the contiguous id
//     range [Start(o), End(o)), and Owner(d) finds d's owner with a
//     multiply. The cuts are a pure function of (n, parts) and never affect
//     results — only which worker builds which buckets. BalancedCuts is its
//     weighted counterpart: which units a worker scans, when their cost is
//     known and skewed.
//   - An owner's counting sort keeps no count array: owner o of [lo, hi)
//     counts, prefixes (PrefixCounts) and places its records on the offsets
//     off[lo+1 .. hi] themselves, the entries it publishes anyway, so the
//     owners write disjoint entries of one length-(n+1) array. Fill sorts
//     this way, and so does internal/shardrt's deliver of the pages its
//     lanes filed under an owner.
//   - Exchange[T] is the chunked scatter of the core dating engine, its one
//     user: during a fanout each worker w appends (key, value) records into
//     its private chunk row — one small buffer per (worker, owner) pair,
//     filled in scan order (Reserve sizes a row up front). A serial Prefix
//     (O(workers·owners), no length-n scan) turns per-owner totals into base
//     offsets; then each owner calls Fill to counting-sort its own range
//     into a flat output slice, cursoring on its own range of the offsets.
//     Because workers scan ascending shards and Fill replays chunks in
//     worker order, every bucket ends up holding its records in global scan
//     order — the layout the engine's determinism proof rests on.
//
// Scratch is O(records) regardless of the worker count, beside the caller's
// offsets: the chunks hold the round's records plus a quarter of Reserve's
// share, allocated once; grown by append from nothing, a chunk allocates
// about five times its final size on the way.
//
// The concat form (RecordTo, SetBase, Flush and chunk.off) has no
// caller left in the program: the runtimes' route phase links pages instead
// of flushing an outbox (internal/shardrt). It stays because bench/, which a
// PR that claims a gain may not edit, still times it as exch.flush_ns; the
// form and the metric go together in the next benchmark PR.
//
// Concurrency contract: Reset and Prefix are serial; ClearWorker, Reserve,
// Record and RecordTo may run concurrently for distinct w; Fill and
// SetBase/Flush may run concurrently for distinct owners, strictly after
// Prefix (or an external base assignment) and the barrier that ends the
// record phase.
//
// Row isolation: every Record writes the length words of a chunk header, so
// two workers' headers close together make the record phase ping-pong their
// lines between cores. The chunk matrix therefore keeps rowPad spare chunks
// — at least Isolation bytes — between consecutive workers' rows, whatever
// alignment the allocator gives the matrix. One 64-byte line of spare was
// not enough: with rows 112 bytes apart the two-worker scatter of a
// 150 000-node bimodal round ran slower than one worker's, and 168 bytes
// apart it was still slower than at 256, most likely because the hardware
// prefetchers move a written line's neighbours along with it.
package exch

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Partition splits the destination space [0, n) into parts contiguous
// uniform id ranges, one per owner. A literal Partition{N, Parts} is valid;
// NewPartition also stores the reciprocal of N, so Owner divides nothing.
type Partition struct {
	N     int // destination space size
	Parts int // number of owners
	recip uint64
}

// NewPartition returns the partition of [0, n) into parts ranges with the
// reciprocal floor((2^64-1)/n) that Owner multiplies by.
func NewPartition(n, parts int) Partition {
	return Partition{N: n, Parts: parts, recip: math.MaxUint64 / uint64(max(n, 1))}
}

// Start returns the first destination of owner o's range. The product is
// taken in uint64, which on a 32-bit int would otherwise wrap past 2^31.
func (p Partition) Start(o int) int { return int(uint64(p.N) * uint64(o) / uint64(p.Parts)) }

// End returns one past the last destination of owner o's range.
func (p Partition) End(o int) int { return p.Start(o + 1) }

// Range returns owner o's destination range [lo, hi).
func (p Partition) Range(o int) (lo, hi int) { return p.Start(o), p.End(o) }

// Owner returns the owner of destination d: the largest o with
// Start(o) <= d, which is ((d+1)·Parts - 1) / N. Owners with empty ranges are
// never returned. A literal's reciprocal is computed on each call.
func (p Partition) Owner(d int) int {
	if p.recip == 0 {
		p = NewPartition(p.N, p.Parts)
	}
	return p.owner(d)
}

// owner is Owner on a constructed partition, cheap enough to inline into
// Record. For x = (d+1)·Parts - 1 < 2^64 the high word of x·recip is the
// quotient or one less, so one compare corrects it. x is computed in
// uint64, so that a 32-bit int does not wrap once the product passes 2^31.
func (p Partition) owner(d int) int {
	x := uint64(d+1)*uint64(p.Parts) - 1
	q, _ := bits.Mul64(x, p.recip)
	if x-q*uint64(p.N) >= uint64(p.N) {
		q++
	}
	return int(q)
}

// BalancedCuts splits [0, n) into parts contiguous ranges of roughly equal
// total weight, returning the parts+1 boundaries (reusing cuts) — the
// weighted counterpart of Partition for phases whose cost per id is known
// and skewed (request counts per node, bucket sizes, clock rates). No range
// outweighs total/parts by more than the largest single weight (plus one
// for integer weights' rounded targets). Empty ranges are possible when
// parts > n or the weight is concentrated; they are valid (the worker simply
// does nothing). The result is a pure function of its inputs, keeping shard
// assignment deterministic.
func BalancedCuts[W int | float64](cuts []int, n, parts int, weight func(i int) W) []int {
	cuts = append(cuts[:0], 0)
	var total W
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	var acc W
	i := 0
	for p := 1; p < parts; p++ {
		target := total * W(p) / W(parts)
		for i < n && acc < target {
			acc += weight(i)
			i++
		}
		cuts = append(cuts, i)
	}
	return append(cuts, n)
}

// chunk holds the records one worker addressed to one owner, in scan order.
// keys drive Fill's counting sort; RecordTo-style concat exchanges leave
// them empty and len(vals) is the authoritative length.
type chunk[T any] struct {
	keys []int32
	vals []T
	// off is this chunk's write offset in the destination slice, set by
	// SetBase and consumed by Flush.
	off int
}

// Isolation is the destructive-interference distance of the flat engines:
// the fewest bytes between what one worker writes on every record or draw
// and what another does (the package comment's row-isolation rule; the core
// engine's generators keep it too). Of 128, 256 and 512 bytes, 256 was the
// smallest at which the two-worker dating round stopped getting faster.
const Isolation = 256

// rowPad is the number of unused chunks after each worker's row: the fewest
// whose bytes put the last header of one row and the first of the next at
// least Isolation bytes apart. A chunk header is two slice headers and an
// int for every T.
const rowPad = int((Isolation-1)/unsafe.Sizeof(chunk[struct{}]{}) + 1)

// Exchange is a reusable per-(worker, owner) chunk exchange over a value
// type T. The zero value is ready; Reset sizes it for a round.
type Exchange[T any] struct {
	part    Partition
	workers int
	stride  int        // part.Parts + rowPad: chunks from one row to the next
	ch      []chunk[T] // ch[w*stride+o], rows beyond workers never read
	base    []int32    // per-owner base offsets, set by Prefix
}

// Reset sizes the exchange for a round of workers record rows over the
// given destination partition. It must be called serially, before the
// record fanout; it does not clear chunk contents — each worker clears its
// own row with ClearWorker inside the fanout, keeping the O(workers·owners)
// clearing off the serial path.
func (ex *Exchange[T]) Reset(workers int, part Partition) {
	part = NewPartition(part.N, part.Parts)
	ex.workers = workers
	stride := part.Parts + rowPad
	need := workers * stride
	if ex.part == part && len(ex.ch) >= need {
		return
	}
	if ex.stride != stride || cap(ex.ch) < need {
		// The row stride changed (or the matrix grew): old chunk buffers
		// would land on the wrong (w, o) cells, so start clean.
		ex.ch = make([]chunk[T], need)
	} else {
		ex.ch = ex.ch[:need]
	}
	ex.part, ex.stride = part, stride
	if len(ex.base) < part.Parts {
		ex.base = make([]int32, part.Parts)
	}
}

// ClearWorker empties worker w's chunk row, keeping capacity. Safe to call
// concurrently for distinct w.
func (ex *Exchange[T]) ClearWorker(w int) {
	row := ex.ch[w*ex.stride : w*ex.stride+ex.part.Parts]
	for o := range row {
		row[o].keys = row[o].keys[:0]
		row[o].vals = row[o].vals[:0]
	}
}

// Record appends one (key, value) record from worker w, addressed to the
// owner of key's destination range. Safe to call concurrently for distinct w.
func (ex *Exchange[T]) Record(w int, key int32, v T) {
	c := &ex.ch[w*ex.stride+ex.part.owner(int(key))]
	c.keys = append(c.keys, key)
	c.vals = append(c.vals, v)
}

// Reserve gives every chunk of worker w's row room for its owner's share of
// records, split by range width, plus a quarter, so a round of about that
// many records from w grows no chunk; records beyond the room still append.
// Call it after ClearWorker. Safe to call concurrently for distinct w.
func (ex *Exchange[T]) Reserve(w, records int) {
	for o := 0; o < ex.part.Parts && ex.part.N > 0; o++ {
		lo, hi := ex.part.Range(o)
		share := records * (hi - lo) / ex.part.N
		c := &ex.ch[w*ex.stride+o]
		if room := share + share/4 - len(c.keys); room > 0 {
			c.keys = slices.Grow(c.keys, room)
			c.vals = slices.Grow(c.vals, room)
		}
	}
}

// RecordTo appends a value from worker w directly to owner o's chunk,
// without a key — the concat form used by exchanges whose owners are not
// destination ids (per-delay buffers, say). Chunks written with RecordTo
// must be drained with SetBase/Flush, not Fill.
func (ex *Exchange[T]) RecordTo(w, o int, v T) {
	c := &ex.ch[w*ex.stride+o]
	c.vals = append(c.vals, v)
}

// Prefix sums each owner's incoming chunk totals and prefixes them into
// per-owner base offsets, returning the grand total. This is the serial
// exchange pass: O(workers·owners), no length-n scan.
func (ex *Exchange[T]) Prefix() int32 {
	var total int32
	for o := 0; o < ex.part.Parts; o++ {
		var t int32
		for w := 0; w < ex.workers; w++ {
			t += int32(len(ex.ch[w*ex.stride+o].vals))
		}
		ex.base[o], total = total, total+t
	}
	return total
}

// Fill counting-sorts owner o's incoming records into out, writing the
// bucket offsets of o's destination range into off: after the owner fanout,
// bucket v holds out[off[v]:off[v+1]] in global scan order (chunks are
// replayed in worker order, and each worker recorded in scan order). off
// must have length >= part.N+1 and off[0] must be 0; owner o writes exactly
// off[lo+1 .. hi] of its range [lo, hi), so the owners together write every
// other entry, each exactly once, off[N] = the Prefix total included. Those
// entries are also the sort's cursors (see PrefixCounts). Fill returns this
// owner's end offset, the next owner's base. Call only after Prefix, once
// per owner per round, concurrently for distinct owners.
func (ex *Exchange[T]) Fill(o int, off []int32, out []T) int32 {
	lo, hi := ex.part.Range(o)
	cur := off[lo+1 : hi+1]
	clear(cur)
	for w := 0; w < ex.workers; w++ {
		for _, k := range ex.ch[w*ex.stride+o].keys {
			cur[int(k)-lo]++
		}
	}
	end := PrefixCounts(cur, ex.base[o])
	for w := 0; w < ex.workers; w++ {
		c := &ex.ch[w*ex.stride+o]
		for i, k := range c.keys {
			j := &cur[int(k)-lo]
			out[*j] = c.vals[i]
			*j++
		}
	}
	return end
}

// PrefixCounts is the middle step of an owner's counting sort of buckets
// [lo, hi) on cur = off[lo+1 : hi+1]: with each record of bucket k counted
// into cur[k-lo], it turns the counts in place into base plus the counts of
// the buckets before (bucket k's write cursor) and returns base plus the
// total. Placing each record at cur[k-lo]++ then leaves cur[k-lo] at the
// end of bucket k, which is the start of bucket k+1: off[v] is the start of
// bucket v for every v in (lo, hi].
func PrefixCounts(cur []int32, base int32) int32 {
	for i, c := range cur {
		cur[i] = base
		base += c
	}
	return base
}

// SetBase assigns owner o's chunks consecutive write offsets starting at
// base, in worker order, and returns the end offset — the serial placement
// pass of a concat exchange (no counting sort). Safe to call concurrently
// for distinct owners.
func (ex *Exchange[T]) SetBase(o, base int) int {
	for w := 0; w < ex.workers; w++ {
		c := &ex.ch[w*ex.stride+o]
		c.off = base
		base += len(c.vals)
	}
	return base
}

// Flush copies chunk (w, o) into dst at the offset SetBase assigned and
// empties it. Safe to call concurrently for distinct w.
func (ex *Exchange[T]) Flush(w, o int, dst []T) {
	c := &ex.ch[w*ex.stride+o]
	if len(c.vals) == 0 {
		return
	}
	copy(dst[c.off:], c.vals)
	c.vals = c.vals[:0]
}
