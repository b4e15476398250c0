package core

// This file implements the flat round engine: the one body of Algorithm 1
// that every entry point of the package — Service and Arranger alike — runs.
//
// Instead of appending each request to a per-rendezvous slice (one heap
// object per node, pointer-chasing in the match pass), the engine lays the
// round out on the owner-range exchange kernel of internal/exch: a
// radix-partitioned counting sort keyed by rendezvous. Workers own two
// kinds of contiguous ranges: a *sender* shard (which nodes they scatter
// for) and a *destination* range (which rendezvous buckets they build,
// exch.Partition's uniform id cuts). A round runs as:
//
//	scatter   each worker draws destinations for a contiguous shard of
//	          senders and records every emitted (dest, sender) pair into the
//	          exchange chunk of the destination's owner — one small buffer
//	          per (worker, owner) pair, filled in scan order and reserved
//	          from the shard's Σout and Σin once per worker count;
//	exchange  exch.Prefix — a tiny serial pass over each owner's incoming
//	          chunk lengths (O(workers²), no length-n scan) prefixed into
//	          per-owner base offsets in the flat output arrays;
//	sort      exch.Fill per owner — each owner counting-sorts its own
//	          destination range on that range of the offsets (bucket v of
//	          each kind ends up as flat[off[v]:off[v+1]]), replaying the
//	          chunks in worker order;
//	count     each worker sums min(offers, requests), its bucket's dates,
//	          over a contiguous shard of rendezvous buckets; a serial prefix
//	          gives it its offset in dst;
//	match     each worker runs MatchRendezvous over its shard, writing every
//	          date in place: dst is in rendezvous order, with no merge.
//
// Because chunks are recorded in scan order within a worker, worker sender
// shards are contiguous ascending ranges, and each owner replays chunks in
// worker order, bucket v always holds its requests in global sender order —
// exactly the layout of the pre-radix engine, whatever the worker count.
//
// Every round is *seeded*: a worker reseeds its generator with
// rng.Derive(seed, domainScatter, node) before a node's draws and with
// rng.Derive(seed, domainMatch, rendezvous) before a bucket's shuffle, so
// whichever worker processes a node or bucket draws the same values and the
// round is a pure function of (out, in, selector, seed, alive) — workers is
// a pure speed knob, on any GOMAXPROCS, under any goroutine schedule. The
// (seed, domain) prefix of either chain is derived once per round, so the
// price per participating node and per non-empty bucket is one rng.Absorb
// step plus the four-step SplitMix64 state expansion (BenchmarkSeededRound
// times the whole round). No round draws from a caller's stream: the
// paper's repeated rounds are repeated seeds.
//
// Memory is O(n + requests) regardless of the worker count: the two
// length-(n+1) offset arrays, which are also the owners' counts and write
// cursors (each owner sorts on its own range of them), the chunk buffers
// with the round's recorded requests plus the exch.Margin Reserve gives
// them (about 2.4 % at the bimodal benchmark's shares, and an overflow run
// only for a chunk that a skewed selector fills), and the flat request
// arrays. A date is two int32 ids, 8 bytes.
//
// Worker isolation: what a worker writes once per draw, its generator state,
// lives by value in its own engineWorker, and the elements of that array are
// tail-padded so that exch.Isolation (256) bytes separate two workers' state
// whatever the array's alignment; the scatter's other per-record writes, the
// chunk headers, keep the same distance inside exch. Two generators on one
// line cost the two-worker round more than the second core gave it, and one
// spare 64-byte line was still too little: with chunk-header rows 112 bytes
// apart the two-worker scatter ran slower than one worker's (see exch's row
// isolation). Dates go to disjoint ranges of dst.
//
// Buffer contract: round appends its dates to the buffer the caller hands it.
// nil gets a fresh slice of exactly the round's size that the engine never
// touches again (RunRoundSeeded, Arrange);
// Service.RunRoundShared and Arranger.ArrangeShared hand in the buffer they
// keep (empty but non-nil from the start, sized by the first round to its
// dates plus exch.Margin of them, and grown by a quarter only when a later
// round outgrows it), so a spreading or storage round allocates nothing
// proportional to n and its dates are valid until the same Service's or
// Arranger's next shared round.
//
// Offsets and ids are int32, so a round holds fewer than 2^31 nodes and
// fewer than 2^31 requests of each kind; indexable rejects anything larger
// before a round starts. Each recorded request already costs 8 bytes of
// scratch, so the bound is far beyond any round that fits in memory.

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/exch"
	"repro/internal/par"
	"repro/internal/rng"
)

// Derivation domains keep the scatter and match randomness of one seeded
// round disjoint even when a node id equals a rendezvous id.
const (
	domainScatter uint64 = 1
	domainMatch   uint64 = 2
)

// workerState is one worker's private state: the generator (with the stream
// reading it) that a seeded round reseeds for every node (scatter) or bucket
// (match) the worker processes — four SplitMix64 steps, far cheaper than
// allocating a stream per unit of work. stream draws from &gen, so a
// workerState is never copied.
type workerState struct {
	gen    rng.Xoshiro256
	stream *rng.Stream
}

const cacheLine = 64

// engineWorker pads workerState per the file comment's isolation rule:
// exch.Isolation spare bytes (so the guarantee does not depend on the
// array's alignment) rounded up to keep the size a multiple of the line.
type engineWorker struct {
	workerState
	_ [exch.Isolation + cacheLine - unsafe.Sizeof(workerState{})%cacheLine]byte
}

// engine is the round scratch a Service or an Arranger reuses across
// rounds. It grows to the largest (n, workers) seen, is never shared, and
// runs one round at a time.
type engine struct {
	ws []engineWorker

	// offers/reqs are the owner-range exchanges of the round's two request
	// kinds: keys are rendezvous ids, values sender ids.
	offers exch.Exchange[int32]
	reqs   exch.Exchange[int32]

	offerOff   []int32 // len n+1: offers bucket v is offersFlat[offerOff[v]:offerOff[v+1]]
	reqOff     []int32
	offersFlat []int32
	reqFlat    []int32
	senderCut  []int // len workers+1: the scatter shards of a round given no cuts
	rdvCut     []int // len workers+1: worker w matches rendezvous [cut[w], cut[w+1])
	dateCut    []int // len workers+1: worker w writes dst[cut[w]:cut[w+1]]
	reserved   int   // the worker count the chunk rows were last reserved for
}

// checkWorkers is the entry check of a seeded round's worker count.
func checkWorkers(workers int) error {
	if workers < 1 {
		return fmt.Errorf("core: round needs workers >= 1, got %d", workers)
	}
	return nil
}

// scatterWeight is a sender's share of a scatter's work in the sender cuts:
// a draw per offer and per request, plus one for the reseed every node that
// draws pays. A node with nothing to send is skipped before its reseed and
// weighs nothing. Weighed by out+in alone, the bimodal profile's 15 000
// rich nodes outweighed its 135 000 poor ones, so worker 0 took 22 500
// nodes and worker 1 127 500, each paying a reseed.
func scatterWeight(out, in int) int {
	if out+in == 0 {
		return 0
	}
	return out + in + 1
}

// round runs Algorithm 1 once and returns the dates in rendezvous order,
// appended to dst (nil: a fresh slice of exactly the round's size; see the
// file comment's buffer contract): node i sends out[i] offers and in[i]
// requests to rendezvous drawn from sel. A node that alive (nil: everyone)
// reports dead neither emits nor matches, and a request addressed to it is
// drawn and lost — a dead rendezvous simply never answers. alive is called
// concurrently from all workers, and so is sel.Pick: a selector is a pure
// read during a round.
//
// cut, when non-nil, is the workers+1 sender shard boundaries to scatter by;
// nil balances the shards by this round's request weight. The cuts only
// decide which worker does the work, never the draws: every node and
// bucket reseeds from seed, so the result is the same for every
// workers >= 1.
func (e *engine) round(dst []Date, sel Selector, out, in []int, alive func(i int) bool, cut []int, seed uint64, workers int) []Date {
	n := sel.N()
	e.ensure(n, workers)
	// The two-step prefix of either Derive chain is the same for every node
	// and every bucket of the round: each then absorbs its own index.
	scatterKey := rng.Derive(seed, domainScatter)
	matchKey := rng.Derive(seed, domainMatch)

	// Scatter: worker w draws destinations for its sender shard, recording
	// each pair into the chunk of the destination's owner. A node that is
	// dead or has nothing to send draws nothing, is skipped before the
	// reseed, and weighs nothing in the cuts (under churn concentrated in
	// one id region cuts by profile weight would idle its workers).
	if cut == nil {
		e.senderCut = exch.BalancedCuts(e.senderCut, n, workers, func(i int) int {
			if alive != nil && !alive(i) {
				return 0
			}
			return scatterWeight(out[i], in[i])
		})
		cut = e.senderCut
	}
	// The first round at a worker count reserves the chunk rows.
	reserve := e.reserved != workers
	e.reserved = workers
	par.Do(workers, func(w int) {
		ws := &e.ws[w]
		e.offers.ClearWorker(w)
		e.reqs.ClearWorker(w)
		if reserve {
			sumOut, sumIn := 0, 0
			for i := cut[w]; i < cut[w+1]; i++ {
				sumOut, sumIn = sumOut+out[i], sumIn+in[i]
			}
			e.offers.Reserve(w, sumOut)
			e.reqs.Reserve(w, sumIn)
		}
		s := ws.stream
		for i := cut[w]; i < cut[w+1]; i++ {
			if out[i]+in[i] == 0 || (alive != nil && !alive(i)) {
				continue
			}
			ws.gen.Seed(rng.Absorb(scatterKey, uint64(i)))
			for k := 0; k < out[i]; k++ {
				dest := sel.Pick(s)
				if alive != nil && !alive(dest) {
					continue // lost: rendezvous is down
				}
				e.offers.Record(w, int32(dest), int32(i))
			}
			for k := 0; k < in[i]; k++ {
				dest := sel.Pick(s)
				if alive != nil && !alive(dest) {
					continue
				}
				e.reqs.Record(w, int32(dest), int32(i))
			}
		}
	})

	// Exchange + sort: Prefix both exchanges serially, then each owner
	// counting-sorts its destination range, leaving one contiguous buffer
	// per kind with every bucket in global sender order. The totals, which
	// the owners also write to offerOff[n] and reqOff[n], are the numbers of
	// requests that reached a rendezvous.
	e.offersFlat = grow(e.offersFlat, int(e.offers.Prefix()))
	e.reqFlat = grow(e.reqFlat, int(e.reqs.Prefix()))
	par.Do(workers, func(o int) {
		e.offers.Fill(o, e.offerOff, e.offersFlat)
		e.reqs.Fill(o, e.reqOff, e.reqFlat)
	})

	// Match: shard rendezvous nodes across workers, balanced by bucket
	// size (the shuffle cost of MatchRendezvous is linear in it). A count
	// pass and a serial prefix give each worker its offset in dst. A bucket
	// with either side empty arranges nothing and draws nothing, so it is
	// skipped before the reseed.
	e.rdvCut = prefixCuts(e.rdvCut, workers, e.offerOff, e.reqOff)
	par.Do(workers, func(w int) {
		k := 0
		for v := e.rdvCut[w]; v < e.rdvCut[w+1]; v++ {
			k += int(min(e.offerOff[v+1]-e.offerOff[v], e.reqOff[v+1]-e.reqOff[v]))
		}
		e.dateCut[w+1] = k
	})
	e.dateCut[0] = len(dst)
	for w := 0; w < workers; w++ {
		e.dateCut[w+1] += e.dateCut[w]
	}
	if total := e.dateCut[workers]; cap(dst) < total {
		size := total
		switch {
		case dst == nil:
		case cap(dst) == 0:
			// A kept buffer's first round. On a fixed profile the date
			// count barely moves: 200 rounds of the 150 000-node bimodal
			// benchmark stayed within 0.9 %, inside the 1.6 % margin.
			size += exch.Margin(total)
		default:
			// A later round outgrew the kept buffer, as when an Arranger's
			// supply grows.
			size += total / 4
		}
		dst = append(make([]Date, 0, size), dst...)
	}
	dst = dst[:e.dateCut[workers]]
	par.Do(workers, func(w int) {
		ws := &e.ws[w]
		next := e.dateCut[w]
		emit := func(sender, receiver int32) {
			dst[next] = Date{Sender: sender, Receiver: receiver}
			next++
		}
		for v := e.rdvCut[w]; v < e.rdvCut[w+1]; v++ {
			offers := e.offersFlat[e.offerOff[v]:e.offerOff[v+1]]
			requests := e.reqFlat[e.reqOff[v]:e.reqOff[v+1]]
			if len(offers) == 0 || len(requests) == 0 {
				continue
			}
			ws.gen.Seed(rng.Absorb(matchKey, uint64(v)))
			MatchRendezvous(offers, requests, ws.stream, emit)
		}
	})
	return dst
}

// prefixCuts returns the workers+1 boundaries that split the rendezvous
// buckets into contiguous ranges of roughly equal request count: cut p is the
// smallest v with offerOff[v]+reqOff[v] >= total*p/workers. That is
// exch.BalancedCuts over the bucket sizes, read off the prefix sums Fill has
// just written — O(workers · log n) on the serial path instead of two walks
// over all n buckets.
func prefixCuts(cuts []int, workers int, offerOff, reqOff []int32) []int {
	n := len(offerOff) - 1
	total := int(offerOff[n]) + int(reqOff[n])
	cuts = append(cuts[:0], 0)
	for p := 1; p < workers; p++ {
		target := total * p / workers
		cuts = append(cuts, sort.Search(n, func(v int) bool {
			return int(offerOff[v])+int(reqOff[v]) >= target
		}))
	}
	return append(cuts, n)
}

// indexable is the entry check of the engine's int32 offsets and ids: n
// nodes and the out and in totals must each fit. It also rejects a negative
// entry, which no caller means and which would hide an overflowing sum.
func indexable(n int, out, in []int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("core: %d nodes exceed the engine's %d", n, math.MaxInt32)
	}
	sumOut, sumIn := 0, 0
	for i := range out {
		if out[i] < 0 || in[i] < 0 {
			return fmt.Errorf("core: negative supply/demand at node %d", i)
		}
		// Compared before adding, so neither sum can overflow int.
		if out[i] > math.MaxInt32-sumOut || in[i] > math.MaxInt32-sumIn {
			return fmt.Errorf("core: more than %d requests of one kind in a round (reached at node %d)", math.MaxInt32, i)
		}
		sumOut += out[i]
		sumIn += in[i]
	}
	return nil
}

// ensure sizes the scratch for an (n, workers) round. The request
// exchanges are re-partitioned every round (a no-op while (n, workers) is
// stable).
func (e *engine) ensure(n, workers int) {
	if len(e.ws) < workers {
		// Built in place, once per worker count: every stream points into
		// its own element. Generators carry nothing between rounds.
		e.ws = make([]engineWorker, workers)
		for w := range e.ws {
			e.ws[w].stream = rng.NewWithSource(&e.ws[w].gen)
		}
		e.dateCut = make([]int, workers+1)
	}
	if len(e.offerOff) != n+1 {
		e.offerOff = make([]int32, n+1)
		e.reqOff = make([]int32, n+1)
	}
	part := exch.Partition{N: n, Parts: workers}
	e.offers.Reset(workers, part)
	e.reqs.Reset(workers, part)
}

// grow returns s resliced to length size, reallocating only when needed.
func grow(s []int32, size int) []int32 {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]int32, size)
}
