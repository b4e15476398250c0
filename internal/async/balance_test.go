package async

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/shardrt"
	"repro/internal/simnet"
)

// skewedRates are the rate vectors the step cuts must be invisible on. The
// i%7 pattern of hetRates has the same cumulative rate at every uniform cut,
// so rate cuts and id cuts coincide on it; on these they do not.
var skewedRates = []struct {
	name  string
	rates func(n int) []float64
}{
	{"front-loaded bimodal", func(n int) []float64 {
		r := constRates(n, 1)
		for i := 0; i < n/10; i++ {
			r[i] = 8
		}
		return r
	}},
	{"one hot peer", func(n int) []float64 {
		r := constRates(n, 1)
		r[n/3] = float64(20 * n) // > 90 % of the total rate
		return r
	}},
	{"hot tail", func(n int) []float64 {
		r := constRates(n, 1)
		for i := n - n/10; i < n; i++ {
			r[i] = 8
		}
		return r
	}},
	{"all equal", func(n int) []float64 { return constRates(n, 1) }},
}

func constRates(n int, rate float64) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = rate
	}
	return r
}

func TestAsyncSkewedRatesShardIdentity(t *testing.T) {
	// Step ranges are cut by cumulative clock rate, delivery ranges by id:
	// neither cut may show in any result, for any skew — including shards
	// whose step range is empty because one peer carries most of the rate,
	// and messages that span several Δbuckets (Latency 2.5 buckets).
	const n, buckets = 240, 10
	type outcome struct {
		digest uint64
		stats  simnet.Stats
		fired  int64
	}
	for _, rv := range skewedRates {
		for _, latency := range []float64{0, 2.5} {
			var ref outcome
			emptyRange := false
			for _, shards := range []int{1, 2, 3, 4, 8, n/2 + 50} {
				st := newAping(n, 2)
				rt, err := New(Config{
					N: n, Seed: 77, Fire: st.fire, Recv: st.recvFn,
					Rates: rv.rates(n), Latency: latency, Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < rt.Shards(); w++ {
					emptyRange = emptyRange || rt.core.Cuts()[w] == rt.core.Cuts()[w+1]
				}
				stats := rt.RunBuckets(buckets)
				got := outcome{digest: st.combined(), stats: stats, fired: rt.Fired()}
				if shards == 1 {
					ref = got
					continue
				}
				if got != ref {
					t.Fatalf("%s, latency %v: shards=%d diverged from shards=1:\n  %+v\nvs %+v",
						rv.name, latency, shards, got, ref)
				}
			}
			if ref.stats.Sent == 0 || ref.stats.ByKind[2] == 0 || ref.fired == 0 {
				t.Fatalf("%s, latency %v: no traffic to compare: %+v", rv.name, latency, ref)
			}
			if rv.name == "one hot peer" && !emptyRange {
				t.Fatalf("%s: no shard count produced an empty step range", rv.name)
			}
		}
	}
}

// TestAsyncSwitchShardIdentity crosses the core's density switch: the
// aping protocol fires on heterogeneous clocks, but outside the first three
// of every ten time units only every fiftieth peer emits, so quiet buckets
// carry a trickle of messages that the core delivers sparsely, and burst
// buckets are dense; in the sixth time unit every other firing sends into
// the first eighth of the ids, dense for its owner and sparse for the rest.
// Step ranges are cut by rate and span several delivery owners, each on its
// own side of the switch, and the owners differ with the shard count. Every
// shard count must reproduce the one-shard run's per-bucket inboxes and
// digest, every message delivered must have reached Recv, and the runs past
// one shard must hold buckets whose owners took different paths.
func TestAsyncSwitchShardIdentity(t *testing.T) {
	const n, buckets = 4000, 30
	var ref [][]simnet.Message
	var refDigest uint64
	for _, shards := range []int{1, 2, 4} {
		st := newAping(n, 2)
		fire := func(peer, k int, t float64, s *rng.Stream, emit func(simnet.Message)) {
			switch {
			case int(t)%10 < 3, peer%50 == 0: // a burst, or one of a few chatterers
				st.fire(peer, k, t, s, emit)
			case int(t)%10 == 5: // into the first eighth of the ids, unanswered
				emit(simnet.Message{To: s.Intn(n / 8), Kind: 3, A: int32(k)})
			}
		}
		rt, err := New(Config{N: n, Seed: 5, Fire: fire, Recv: st.recvFn, Rates: hetRates(n), Latency: 1.5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]simnet.Message
		dense, sparse, mixed := false, false, false
		for b := 0; b < buckets; b++ {
			rt.RunBuckets(1)
			for i := 0; i < n; i += 7 {
				got = append(got, rt.Inbox(i))
			}
			k := rt.core.SparseOwners()
			dense, sparse, mixed = dense || k == 0, sparse || k == shards, mixed || (k > 0 && k < shards)
		}
		recv := 0
		for _, k := range st.recv {
			recv += k
		}
		if delivered := rt.Stats().Sent - int64(rt.core.InFlight()); int64(recv) != delivered {
			t.Fatalf("shards=%d: Recv saw %d messages of the %d delivered", shards, recv, delivered)
		}
		if shards == 1 {
			ref, refDigest = got, st.combined()
		} else if fmt.Sprint(got) != fmt.Sprint(ref) || st.combined() != refDigest {
			t.Fatalf("shards=%d: the sampled inboxes or the digest diverged from one shard's", shards)
		}
		if !dense || !sparse || (shards > 1 && !mixed) {
			t.Errorf("shards=%d: dense %v, sparse %v, mixed %v: the run did not cross the switch", shards, dense, sparse, mixed)
		}
	}
}

func TestAsyncStepCutInvariants(t *testing.T) {
	// The step cuts tile [0, n) in ascending order, and no shard's share of
	// the clock rate exceeds the even share by more than one peer's rate —
	// the best a contiguous cut can promise.
	const n = 1000
	fire := func(int, int, float64, *rng.Stream, func(simnet.Message)) {}
	for _, rv := range skewedRates {
		rates := rv.rates(n)
		total, largest := 0.0, 0.0
		for _, r := range rates {
			total += r
			largest = max(largest, r)
		}
		for _, shards := range []int{1, 2, 3, 4, 8, 64, n/2 + 1} {
			rt, err := New(Config{N: n, Seed: 1, Fire: fire, Rates: rates, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			cuts := rt.core.Cuts()
			if len(cuts) != shards+1 || cuts[0] != 0 || cuts[shards] != n {
				t.Fatalf("%s, shards=%d: cuts %v do not span [0, %d)", rv.name, shards, cuts, n)
			}
			for w := 0; w < shards; w++ {
				if cuts[w] > cuts[w+1] {
					t.Fatalf("%s, shards=%d: cuts %v decrease at %d", rv.name, shards, cuts, w)
				}
				share := 0.0
				for _, r := range rates[cuts[w]:cuts[w+1]] {
					share += r
				}
				if limit := total/float64(shards) + largest; share > limit*(1+1e-9) {
					t.Fatalf("%s, shards=%d: shard %d carries rate %v, limit %v", rv.name, shards, w, share, limit)
				}
			}
		}
	}
	// Not vacuous: with the rich tenth in front, two equal-rate shards split
	// far below the id midpoint, where the uniform delivery cut stays.
	rt, err := New(Config{N: n, Seed: 1, Fire: fire, Rates: skewedRates[0].rates(n), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut, part := rt.core.Cuts()[1], rt.core.Part(); cut >= n/4 || part.End(0) != n/2 {
		t.Fatalf("front-loaded rates: step cut %d, delivery cut %d", cut, part.End(0))
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestAsyncAllocationGrowingTraffic(t *testing.T) {
	// Traffic that creeps up by under one percent a bucket, as pull replies
	// make it do near a spread's peak, must make the calendar and the
	// delivered view grow a page at a time, not a buffer per bucket, and
	// must leave them a small multiple of one bucket's messages. Both bounds
	// are against the largest bucket's message bytes: growing the view to
	// exactly each bucket's size and every ring slot on its own allocated 39x
	// that and kept 6.7x; flat recycled slot buffers behind an outbox
	// allocated 15x and kept 3x; pooled pages allocated 6.6x and kept 2.7x,
	// 3.4x and 1.6x once they held 20-byte records; with the view on pool
	// pages too, 1.6x and 1.4x.
	const n, buckets = 500, 120
	fire := func(peer, k int, t float64, s *rng.Stream, emit func(simnet.Message)) {
		for j := 0; j < 60+int(t)/2; j++ {
			emit(simnet.Message{To: s.Intn(n), Kind: 1})
		}
	}
	rt, err := New(Config{N: n, Seed: 3, Fire: fire, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var first, last int64
	total := allocated(func() {
		first = rt.RunBuckets(1).Sent
		before := rt.RunBuckets(buckets - 2).Sent
		last = rt.RunBuckets(1).Sent - before
	})
	if last < first*3/2 {
		t.Fatalf("traffic grew from %d to %d messages a bucket: too little growth to test", first, last)
	}
	peak := uint64(last) * uint64(unsafe.Sizeof(simnet.Message{}))
	if total > 10*peak {
		t.Errorf("allocated %d bytes over %d buckets, more than 10x the largest bucket's %d", total, buckets, peak)
	}
	if scratch := uint64(rt.core.ScratchBytes()); scratch > 4*peak {
		t.Errorf("scratch is %d bytes after %d buckets, more than 4x the largest bucket's %d", scratch, buckets, peak)
	}
}

func TestAsyncAllocationConstantTraffic(t *testing.T) {
	// A fixed population of tokens forwarded on every arrival is steady
	// traffic: once the ring has turned, no phase may allocate a buffer
	// proportional to the messages — only the fan-out's goroutines and
	// closures, a few hundred bytes a phase — and the pool makes no page: the
	// ones a bucket's delivery releases are the ones its step and the next
	// view take. At 2.5 buckets of latency the tokens split into two cohorts
	// that arrive on alternate buckets, so two slots' worth of pages
	// circulate. The pages made hold every token at most three times over:
	// twice on the slots, and once in the view.
	const n, tokens = 4000, 8
	for _, latency := range []float64{0, 2.5} {
		fire := func(peer, k int, t float64, s *rng.Stream, emit func(simnet.Message)) {
			if k == 0 {
				for j := 0; j < tokens; j++ {
					emit(simnet.Message{To: (peer + 1 + j) % n, Kind: 1})
				}
			}
		}
		recv := func(peer int, m simnet.Message, emit func(simnet.Message)) {
			emit(simnet.Message{To: (peer + 7) % n, Kind: 1})
		}
		// Rate 40: every peer's first firing falls in bucket 0.
		rt, err := New(Config{N: n, Seed: 5, Fire: fire, Recv: recv, Rates: constRates(n, 40), Latency: latency, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		ring := int(rt.latency) + 3
		sent := make([]int64, 0, 4*ring+2)
		warm := 0
		for b := 0; b < cap(sent); b++ {
			before := rt.Stats().Sent
			got := allocated(func() { rt.RunBuckets(1) })
			sent = append(sent, rt.Stats().Sent-before)
			made, _ := rt.core.Pages()
			if b < ring+2 {
				warm = made
				continue
			}
			if sent[b] != sent[b-2] || sent[b]+sent[b-1] < n*tokens {
				t.Fatalf("latency %v: traffic is not steady: sent per bucket %v", latency, sent)
			}
			// The smallest per-message buffer is a chunk of int32 keys: at 2
			// workers x 2 owners a quarter of a cohort of at least half the
			// tokens, 4 bytes each. Half of that is the limit, and less than
			// one page.
			if limit := uint64(n * tokens / 4); got > limit {
				t.Fatalf("latency %v: bucket %d allocated %d bytes after %d warm-up buckets (limit %d)",
					latency, b, got, ring+2, limit)
			}
			if made != warm || made*shardrt.PageLen > 3*n*tokens {
				t.Fatalf("latency %v: bucket %d: %d pages made, %d after warm-up, for %d tokens in flight", latency, b, made, warm, n*tokens)
			}
		}
	}
}

func TestAsyncInboxSurvivesRecycling(t *testing.T) {
	// Inbox(i) promises the delivered view until the next RunBuckets, but
	// the pages it was gathered from are back in use by the time RunBuckets
	// returns: the bucket's step has taken them from the pool and route has
	// linked them onto other slots. What Inbox shows must still be exactly
	// what Recv saw, with messages spanning two and three Δbuckets so that
	// slots are linked to by several buckets.
	const n, buckets = 300, 30
	seen := make([][]simnet.Message, n)
	st := newAping(n, 3)
	recv := func(peer int, m simnet.Message, emit func(simnet.Message)) {
		seen[peer] = append(seen[peer], m)
		st.recvFn(peer, m, emit)
	}
	const shards = 3
	rt, err := New(Config{N: n, Seed: 13, Fire: st.fire, Recv: recv, Rates: skewedRates[0].rates(n), Latency: 2.5, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ring := int(rt.latency) + 3
	delivered, peakHeld := 0, 0
	for b := 0; b < buckets; b++ {
		for i := range seen {
			seen[i] = seen[i][:0]
		}
		rt.RunBuckets(1)
		for i := 0; i < n; i++ {
			got := rt.Inbox(i)
			delivered += len(got)
			if len(got) != len(seen[i]) || (len(got) > 0 && !reflect.DeepEqual(got, seen[i])) {
				t.Fatalf("bucket %d peer %d: Inbox %v, Recv saw %v", b, i, got, seen[i])
			}
		}
		// After route every page made is on a slot, held by the view or in
		// the pool, and the pool made one only when none was free.
		made, pooled := rt.core.Pages()
		peakHeld = max(peakHeld, made-pooled)
		if limit := peakHeld + shards*(ring-1); made > limit {
			t.Fatalf("bucket %d: %d pages made, at most %d in flight or in the view (limit %d)", b, made, peakHeld, limit)
		}
	}
	// Far more messages went through than the pages ever made could hold at
	// once, the view's pages included: the inboxes above were gathered from
	// reused pages.
	if made, _ := rt.core.Pages(); delivered < 3*made*shardrt.PageLen {
		t.Fatalf("delivered %d messages through %d pages: too little reuse to test", delivered, made)
	}
}

func TestAsyncScratchBytesCountsFreeList(t *testing.T) {
	// A page lying in the pool is memory the runtime holds: the
	// scratch_bytes gauge must not lose sight of it. Every peer emits at its
	// first firing only (rate 40: in bucket 0), so once bucket 1 has gathered
	// those messages and bucket 2, which delivers none, has taken the view's
	// pages back, every page made stays pooled.
	const n = 400
	fire := func(peer, k int, t float64, s *rng.Stream, emit func(simnet.Message)) {
		if k == 0 {
			emit(simnet.Message{To: (peer + 1) % n, Kind: 1})
		}
	}
	rt, err := New(Config{N: n, Seed: 2, Fire: fire, Rates: constRates(n, 40), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.RunBuckets(3)
	held := rt.core.ViewBytes() // the offsets and the view's page table
	made, pooled := rt.core.Pages()
	if made*shardrt.PageLen < n || pooled != made {
		t.Fatalf("%d pages made, %d pooled, want every page of bucket 0's %d messages and of their view back in the pool", made, pooled, n)
	}
	if got, want := rt.core.ScratchBytes()-held, int64(made)*shardrt.PageLen*shardrt.RecordBytes; got != want {
		t.Fatalf("ScratchBytes() counts %d bytes beyond the view's tables, the %d pooled pages have %d", got, made, want)
	}
}
