package async

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/shardrt"
	"repro/internal/simnet"
)

// apingState is a synthetic protocol for runtime tests: every firing folds
// its (index, timestamp) into a per-peer digest and emits fan messages to
// random destinations; every arrival folds (From, A) into the receiver's
// digest and occasionally replies, so any difference in event timing,
// delivery content or delivery order changes the final digest.
type apingState struct {
	n      int
	fan    int
	digest []uint64
	recv   []int
}

func newAping(n, fan int) *apingState {
	return &apingState{n: n, fan: fan, digest: make([]uint64, n), recv: make([]int, n)}
}

func (c *apingState) fire(peer, fire int, t float64, s *rng.Stream, emit func(simnet.Message)) {
	h := c.digest[peer]
	h = h*1099511628211 + uint64(fire)
	h = h*1099511628211 + math.Float64bits(t)
	c.digest[peer] = h
	for k := 0; k < c.fan; k++ {
		emit(simnet.Message{To: s.Intn(c.n), Kind: 1, A: int32(fire)})
	}
}

func (c *apingState) recvFn(peer int, m simnet.Message, emit func(simnet.Message)) {
	c.recv[peer]++
	h := c.digest[peer]
	h = h*1099511628211 + uint64(m.From)
	h = h*1099511628211 + uint64(m.A)
	c.digest[peer] = h
	if m.Kind == 1 && m.A%5 == 0 {
		emit(simnet.Message{To: m.From, Kind: 2, A: m.A})
	}
}

func (c *apingState) combined() uint64 {
	h := uint64(14695981039346656037)
	for _, d := range c.digest {
		h = h*1099511628211 + d
	}
	return h
}

// hetRates builds a deterministic heterogeneous rate vector.
func hetRates(n int) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 0.5 + 0.3*float64(i%7)
	}
	return rates
}

func TestAsyncNewValidation(t *testing.T) {
	fire := func(int, int, float64, *rng.Stream, func(simnet.Message)) {}
	bad := []Config{
		{N: 0, Fire: fire},
		{N: 4},
		{N: 4, Fire: fire, Shards: -1},
		{N: 4, Fire: fire, Latency: -0.5},
		{N: 4, Fire: fire, Latency: math.NaN()},
		{N: 4, Fire: fire, Latency: math.Inf(1)},
		{N: 4, Fire: fire, Rates: []float64{1, 1, 1}},     // too short
		{N: 4, Fire: fire, Rates: []float64{1, 0, 1, 1}},  // zero rate
		{N: 4, Fire: fire, Rates: []float64{1, -2, 1, 1}}, // negative rate
		{N: 4, Fire: fire, Rates: []float64{1, math.NaN(), 1, 1}},
		{N: 4, Fire: fire, Rates: []float64{1, math.Inf(1), 1, 1}},
		{N: -3, Fire: fire}, // with nil Rates: no make([]float64, -3)
		// A calendar the runtime cannot hold: int(latency) wraps for the
		// first, the second converts but asks for more than shardrt.MaxRing.
		{N: 4, Fire: fire, Latency: 1e300},
		{N: 4, Fire: fire, Latency: shardrt.MaxRing - 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(Config{N: 4, Fire: fire}); err != nil {
		t.Errorf("rejected minimal valid config: %v", err)
	}
	if _, err := New(Config{N: 4, Fire: fire, Latency: shardrt.MaxRing - 3}); err != nil {
		t.Errorf("rejected the largest calendar: %v", err)
	}
}

func TestAsyncShardCountBitIdentity(t *testing.T) {
	// The runtime's headline property: (n, seed, rates, latency, handlers)
	// fully determine the run; the shard count is invisible. Heterogeneous
	// rates make the per-peer event schedules genuinely different, and the
	// reply traffic in recvFn exercises the boundary-timed emission path.
	const n, buckets = 2000, 12
	type outcome struct {
		digest uint64
		stats  simnet.Stats
		fired  int64
	}
	var ref outcome
	for _, shards := range []int{1, 2, 4, 8} {
		st := newAping(n, 2)
		rt, err := New(Config{
			N: n, Seed: 42, Fire: st.fire, Recv: st.recvFn,
			Rates: hetRates(n), Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := rt.RunBuckets(buckets)
		got := outcome{digest: st.combined(), stats: stats, fired: rt.Fired()}
		if shards == 1 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("shards=%d diverged from shards=1:\n  %+v\nvs %+v", shards, got, ref)
		}
	}
	if ref.stats.Sent == 0 || ref.fired == 0 {
		t.Fatalf("no traffic at all: %+v", ref)
	}
	if ref.stats.Clamped != 0 {
		t.Fatalf("normal run clamped %d arrival buckets", ref.stats.Clamped)
	}
}

func TestAsyncLatencyQuantization(t *testing.T) {
	// An emission at time t with flight latency L arrives at the boundary of
	// bucket floor(t+L) — and never in the emitting bucket: with L ~ 0
	// every arrival is rounded up to the next boundary, the documented
	// "one time unit is the latency quantum" rule, without touching the
	// Stats.Clamped counter (that counts only the maxDelta float guard).
	for _, tc := range []struct {
		latency float64
		arrival func(t float64) int // expected arrival bucket for emission at t
	}{
		{2.5, func(t float64) int { return int(t + 2.5) }},
		{1e-9, func(t float64) int { return int(t) + 1 }},
	} {
		var sentTimes []float64
		var arrivals []int
		var rt *Runtime
		fire := func(peer, fire int, t float64, s *rng.Stream, emit func(simnet.Message)) {
			if peer == 0 {
				sentTimes = append(sentTimes, t)
				emit(simnet.Message{To: 1, Kind: 1})
			}
		}
		recv := func(peer int, m simnet.Message, emit func(simnet.Message)) {
			arrivals = append(arrivals, rt.bucket)
		}
		var err error
		rt, err = New(Config{
			N: 2, Seed: 3, Fire: fire, Recv: recv,
			Rates:   []float64{1, 1e-9}, // peer 1 never fires in this horizon
			Latency: tc.latency, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := rt.RunBuckets(40)
		if len(sentTimes) == 0 {
			t.Fatal("peer 0 never fired")
		}
		if len(arrivals) == 0 {
			t.Fatal("nothing arrived")
		}
		for i, b := range arrivals {
			want := tc.arrival(sentTimes[i])
			if b != want {
				t.Fatalf("latency=%v: emission at t=%v arrived in bucket %d, want %d",
					tc.latency, sentTimes[i], b, want)
			}
			if b <= int(sentTimes[i]) {
				t.Fatalf("latency=%v: arrival bucket %d not after emission bucket %d",
					tc.latency, b, int(sentTimes[i]))
			}
		}
		if stats.Clamped != 0 {
			t.Fatalf("latency=%v: quantization counted as clamp: %+v", tc.latency, stats)
		}
	}
}

func TestAsyncDroppedAndNilRecv(t *testing.T) {
	// Out-of-range destinations count as drops; with Recv == nil, arrivals
	// fall on the floor without crashing and the inbox view stays readable.
	fire := func(peer, k int, t float64, s *rng.Stream, emit func(simnet.Message)) {
		emit(simnet.Message{To: -1, Kind: 1})
		emit(simnet.Message{To: peer, Kind: 1})
	}
	rt, err := New(Config{N: 8, Seed: 5, Fire: fire, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.RunBuckets(6)
	if stats.Dropped == 0 || stats.Dropped != stats.Sent {
		t.Fatalf("want equal sent and dropped counts, got %+v", stats)
	}
	total := 0
	for i := 0; i < rt.N(); i++ {
		total += len(rt.Inbox(i))
	}
	if total == 0 {
		t.Fatal("last bucket delivered nothing despite self-sends")
	}
}

func TestAsyncAccessorsAndShardClamp(t *testing.T) {
	st := newAping(3, 1)
	rt, err := New(Config{N: 3, Seed: 1, Fire: st.fire, Recv: st.recvFn, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rt.N() != 3 || rt.Shards() != 3 {
		t.Fatalf("accessors: n=%d shards=%d (shards should clamp to n)", rt.N(), rt.Shards())
	}
	if rt.bucket != 0 || rt.Fired() != 0 {
		t.Fatalf("fresh runtime: bucket=%d fired=%d", rt.bucket, rt.Fired())
	}
	stats := rt.RunBuckets(4)
	if rt.bucket != 4 || stats.Rounds != 4 {
		t.Fatalf("after 4 buckets: bucket=%d rounds=%d", rt.bucket, stats.Rounds)
	}
	// RunBuckets accumulates: two more buckets extend the same run.
	stats = rt.RunBuckets(2)
	if rt.bucket != 6 || stats.Rounds != 6 {
		t.Fatalf("after 4+2 buckets: bucket=%d rounds=%d", rt.bucket, stats.Rounds)
	}
}

func TestAsyncOverlappingRuntimes(t *testing.T) {
	// Two runtimes running concurrently must not interfere — the -race build
	// of this test is the async-runtime race check.
	run := func() uint64 {
		st := newAping(600, 2)
		rt, err := New(Config{N: 600, Seed: 21, Fire: st.fire, Recv: st.recvFn, Rates: hetRates(600), Shards: 4})
		if err != nil {
			t.Error(err)
			return 0
		}
		rt.RunBuckets(8)
		return st.combined()
	}
	var wg sync.WaitGroup
	digests := make([]uint64, 4)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = run()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("concurrent runtime %d diverged", i)
		}
	}
}
