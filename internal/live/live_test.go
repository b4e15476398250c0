package live

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/shardrt"
	"repro/internal/simnet"
)

// chatterState is a synthetic protocol for engine tests: every peer sends
// fan messages to random destinations each round and folds every received
// message — order-sensitively — into a per-peer digest, so any difference
// in delivery content or order changes the final digest.
type chatterState struct {
	n      int
	fan    int
	digest []uint64
	recv   []int
}

func newChatter(n, fan int) *chatterState {
	return &chatterState{n: n, fan: fan, digest: make([]uint64, n), recv: make([]int, n)}
}

func (c *chatterState) step(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
	for _, m := range inbox {
		c.recv[node]++
		h := c.digest[node]
		h = h*1099511628211 + uint64(m.From)
		h = h*1099511628211 + uint64(m.A)
		c.digest[node] = h
	}
	for k := 0; k < c.fan; k++ {
		emit(simnet.Message{To: s.Intn(c.n), Kind: 1, A: int32(round)})
	}
}

func (c *chatterState) combined() uint64 {
	h := uint64(14695981039346656037)
	for _, d := range c.digest {
		h = h*1099511628211 + d
	}
	return h
}

func TestNewValidation(t *testing.T) {
	step := func(int, int, []simnet.Message, *rng.Stream, func(simnet.Message)) {}
	if _, err := New(Config{N: 0, Step: step}); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := New(Config{N: 4}); err == nil {
		t.Error("accepted nil step")
	}
	active := func(int, int, []simnet.Message, *rng.Stream, func(simnet.Message)) bool { return false }
	if _, err := New(Config{N: 4, Step: step, ActiveStep: active}); err == nil {
		t.Error("accepted both Step and ActiveStep")
	}
	if _, err := New(Config{N: 4, ActiveStep: active}); err != nil {
		t.Errorf("rejected ActiveStep alone: %v", err)
	}
	if _, err := New(Config{N: 4, Step: step, Shards: -1}); err == nil {
		t.Error("accepted negative shards")
	}
	nan := math.NaN()
	for _, net := range []NetModel{
		FixedLatency{Rounds: 0},
		GeomLatency{P: 0, Cap: 4},
		GeomLatency{P: 0.5, Cap: 0},
		Loss{P: 1},
		Loss{P: -0.1},
		EpochChurn{Epoch: 0, DownFrac: 0.1},
		EpochChurn{Epoch: 3, DownFrac: 1},
		Loss{P: 0.1, Under: FixedLatency{Rounds: 0}},
		RingLatency{Pos: UniformRing(4, 1), Scale: 2, Max: 0},
		RingLatency{Pos: UniformRing(4, 1), Scale: -1, Max: 3},
		RingLatency{Pos: UniformRing(2, 1), Scale: 2, Max: 3}, // embedding smaller than n
		// NaN fails every comparison, so only an accepting-form check sees it.
		Loss{P: nan},
		GeomLatency{P: nan, Cap: 4},
		EpochChurn{Epoch: 2, DownFrac: nan},
		Loss{P: 0.1, Under: GeomLatency{P: nan, Cap: 4}},
		EpochChurn{Epoch: 2, DownFrac: 0.1, Under: Loss{P: nan}},
		// A non-finite scale makes int(arc*Scale) not a number: d < 1, every
		// message silently dropped.
		RingLatency{Pos: UniformRing(4, 1), Scale: nan, Max: 3},
		RingLatency{Pos: UniformRing(4, 1), Scale: math.Inf(1), Max: 3},
		// A ring the runtime cannot hold is an error, not a 2^31-slot make.
		FixedLatency{Rounds: math.MaxInt32},
		FixedLatency{Rounds: math.MaxInt},
		GeomLatency{P: 0.5, Cap: shardrt.MaxRing},
	} {
		if _, err := New(Config{N: 4, Step: step, Net: net}); err == nil {
			t.Errorf("accepted invalid net model %#v", net)
		}
	}
}

func TestShardCountBitIdentity(t *testing.T) {
	// The runtime's headline property: (n, seed, step, net) fully determine
	// the run; the shard count is invisible. Exercised across every model
	// family, including the randomized ones whose decisions ride on the
	// per-(round, sender) derived streams.
	const n, rounds = 3000, 12
	models := map[string]NetModel{
		"sync":    nil,
		"fixed":   FixedLatency{Rounds: 3},
		"geom":    GeomLatency{P: 0.6, Cap: 5},
		"loss":    Loss{P: 0.2},
		"churn":   EpochChurn{Seed: 9, Epoch: 4, DownFrac: 0.3},
		"composn": Loss{P: 0.1, Under: GeomLatency{P: 0.5, Cap: 3}},
		"ring":    RingLatency{Pos: UniformRing(n, 13), Scale: 6, Max: 4},
	}
	for name, net := range models {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				digest uint64
				stats  simnet.Stats
			}
			var ref outcome
			for _, shards := range []int{1, 2, 4, 8} {
				st := newChatter(n, 2)
				rt, err := New(Config{N: n, Seed: 42, Step: st.step, Shards: shards, Net: net})
				if err != nil {
					t.Fatal(err)
				}
				stats := rt.Run(rounds)
				got := outcome{digest: st.combined(), stats: stats}
				if shards == 1 {
					ref = got
					continue
				}
				if got != ref {
					t.Fatalf("shards=%d diverged from shards=1:\n  %+v\nvs %+v", shards, got, ref)
				}
			}
			if ref.stats.Sent == 0 {
				t.Fatal("no traffic at all")
			}
		})
	}
}

func TestMatchesGoroutineEngine(t *testing.T) {
	// Under the perfect-sync model, the sharded runtime is bit-identical to
	// the sequential simnet.Live oracle (once a goroutine-per-peer engine,
	// whence the test's name) when both seed every step
	// from PeerSeed: same digests, same traffic counters.
	const n, rounds, seed = 500, 10, 7

	shardSt := newChatter(n, 2)
	rt, err := New(Config{N: n, Seed: seed, Step: shardSt.step, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	shardStats := rt.Run(rounds)

	legacySt := newChatter(n, 2)
	peerSeed := func(round, node int) uint64 { return PeerSeed(seed, round, node) }
	eng, err := simnet.NewLive(n, peerSeed, func(node, round int, inbox []simnet.Message, s *rng.Stream) []simnet.Message {
		var out []simnet.Message
		legacySt.step(node, round, inbox, s, func(m simnet.Message) { out = append(out, m) })
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	legacyStats := eng.Run(rounds)
	// The sharded runtime has one round of messages still in flight that
	// simnet.Live also leaves in its mailboxes; counters must agree exactly.
	if shardStats != legacyStats {
		t.Fatalf("stats diverge:\nsharded %+v\nlegacy  %+v", shardStats, legacyStats)
	}
	if shardSt.combined() != legacySt.combined() {
		t.Fatal("delivery digests diverge between sharded runtime and simnet.Live")
	}
}

func TestFixedLatencyDelaysDelivery(t *testing.T) {
	// A message emitted in round r under FixedLatency{D} arrives at the
	// start of round r+D, and not before.
	const d = 3
	arrived := -1
	step := func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		if node == 1 && len(inbox) > 0 && arrived == -1 {
			arrived = round
		}
		if node == 0 && round == 0 {
			emit(simnet.Message{To: 1, Kind: 1})
		}
	}
	rt, err := New(Config{N: 2, Seed: 1, Step: step, Net: FixedLatency{Rounds: d}})
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(d + 2)
	if arrived != d {
		t.Fatalf("message sent in round 0 arrived in round %d, want %d", arrived, d)
	}
	if stats.Sent != 1 || stats.Dropped != 0 {
		t.Fatalf("unexpected traffic: %+v", stats)
	}
}

func TestLossDropsExpectedFraction(t *testing.T) {
	const n, rounds, fan = 200, 30, 5
	st := newChatter(n, fan)
	rt, err := New(Config{N: n, Seed: 3, Step: st.step, Shards: 2, Net: Loss{P: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(rounds)
	emitted := stats.Sent + stats.Dropped
	if emitted != int64(n*rounds*fan) {
		t.Fatalf("emitted %d, want %d", emitted, n*rounds*fan)
	}
	frac := float64(stats.Dropped) / float64(emitted)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("dropped fraction %.3f far from 0.3", frac)
	}
}

func TestEpochChurnIsCorrelated(t *testing.T) {
	churn := EpochChurn{Seed: 5, Epoch: 8, DownFrac: 0.4}
	const n = 400
	// Down-ness is constant within an epoch and roughly DownFrac on average.
	down := 0
	for p := 0; p < n; p++ {
		for r := 1; r < churn.Epoch; r++ {
			if churn.Down(r, p) != churn.Down(0, p) {
				t.Fatalf("peer %d flipped down-ness mid-epoch", p)
			}
		}
		if churn.Down(0, p) {
			down++
		}
	}
	if down < n/4 || down > 11*n/20 {
		t.Fatalf("%d/%d peers down, want about %.0f", down, n, churn.DownFrac*float64(n))
	}

	// On the runtime: within the first epoch, a peer receives messages iff
	// neither it nor its (fixed) sender is down — all-or-nothing, the
	// signature of correlated loss.
	st := newChatter(n, 0)
	ring := func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		st.step(node, round, inbox, s, emit)
		emit(simnet.Message{To: (node + 1) % n, Kind: 1})
	}
	rt, err := New(Config{N: n, Seed: 6, Step: ring, Shards: 2, Net: churn})
	if err != nil {
		t.Fatal(err)
	}
	rounds := churn.Epoch - 1 // stay within epoch 0; last sends undelivered
	rt.Run(rounds)
	for p := 0; p < n; p++ {
		sender := (p - 1 + n) % n
		want := 0
		if !churn.Down(0, p) && !churn.Down(0, sender) {
			want = rounds - 1
		}
		if st.recv[p] != want {
			t.Fatalf("peer %d received %d messages, want %d (down=%v, sender down=%v)",
				p, st.recv[p], want, churn.Down(0, p), churn.Down(0, sender))
		}
	}
}

func TestGeomLatencyTailIsCapped(t *testing.T) {
	// All mass beyond Cap lands on Cap: nothing is lost, everything arrives
	// within Cap rounds of being sent.
	const n, rounds = 100, 20
	st := newChatter(n, 3)
	rt, err := New(Config{N: n, Seed: 11, Step: st.step, Shards: 2, Net: GeomLatency{P: 0.4, Cap: 4}})
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(rounds)
	if stats.Dropped != 0 {
		t.Fatalf("geometric latency dropped %d messages", stats.Dropped)
	}
	if stats.Sent != int64(n*rounds*3) {
		t.Fatalf("sent %d, want %d", stats.Sent, n*rounds*3)
	}
}

func TestOverlappingRuntimes(t *testing.T) {
	// Two sharded runtimes running concurrently must not interfere — the
	// -race build of this test is the live-runtime race check.
	run := func() uint64 {
		st := newChatter(600, 2)
		rt, err := New(Config{N: 600, Seed: 21, Step: st.step, Shards: 4})
		if err != nil {
			t.Error(err)
			return 0
		}
		rt.Run(8)
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

func TestRuntimeAccessors(t *testing.T) {
	st := newChatter(10, 1)
	rt, err := New(Config{N: 10, Seed: 1, Step: st.step, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rt.N() != 10 || rt.Shards() != 3 || rt.Round() != 0 {
		t.Fatalf("accessors: n=%d shards=%d round=%d", rt.N(), rt.Shards(), rt.Round())
	}
	rt.Run(2)
	if rt.Round() != 2 {
		t.Fatalf("round after Run(2): %d", rt.Round())
	}
	total := 0
	for i := 0; i < 10; i++ {
		total += len(rt.Inbox(i))
	}
	if total != 10 {
		t.Fatalf("inboxes of the last round hold %d messages, want 10", total)
	}
}

func TestDeliveryScratchPartitionsPeerRange(t *testing.T) {
	// The delivery sort's memory claim: the delivery owners' ranges must
	// partition [0, n) — so the owners' sorts, each counting on its own
	// range of the one offsets array, write disjoint entries and need no
	// scratch of their own, rather than every shard holding a length-n
	// array (the pre-kernel O(shards·n) layout).
	st := newChatter(1000, 1)
	for _, shards := range []int{1, 2, 4, 8} {
		rt, err := New(Config{N: 1000, Seed: 1, Step: st.step, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for w := 0; w < rt.Shards(); w++ {
			lo, hi := rt.core.Part().Range(w)
			if lo != total {
				t.Fatalf("shards=%d: owner %d range starts at %d, want %d", shards, w, lo, total)
			}
			total = hi
		}
		if total != rt.N() {
			t.Fatalf("shards=%d: owner ranges cover %d ids, want exactly n=%d", shards, total, rt.N())
		}
	}
}

func TestShardsClampedToN(t *testing.T) {
	st := newChatter(3, 1)
	rt, err := New(Config{N: 3, Seed: 1, Step: st.step, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Shards() != 3 {
		t.Fatalf("shards not clamped: %d", rt.Shards())
	}
	rt.Run(3)
}

func ExampleRuntime() {
	// Three peers flood-fill a token: whoever holds it forwards it to the
	// next peer. Six rounds pass it all the way around twice.
	holder := []bool{true, false, false}
	step := func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		for range inbox {
			holder[node] = true
		}
		if holder[node] {
			holder[node] = false
			emit(simnet.Message{To: (node + 1) % 3, Kind: 1})
		}
	}
	rt, _ := New(Config{N: 3, Seed: 1, Step: step})
	stats := rt.Run(6)
	fmt.Println(stats.Sent, "messages")
	// Output: 6 messages
}

func TestShardValidation(t *testing.T) {
	// Shards semantics at the edges: negative is an error (0 is the
	// GOMAXPROCS default, so "less than one worker" is never what a negative
	// value means), zero selects GOMAXPROCS capped at n, and counts beyond n
	// clamp to n.
	step := func(int, int, []simnet.Message, *rng.Stream, func(simnet.Message)) {}
	for _, shards := range []int{-1, -8} {
		_, err := New(Config{N: 4, Step: step, Shards: shards})
		if err == nil {
			t.Fatalf("accepted shards=%d", shards)
		}
		if !strings.Contains(err.Error(), "non-negative") {
			t.Fatalf("shards=%d error does not state the constraint: %v", shards, err)
		}
	}
	rt, err := New(Config{N: 2, Step: step, Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := min(runtime.GOMAXPROCS(0), 2); rt.Shards() != want {
		t.Fatalf("shards=0 selected %d workers, want min(GOMAXPROCS, n) = %d", rt.Shards(), want)
	}
	rt, err = New(Config{N: 3, Step: step, Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Shards() != 3 {
		t.Fatalf("shards=64 on n=3 kept %d workers, want 3", rt.Shards())
	}
}

// overpromise is a deliberately buggy NetModel: Plan returns a delay beyond
// its own MaxDelay. The runtime must deliver at MaxDelay and count each
// rewrite in Stats.Clamped rather than silently rewriting.
type overpromise struct{ cap, plan int }

func (o overpromise) Plan(int, simnet.Message, *rng.Stream) int { return o.plan }
func (o overpromise) MaxDelay() int                             { return o.cap }
func (overpromise) Random() bool                                { return false }

func TestPlanBeyondMaxDelayCountsClamps(t *testing.T) {
	// A model promising MaxDelay=2 but planning 7 behaves exactly like
	// FixedLatency{2} — same digests, same delivery schedule — except every
	// delivery is counted in Stats.Clamped, so the bug is observable.
	const n, rounds, fan = 300, 10, 2
	buggy := newChatter(n, fan)
	rt, err := New(Config{N: n, Seed: 8, Step: buggy.step, Shards: 2, Net: overpromise{cap: 2, plan: 7}})
	if err != nil {
		t.Fatal(err)
	}
	buggyStats := rt.Run(rounds)

	honest := newChatter(n, fan)
	rt2, err := New(Config{N: n, Seed: 8, Step: honest.step, Shards: 2, Net: FixedLatency{Rounds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	honestStats := rt2.Run(rounds)

	if buggy.combined() != honest.combined() {
		t.Fatal("clamped over-promise model diverged from FixedLatency at the clamp value")
	}
	if buggyStats.Clamped != buggyStats.Sent || buggyStats.Sent == 0 {
		t.Fatalf("want every sent message counted as clamped, got %+v", buggyStats)
	}
	if honestStats.Clamped != 0 {
		t.Fatalf("well-formed model clamped %d messages", honestStats.Clamped)
	}
	buggyStats.Clamped = 0
	if buggyStats != honestStats {
		t.Fatalf("traffic diverged beyond the clamp counter:\nbuggy  %+v\nhonest %+v", buggyStats, honestStats)
	}
}

func TestInboxAfterEmptyRounds(t *testing.T) {
	// The delivered view after rounds in which nothing was sent: Inbox must
	// report every peer empty.
	const n = 50
	st := newChatter(n, 3)
	rt, err := New(Config{N: n, Seed: 4, Shards: 2,
		Step: func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
			if round == 0 {
				st.step(node, round, inbox, s, emit)
			} else {
				st.step(node, round, inbox, s, func(simnet.Message) {})
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Run(5).Sent == 0 {
		t.Fatal("round 0 sent nothing")
	}
	for i := 0; i < n; i++ {
		if len(rt.Inbox(i)) != 0 {
			t.Fatalf("peer %d: %d messages visible after an empty round", i, len(rt.Inbox(i)))
		}
	}
}

// TestRuntimeBytesPerPeer pins what the runtime itself costs per peer: New
// and three ticks of a protocol whose peers all fall asleep at once, so
// nothing is sent and only the per-peer arrays are left — the delivered
// view's int32 offset and the asleep flag, 5 B. While the core kept a
// 32-byte generator per peer this read 37.2 B.
func TestRuntimeBytesPerPeer(t *testing.T) {
	const n, bound = 100_000, 8.0
	asleep := func(int, int, []simnet.Message, *rng.Stream, func(simnet.Message)) bool { return false }
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := New(Config{N: n, Seed: 1, ActiveStep: asleep, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Run(3); st.Sent != 0 {
		t.Fatalf("an always-asleep protocol sent %d messages", st.Sent)
	}
	runtime.ReadMemStats(&after)
	perPeer := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f B per peer", perPeer)
	if perPeer > bound {
		t.Errorf("the runtime allocated %.2f B per peer, bound %.0f", perPeer, bound)
	}
}
