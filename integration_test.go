package repro_test

// Integration tests crossing module boundaries: the DHT substrate feeding
// the dating service, the dating service feeding gossip/coding/storage, and
// whole-experiment determinism. These are the paths a deployment would
// exercise together.

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func TestRumorOverRealDHT(t *testing.T) {
	// Full Section 4 stack: random ring -> interval-weight selection ->
	// dating service -> rumor spreading. Must complete in O(log n) without
	// uniform sampling anywhere.
	s := rng.New(1)
	const n = 1024
	ring, err := overlay.NewRing(n, rng.New(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewRingSelector(ring)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Run(repro.RumorConfig{
		Algorithm: repro.Dating,
		N:         n,
		Selector:  sel,
		Source:    ring.Owner(s.Uint64()), // an arbitrary DHT node
	}, repro.WithSeed(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("DHT-backed spread incomplete after %d rounds", res.Rounds)
	}
	if float64(res.Rounds) > 6*math.Log2(n) {
		t.Fatalf("%d rounds is not O(log n) at n=%d", res.Rounds, n)
	}
	if res.MaxInLoad > 1 || res.MaxOutLoad > 1 {
		t.Fatal("bandwidth exceeded over DHT selection")
	}
}

func TestDHTSpreadingBeatsUniformSlightly(t *testing.T) {
	// More dates arranged (Figure 1) should translate into no-slower
	// spreading over the DHT distribution than uniform.
	s := rng.New(2)
	const n, reps = 512, 12
	var dht, uni stats.Accumulator
	ring, err := overlay.NewRing(n, rng.New(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	ringSel, _ := core.NewRingSelector(ring)
	for rep := 0; rep < reps; rep++ {
		rd, err := repro.Run(repro.RumorConfig{Algorithm: repro.Dating, N: n, Selector: ringSel}, repro.WithSeed(s.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		dht.Add(float64(rd.Rounds))
		ru, err := repro.Run(repro.RumorConfig{Algorithm: repro.Dating, N: n}, repro.WithSeed(s.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		uni.Add(float64(ru.Rounds))
	}
	// The paper: "from the previous set of experiments it follows that they
	// [DHTs] will be at least as fast". Allow generous noise.
	if dht.Mean() > uni.Mean()*1.3 {
		t.Fatalf("DHT spreading %.1f rounds vs uniform %.1f: contradicts Figure 1's implication",
			dht.Mean(), uni.Mean())
	}
}

func TestMongeringOverDHT(t *testing.T) {
	// Section 5 extension on the Section 4 substrate.
	s := rng.New(3)
	const n = 64
	ring, err := overlay.NewRing(n, rng.New(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	res, err := repro.Run(repro.MongerConfig{
		N: n, Blocks: 6, BlockSize: 32, Selector: sel, PayloadSeed: 9,
	}, repro.WithSeed(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("mongering over DHT incomplete after %d rounds", res.Rounds)
	}
}

func TestStorageOverDHT(t *testing.T) {
	s := rng.New(4)
	const n = 40
	ring, err := overlay.NewRing(n, rng.New(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	res, err := repro.Run(repro.StorageConfig{
		N: n, ObjectsPerNode: 1, Replicas: 2, SlotsPerNode: 4, Selector: sel,
	}, repro.WithSeed(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("replication over DHT incomplete after %d rounds", res.Rounds)
	}
}

// churnWatch is EpochChurn that also audits the payloads it lets through:
// it counts them, and counts those with an endpoint down in the send round.
// Plan runs on every shard, so the counters are atomic.
type churnWatch struct {
	live.EpochChurn
	passed, touchedDown *atomic.Int64
}

func (w churnWatch) Plan(round int, m simnet.Message, s *rng.Stream) int {
	d := w.EpochChurn.Plan(round, m, s)
	if d != live.Drop && m.Kind == gossip.KindPayload {
		w.passed.Add(1)
		if w.Down(round, m.From) || w.Down(round, m.To) {
			w.touchedDown.Add(1)
		}
	}
	return d
}

func TestHandshakeOverDHTWithChurn(t *testing.T) {
	// Message-level dating over DHT selection, run through the facade,
	// while peers go down for whole epochs: dates must keep flowing among
	// the survivors, never touch a down peer, and count exactly the
	// payloads the network delivered, whatever the worker count.
	const n, rounds = 80, 8
	ring, err := overlay.NewRing(n, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	spec := repro.HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Selector: sel, Rounds: rounds}
	var ref repro.LiveResult
	for _, workers := range []int{1, 3} {
		w := churnWatch{EpochChurn: live.EpochChurn{Seed: 77, Epoch: 2, DownFrac: 0.1},
			passed: new(atomic.Int64), touchedDown: new(atomic.Int64)}
		rep, err := repro.Run(spec, repro.WithSeed(77), repro.WithWorkers(workers), repro.WithNet(w))
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Detail.(repro.LiveResult)
		if c := w.touchedDown.Load(); c > 0 {
			t.Fatalf("workers=%d: %d payloads crossed a down peer", workers, c)
		}
		dates := 0
		for r, d := range res.SentHistory {
			if d == 0 {
				t.Fatalf("workers=%d: no dates in dating round %d", workers, r+1)
			}
			dates += d
		}
		if int64(dates) != w.passed.Load() {
			t.Fatalf("workers=%d: %d dates, %d payloads delivered", workers, dates, w.passed.Load())
		}
		if res.Traffic.Dropped == 0 {
			t.Fatalf("workers=%d: churn dropped nothing", workers)
		}
		if workers == 1 {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: dates %v, one worker %v", workers, res.SentHistory, ref.SentHistory)
		}
	}
}

// TestPipelinedDatingOverChordLatency runs Section 4 end to end through the
// facade: a DHT ring's measured Chord lookup latency sets a fixed network
// latency, and the handshake over ring selection pipelines its dating
// rounds under it. k rounds take 3k + 3L − 2 + ((1 − L) mod 3) ticks, a
// single round still dates, and 64 rounds date at sync's rate.
func TestPipelinedDatingOverChordLatency(t *testing.T) {
	const n = 1024
	s := repro.NewStream(6)
	ring, err := repro.NewRing(n, repro.NewStream(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	hops := int(math.Ceil(ring.AvgLookupHops(s, 400, ring.Lookup)))
	if hops < 2 {
		t.Fatalf("latency %d too small for n=%d", hops, n)
	}
	sel, err := repro.RingSelection(ring)
	if err != nil {
		t.Fatal(err)
	}
	handshake := func(k, shards int, net repro.NetModel) repro.LiveResult {
		rep, err := repro.Run(repro.HandshakeConfig{Profile: repro.UnitBandwidth(n), Selector: sel, Rounds: k},
			repro.WithSeed(6), repro.WithWorkers(shards), repro.WithNet(net))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Detail.(repro.LiveResult)
	}
	for _, shards := range []int{1, 2} {
		sync := handshake(64, shards, nil)
		for _, L := range []int{2, 3, hops, 2 * hops} {
			for _, k := range []int{1, 2, 8, 64} {
				res := handshake(k, shards, repro.NetFixedLatency{Rounds: L})
				if want := 3*k + 3*L - 2 + ((1-L)%3+3)%3; res.Traffic.Rounds != int64(want) {
					t.Errorf("shards=%d L=%d k=%d: %d ticks, want %d", shards, L, k, res.Traffic.Rounds, want)
				}
				if k == 1 && res.History[0] == 0 {
					t.Errorf("shards=%d L=%d: one dating round arranged no date", shards, L)
				}
				if k == 64 && math.Abs(float64(res.History[63])/float64(sync.History[63])-1) > 0.02 {
					t.Errorf("shards=%d L=%d: %d dates in 64 rounds, sync %d", shards, L, res.History[63], sync.History[63])
				}
			}
		}
	}
}

func TestExperimentSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick-scale experiment passes")
	}
	// The whole harness is a pure function of its seed: identical tables
	// on identical seeds, different tables on different seeds.
	var alpha sim.Experiment
	for _, e := range sim.Registry() {
		if e.Name == "alpha" {
			alpha = e
		}
	}
	render := func(seed uint64) string {
		tbl, err := alpha.Run(sim.ScaleQuick, seed, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Render()
	}
	a1 := render(99)
	if a2 := render(99); a2 != a1 {
		t.Fatalf("same seed produced different tables:\n%s\nvs\n%s", a1, a2)
	}
	if a3 := render(100); a3 == a1 {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestFigureRunnersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure 2 twice")
	}
	var figure2 sim.Experiment
	for _, e := range sim.Registry() {
		if e.Name == "figure2" {
			figure2 = e
		}
	}
	render := func() string {
		tbl, err := figure2.Run(sim.ScaleQuick, 5, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Render()
	}
	if f1, f2 := render(), render(); f1 != f2 {
		t.Fatalf("figure 2 is not deterministic:\n%s\nvs\n%s", f1, f2)
	}
}

func TestPoissonPredictionAgainstDHTSimulation(t *testing.T) {
	// PredictWeightedFraction fed with the measured DHT interval weights
	// must predict the simulated DHT fraction — analysis and simulation
	// agreeing through two module boundaries.
	s := rng.New(7)
	const n = 800
	ring, err := overlay.NewRing(n, rng.New(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.PredictWeightedFraction(ring.IntervalWeights(), n)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	svc, err := core.NewService(bandwidth.Homogeneous(n, 1), sel)
	if err != nil {
		t.Fatal(err)
	}
	var acc stats.Accumulator
	for r := 0; r < 150; r++ {
		res, err := svc.RunRoundSeeded(s.Uint64(), 1)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res.Fraction(n))
	}
	if math.Abs(acc.Mean()-pred) > 0.02 {
		t.Fatalf("DHT: simulated %.4f vs Poisson prediction %.4f", acc.Mean(), pred)
	}
}
