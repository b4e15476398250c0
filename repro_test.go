package repro_test

import (
	"math"
	"reflect"
	"testing"

	"repro"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func TestQuickstartFlow(t *testing.T) {
	const n = 500
	profile := repro.UnitBandwidth(n)
	sel, err := repro.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := repro.NewDatingService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.RunRoundSeeded(42, 1)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Fraction(n)
	if frac < 0.40 || frac > 0.55 {
		t.Fatalf("fraction %.3f outside sane band", frac)
	}
}

func TestRumorRunFacade(t *testing.T) {
	rep, err := repro.Run(repro.RumorConfig{N: 256, Algorithm: repro.Dating}, repro.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("incomplete after %d rounds", rep.Rounds)
	}
}

func TestDHTFlow(t *testing.T) {
	s := repro.NewStream(2)
	ring, err := repro.NewRing(128, s)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := repro.RingSelection(ring)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := repro.NewDatingService(repro.UnitBandwidth(128), sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.RunRoundSeeded(s.Uint64(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dates) == 0 {
		t.Fatal("no dates over DHT selection")
	}
}

func TestBimodalAndZipfFacade(t *testing.T) {
	if _, err := repro.Bimodal(10, 2, 8, 1); err != nil {
		t.Fatal(err)
	}
	s := repro.NewStream(3)
	if _, err := repro.ZipfBandwidth(50, 1.0, 16, 2, s); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Weighted([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestArrangeDatesFacade(t *testing.T) {
	sel, _ := repro.Uniform(4)
	arr, err := repro.NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	dates, err := arr.Arrange([]int{1, 0, 2, 0}, []int{0, 1, 0, 2}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dates {
		if d.Sender == 1 || d.Sender == 3 || d.Receiver == 0 || d.Receiver == 2 {
			t.Fatalf("date %v violates the supply/demand vectors", d)
		}
	}
}

func TestMongerFacade(t *testing.T) {
	rep, err := repro.Run(repro.MongerConfig{N: 20, Blocks: 4, BlockSize: 8}, repro.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("mongering incomplete after %d rounds", rep.Rounds)
	}
}

func TestReplicateFacade(t *testing.T) {
	rep, err := repro.Run(repro.StorageConfig{
		N: 20, ObjectsPerNode: 1, Replicas: 2, SlotsPerNode: 4,
	}, repro.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("replication incomplete after %d rounds", rep.Rounds)
	}
}

func TestArrangerFacade(t *testing.T) {
	sel, _ := repro.Uniform(100)
	arr, err := repro.NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	supply := make([]int, 100)
	demand := make([]int, 100)
	for i := range supply {
		supply[i] = 1
		demand[i] = 1
	}
	serial, err := arr.Arrange(supply, demand, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := arr.Arrange(supply, demand, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("serial %d dates, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("date %d differs: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

// TestAsyncTraceIsBucketLevel pins the trajectory of clockless AsyncConfig
// runs: Report.Trajectory holds one entry per calendar bucket, in bucket
// order, with the informed count at that bucket's boundary — exactly the
// run's History. Buckets are the async runtime's rounds.
func TestAsyncTraceIsBucketLevel(t *testing.T) {
	const n = 400
	rep, err := repro.Run(repro.AsyncConfig{Profile: repro.UnitBandwidth(n)}, repro.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	detail := rep.Detail.(repro.AsyncResult)
	if len(rep.Trajectory) != detail.Rounds || rep.Rounds != detail.Rounds {
		t.Fatalf("trajectory has %d buckets, report %d rounds, run executed %d", len(rep.Trajectory), rep.Rounds, detail.Rounds)
	}
	if !reflect.DeepEqual(rep.Trajectory, detail.History) {
		t.Fatalf("trajectory %v differs from the bucket history %v", rep.Trajectory, detail.History)
	}
	if last := rep.Trajectory[len(rep.Trajectory)-1]; last != n {
		t.Fatalf("final trajectory value %d, want %d", last, n)
	}
}

// TestWithObserverFillsMetricsAndChangesNothing is the facade-level
// determinism contract: WithObserver fills Report.Metrics with phase and
// gauge aggregates, and the rest of the report is bit-identical to an
// unobserved run — at more than one worker count.
func TestWithObserverFillsMetricsAndChangesNothing(t *testing.T) {
	cfg := repro.LiveConfig{Profile: repro.UnitBandwidth(500)}
	for _, workers := range []int{1, 4} {
		plain, err := repro.Run(cfg, repro.WithSeed(9), repro.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Metrics != nil {
			t.Fatal("unobserved run carries metrics")
		}
		o := repro.NewObserver()
		observed, err := repro.Run(cfg, repro.WithSeed(9), repro.WithWorkers(workers),
			repro.WithObserver(o))
		if err != nil {
			t.Fatal(err)
		}
		if observed.Metrics == nil || len(observed.Metrics.Phases) == 0 || len(observed.Metrics.Gauges) == 0 {
			t.Fatalf("workers=%d: observed run has no metrics: %+v", workers, observed.Metrics)
		}
		observed.Metrics = nil
		plain.Wall, observed.Wall = 0, 0 // wall time never reproduces
		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("workers=%d: observer changed the report:\nplain    %+v\nobserved %+v",
				workers, plain, observed)
		}
	}
}

// TestObserverSharedAcrossRunsAttributesPerRun checks Mark-based
// attribution: two runs sharing one observer each get only their own
// tracks in Report.Metrics, while the observer's own aggregate sees both.
func TestObserverSharedAcrossRunsAttributesPerRun(t *testing.T) {
	o := repro.NewObserver()
	a, err := repro.Run(repro.RumorConfig{N: 256, Algorithm: repro.Dating},
		repro.WithSeed(1), repro.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.Run(repro.AsyncConfig{Profile: repro.UnitBandwidth(256)},
		repro.WithSeed(1), repro.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Metrics.Phases {
		if p.Track != "rumor" {
			t.Fatalf("rumor run reported foreign track %q", p.Track)
		}
	}
	for _, p := range b.Metrics.Phases {
		if p.Track != "async" {
			t.Fatalf("async run reported foreign track %q", p.Track)
		}
	}
	tracks := map[string]bool{}
	for _, p := range o.Metrics().Phases {
		tracks[p.Track] = true
	}
	if !tracks["rumor"] || !tracks["async"] {
		t.Fatalf("observer aggregate missing tracks: %v", tracks)
	}
}

// TestReportSurfacesDrops pins satellite coverage of the traffic counters:
// a lossy live run reports its drops in Report.Dropped, and a perfect-sync
// run reports zero.
func TestReportSurfacesDrops(t *testing.T) {
	cfg := repro.LiveConfig{Profile: repro.UnitBandwidth(400)}
	lossy, err := repro.Run(cfg, repro.WithSeed(3), repro.WithNet(repro.NetLoss{P: 0.10}))
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Dropped == 0 {
		t.Fatal("10% loss dropped no messages")
	}
	clean, err := repro.Run(cfg, repro.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Dropped != 0 || clean.Clamped != 0 {
		t.Fatalf("perfect sync reported dropped=%d clamped=%d", clean.Dropped, clean.Clamped)
	}
}

// TestRunRejectsUnholdableRing pins that a latency the delivery ring cannot
// hold comes back from Run as an error: 1e300 buckets used to wrap the ring
// size negative and panic in make, 2^31 rounds to allocate the ring.
func TestRunRejectsUnholdableRing(t *testing.T) {
	p := repro.UnitBandwidth(16)
	if _, err := repro.Run(repro.AsyncConfig{Profile: p, Latency: 1e300}); err == nil {
		t.Error("async run with Latency 1e300 returned no error")
	}
	if _, err := repro.Run(repro.LiveConfig{Profile: p}, repro.WithNet(repro.NetFixedLatency{Rounds: math.MaxInt32})); err == nil {
		t.Error("live run with a 2^31-round latency returned no error")
	}
}

// TestRunRejectsUnindexableProfile pins that a profile whose totals the round
// engine's int32 offsets cannot hold comes back from Run as an error before a
// round starts: 2 x 2^31 units used to be accepted and wrap the offsets, and
// 2 x (2^31-1) is still beyond them.
func TestRunRejectsUnindexableProfile(t *testing.T) {
	p := repro.Homogeneous(2, math.MaxInt32)
	if _, err := repro.Run(repro.RumorConfig{Algorithm: repro.Dating, Profile: p}); err == nil {
		t.Error("dating run over 2^32-2 units a round returned no error")
	}
}

// TestTopologyFacade drives graph-constrained spreading end to end through
// the public surface: a generated scale-free graph, repro.Run on the
// TopologyConfig spec, the per-round spreader/stifler gauges riding
// Report.Metrics, and Report.Sent carrying the per-round message history.
func TestTopologyFacade(t *testing.T) {
	g, err := repro.BarabasiAlbertGraph(2_000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := repro.NewObserver()
	rep, err := repro.Run(repro.TopologyConfig{Graph: g, Source: 0, Alpha: 0.5},
		repro.WithSeed(11), repro.WithWorkers(2), repro.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "topology" || !rep.Completed {
		t.Fatalf("unexpected report: protocol=%q completed=%v", rep.Protocol, rep.Completed)
	}
	if len(rep.Sent) != rep.Rounds || len(rep.Trajectory) != rep.Rounds {
		t.Fatalf("history lengths %d/%d, want %d", len(rep.Sent), len(rep.Trajectory), rep.Rounds)
	}
	if rep.Metrics == nil {
		t.Fatal("observed run carries no metrics")
	}
	gauges := map[string]bool{}
	for _, gg := range rep.Metrics.Gauges {
		if gg.Track == "topology" {
			gauges[gg.Name] = true
		}
	}
	if !gauges["spreaders"] || !gauges["stiflers"] {
		t.Fatalf("topology gauges missing from metrics: %v", gauges)
	}
	det, ok := rep.Detail.(repro.TopologyResult)
	if !ok {
		t.Fatalf("Detail is %T, want TopologyResult", rep.Detail)
	}
	if det.FinalSpread <= 0 || det.FinalSpread > 1 {
		t.Fatalf("final spread %v outside (0,1]", det.FinalSpread)
	}
	// The other generators are reachable through the facade too.
	if _, err := repro.CompleteGraph(8); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RingLatticeGraph(10, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.ErdosRenyiGraph(100, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.PowerLawGraph(100, 2.5, 2, 20, 1); err != nil {
		t.Fatal(err)
	}
}
