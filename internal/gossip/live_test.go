package gossip

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

func TestRunLiveValidation(t *testing.T) {
	if _, err := RunLive(LiveConfig{}, LiveOptions{}); err == nil {
		t.Error("accepted empty profile")
	}
	if _, err := RunLive(LiveConfig{Profile: bandwidth.Homogeneous(4, 1), Source: 9}, LiveOptions{}); err == nil {
		t.Error("accepted bad source")
	}
	sel, _ := core.NewUniformSelector(3)
	if _, err := RunLive(LiveConfig{Profile: bandwidth.Homogeneous(4, 1), Selector: sel}, LiveOptions{}); err == nil {
		t.Error("accepted selector size mismatch")
	}
	badProfile := bandwidth.Profile{In: []int{0, 1}, Out: []int{1, 1}}
	if _, err := RunLive(LiveConfig{Profile: badProfile}, LiveOptions{}); err == nil {
		t.Error("accepted zero-bandwidth profile")
	}
}

// TestRunLiveRejectsSourceBeforeBuilding pins that an out-of-range source
// is rejected before the handshake builds its runtime: the clock seam
// fails the test if it is called.
func TestRunLiveRejectsSourceBeforeBuilding(t *testing.T) {
	const n = 64
	clk := func(int, LiveOptions, live.StepFunc, live.ActiveStepFunc) (ticker, func() int, []int, error) {
		t.Fatal("runLive built a runtime for an out-of-range source")
		return nil, nil, nil, nil
	}
	_, err := runLive(LiveConfig{Profile: bandwidth.Homogeneous(n, 1), Source: n}, LiveOptions{}, clk)
	if err == nil || !strings.Contains(err.Error(), "source 64 out of range") {
		t.Fatalf("error %v, want one naming the source", err)
	}
	if _, err := runLive(LiveConfig{}, LiveOptions{}, clk); err == nil || !strings.Contains(err.Error(), "needs a profile") {
		t.Fatalf("empty profile: error %v, want one naming the profile", err)
	}
}

func TestRunLiveCompletes(t *testing.T) {
	res, err := RunLive(
		LiveConfig{Profile: bandwidth.Homogeneous(256, 1)},
		LiveOptions{Seed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("live spread incomplete after %d dating rounds", res.Rounds)
	}
	last := res.History[len(res.History)-1]
	if last != 256 {
		t.Fatalf("final informed %d", last)
	}
}

func TestRunLiveRespectsBandwidth(t *testing.T) {
	// The handshake guarantees no node receives more payloads per round
	// than its incoming bandwidth.
	for _, b := range []int{1, 3} {
		res, err := RunLive(
			LiveConfig{Profile: bandwidth.Homogeneous(128, b)},
			LiveOptions{Seed: 3},
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxInPayloads > b {
			t.Fatalf("bandwidth %d: a node received %d payloads in one round", b, res.MaxInPayloads)
		}
		if res.MaxInPayloads == 0 {
			t.Fatal("no payloads at all")
		}
	}
}

func TestRunLiveHistoryMonotone(t *testing.T) {
	res, err := RunLive(LiveConfig{Profile: bandwidth.Homogeneous(150, 1)}, LiveOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, c := range res.History {
		if c < prev {
			t.Fatalf("informed count dropped at dating round %d", i+1)
		}
		prev = c
	}
}

func TestRunLiveMatchesFlatSimulatorStatistically(t *testing.T) {
	// The message-level run should take about as many rounds as the flat
	// simulator (same protocol, different execution substrate).
	var liveSum, flatSum float64
	const reps = 5
	for rep := 0; rep < reps; rep++ {
		lr, err := RunLive(
			LiveConfig{Profile: bandwidth.Homogeneous(300, 1)},
			LiveOptions{Seed: uint64(100 + rep)},
		)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Completed {
			t.Fatal("live incomplete")
		}
		liveSum += float64(lr.Rounds)

		fr, err := spread(Config{Algorithm: Dating, N: 300, Source: 0}, rng.New(uint64(100+rep)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		flatSum += float64(fr.Rounds)
	}
	liveMean, flatMean := liveSum/reps, flatSum/reps
	if liveMean > 1.5*flatMean || flatMean > 1.5*liveMean {
		t.Fatalf("live %.1f rounds vs flat %.1f: substrates disagree", liveMean, flatMean)
	}
}

func TestRunLiveOverheadShape(t *testing.T) {
	// Per dating round, control traffic is 2 scatter messages per unit of
	// bandwidth plus one answer per offer; payloads are at most min-side
	// bandwidth. Verify the traffic mix.
	res, err := RunLive(LiveConfig{Profile: bandwidth.Homogeneous(100, 1)}, LiveOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Traffic
	offers := st.ByKind[KindOffer]
	answers := st.ByKind[KindAnswer]
	payloads := st.ByKind[KindPayload]
	if offers == 0 || answers == 0 || payloads == 0 {
		t.Fatalf("missing traffic classes: %d/%d/%d", offers, answers, payloads)
	}
	if answers > offers {
		t.Fatalf("more answers (%d) than offers (%d)", answers, offers)
	}
	if payloads > answers {
		t.Fatalf("more payloads (%d) than answers (%d)", payloads, answers)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d messages with no dead nodes", st.Dropped)
	}
}

func TestLiveStepPhases(t *testing.T) {
	// Unit-test the state machine directly: a rendezvous holding one offer
	// and one request must emit exactly one positive answer.
	profile := bandwidth.Homogeneous(4, 1)
	sel, _ := core.NewUniformSelector(4)
	st := newLiveState(4, false)
	st.key([]int{0, 4}, 1)
	step := adaptStep(liveEmitStep(profile, sel, st, 10))
	inbox := []simnet.Message{
		{From: 1, To: 0, Kind: KindOffer},
		{From: 2, To: 0, Kind: KindRequest},
	}
	out := step(0, 1, inbox, rng.New(1)) // round 1 = phase 1 (rendezvous)
	if len(out) != 1 {
		t.Fatalf("rendezvous emitted %d messages, want 1", len(out))
	}
	if out[0].Kind != KindAnswer || out[0].To != 1 || out[0].A != 2 {
		t.Fatalf("bad answer: %+v", out[0])
	}

	// Phase 2: an informed node with a positive answer sends the rumor.
	st.set(1, 1)
	out = step(1, 2, []simnet.Message{{From: 0, To: 1, Kind: KindAnswer, A: 2}}, rng.New(2))
	if len(out) != 1 || out[0].Kind != KindPayload || out[0].A != 1 || out[0].To != 2 {
		t.Fatalf("bad payload: %+v", out)
	}

	// Phase 0: the receiver absorbs the payload and becomes informed.
	out = step(2, 3, []simnet.Message{{From: 1, To: 2, Kind: KindPayload, A: 1}}, rng.New(3))
	if st.of[2] != 1 {
		t.Fatal("payload did not inform the receiver")
	}
	if len(out) != 2 { // one offer + one request scattered
		t.Fatalf("scatter emitted %d messages, want 2", len(out))
	}
}

func TestRunLiveShardedBitIdentity(t *testing.T) {
	// The sharded engine's headline property, at spread scale: 10k peers,
	// full handshake protocol, identical results for every shard count.
	run := func(shards int) LiveResult {
		res, err := RunLive(
			LiveConfig{Profile: bandwidth.Homogeneous(10_000, 1)},
			LiveOptions{Seed: 17, Shards: shards},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if !ref.Completed {
		t.Fatalf("sharded spread incomplete after %d dating rounds", ref.Rounds)
	}
	for _, shards := range []int{2, 8} {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Fatalf("shards=%d diverged from shards=1: %d vs %d dating rounds, history %v vs %v",
				shards, got.Rounds, ref.Rounds, got.History, ref.History)
		}
	}
}

func TestRunLiveEnginesAgree(t *testing.T) {
	// The goroutine engine, the test oracle, and the sharded runtime share
	// per-step stream derivation and must give exactly the same result
	// under the perfect-sync model. n = 17 and 1000 at the seed-compat
	// golden's seed are the facade's golden cells.
	for _, tc := range []struct {
		n    int
		seed uint64
	}{
		{1500, 23},
		{17, run.SeedFor(0xC0FFEE, run.DomainLive)},
		{1000, run.SeedFor(0xC0FFEE, run.DomainLive)},
	} {
		cfg := LiveConfig{Profile: bandwidth.Homogeneous(tc.n, 1)}
		ref, err := runLive(cfg, LiveOptions{Seed: tc.seed}, oracleClock)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Completed {
			t.Fatalf("n=%d: spread incomplete after %d dating rounds", tc.n, ref.Rounds)
		}
		for _, shards := range []int{1, 4} {
			res, err := RunLive(cfg, LiveOptions{Seed: tc.seed, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("n=%d shards=%d diverged from the goroutine engine: history %v vs %v",
					tc.n, shards, res.History, ref.History)
			}
		}
	}
}

func TestRunLiveNetModelSensitivity(t *testing.T) {
	// Latency and loss must slow spreading down, never speed it up, and the
	// protocol must still complete under moderate degradation.
	run := func(net live.NetModel) LiveResult {
		res, err := RunLive(
			LiveConfig{Profile: bandwidth.Homogeneous(2000, 1)},
			LiveOptions{Seed: 29, Shards: 2, Net: net},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sync := run(nil)
	if !sync.Completed {
		t.Fatal("sync run incomplete")
	}
	for name, net := range map[string]live.NetModel{
		"latency2": live.FixedLatency{Rounds: 2},
		"geom":     live.GeomLatency{P: 0.5, Cap: 6},
		"loss20":   live.Loss{P: 0.2},
		"churn":    live.EpochChurn{Seed: 3, Epoch: 6, DownFrac: 0.2},
	} {
		res := run(net)
		if !res.Completed {
			t.Fatalf("%s: incomplete after %d dating rounds", name, res.Rounds)
		}
		if res.Rounds < sync.Rounds {
			t.Fatalf("%s: degraded network spread FASTER (%d vs %d dating rounds)",
				name, res.Rounds, sync.Rounds)
		}
	}
}

func TestRunLiveShardedOverlap(t *testing.T) {
	// Overlapping sharded spreading runs must not interfere (each runtime
	// and peer-state is private); -race builds make this a real check.
	var wg sync.WaitGroup
	results := make([]LiveResult, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunLive(
				LiveConfig{Profile: bandwidth.Homogeneous(800, 1)},
				LiveOptions{Seed: 37, Shards: 3},
			)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("overlapping run %d diverged", i)
		}
	}
}
