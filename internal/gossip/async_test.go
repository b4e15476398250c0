package gossip

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/run"
)

func TestAsyncValidation(t *testing.T) {
	unit := bandwidth.Homogeneous(16, 1)
	sel, err := core.NewUniformSelector(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  AsyncConfig
		o    LiveOptions
		want string
	}{
		{AsyncConfig{}, LiveOptions{}, "profile"},
		{AsyncConfig{Profile: unit, Source: -1}, LiveOptions{}, "source"},
		{AsyncConfig{Profile: unit, Source: 16}, LiveOptions{}, "source"},
		{AsyncConfig{Profile: unit, Selector: sel}, LiveOptions{}, "selector"},
		{AsyncConfig{Profile: unit}, LiveOptions{Net: live.Loss{P: 0.1}}, "network model"},
	} {
		if _, err := RunAsync(tc.cfg, tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v %+v: error %v, want one naming %q", tc.cfg, tc.o, err, tc.want)
		}
	}
}

func TestAsyncSpreadCompletes(t *testing.T) {
	const n = 500
	res, err := RunAsync(AsyncConfig{Profile: bandwidth.Homogeneous(n, 1)}, LiveOptions{Seed: 11, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread incomplete after %d buckets", res.Rounds)
	}
	if len(res.History) != res.Rounds || len(res.SentHistory) != res.Rounds {
		t.Fatalf("history lengths %d/%d, want %d", len(res.History), len(res.SentHistory), res.Rounds)
	}
	prev := 1 // the source
	for b, count := range res.History {
		if count < prev {
			t.Fatalf("informed count shrank at bucket %d: %d -> %d", b, prev, count)
		}
		prev = count
	}
	if res.History[res.Rounds-1] != n {
		t.Fatalf("final informed count %d, want %d", res.History[res.Rounds-1], n)
	}
	if res.Fired == 0 || res.Traffic.Sent == 0 {
		t.Fatalf("no activity recorded: %+v", res)
	}
}

func TestAsyncShardBitIdentity(t *testing.T) {
	// The protocol-level determinism contract of the ISSUE: the full result —
	// spread curve, per-bucket traffic, firing count, completion time — is
	// bit-identical across shard counts {1, 2, 8}, on a genuinely
	// heterogeneous profile where firing rates differ per peer.
	const n = 2000
	prof, err := bandwidth.Zipf(n, 1.2, 8, 2.0, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	var ref AsyncResult
	for _, shards := range []int{1, 2, 8} {
		res, err := RunAsync(AsyncConfig{Profile: prof}, LiveOptions{Seed: 42, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("shards=%d: incomplete after %d buckets", shards, res.Rounds)
		}
		if shards == 1 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("shards=%d diverged from shards=1:\n  %+v\nvs %+v", shards, res, ref)
		}
	}
}

func TestAsyncBimodalShardIdentity(t *testing.T) {
	// Bimodal puts the rich tenth — and so most of the clock rate — in
	// front: the runtime's rate-cut step ranges then differ from its uniform
	// delivery ranges at every shard count, which the Zipf profile above
	// (rates scattered evenly over the ids) never makes them do. Trajectory
	// and per-bucket traffic must not notice.
	const n = 3000
	prof, err := bandwidth.Bimodal(n, n/10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ref AsyncResult
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := RunAsync(AsyncConfig{Profile: prof}, LiveOptions{Seed: 17, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("shards=%d: incomplete after %d buckets", shards, res.Rounds)
		}
		if shards == 1 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) { // History and SentHistory included
			t.Fatalf("shards=%d diverged from shards=1:\n  %+v\nvs %+v", shards, res, ref)
		}
	}
}

func TestAsyncRejectsWithNet(t *testing.T) {
	// The async runtime carries its own latency model (AsyncConfig.Latency);
	// a WithNet option would be silently dead, so Execute rejects it.
	cfg := AsyncConfig{Profile: bandwidth.Homogeneous(64, 1)}
	if _, err := run.Run(cfg, run.WithNet(live.FixedLatency{Rounds: 2})); err == nil {
		t.Error("accepted WithNet on the async protocol")
	}
	if _, err := run.Run(cfg, run.WithSeed(1), run.WithWorkers(2)); err != nil {
		t.Errorf("rejected a plain async run: %v", err)
	}
}

func TestAsyncViaRun(t *testing.T) {
	// The run.Spec plumbing: Report mirrors the AsyncResult, and the worker
	// knob is the shard count — a pure speed knob.
	const n = 800
	cfg := AsyncConfig{Profile: bandwidth.Homogeneous(n, 1)}
	rep1, err := run.Run(cfg, run.WithSeed(7), run.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := run.Run(cfg, run.WithSeed(7), run.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	// Wall and Workers echo run conditions; everything else must match.
	rep1.Wall, rep4.Wall = 0, 0
	rep1.Workers, rep4.Workers = 0, 0
	if !reflect.DeepEqual(rep1, rep4) {
		t.Fatal("worker count changed the async report")
	}
	if cfg.Protocol() != "async" {
		t.Fatalf("protocol name %q", cfg.Protocol())
	}
	detail, ok := rep1.Detail.(AsyncResult)
	if !ok {
		t.Fatalf("detail is %T, want AsyncResult", rep1.Detail)
	}
	if rep1.Rounds != detail.Rounds || !rep1.Completed || rep1.Messages != detail.Traffic.Sent {
		t.Fatalf("report fields diverge from detail:\n%+v\nvs %+v", rep1, detail)
	}
	if len(rep1.Trajectory) != detail.Rounds || rep1.Trajectory[len(rep1.Trajectory)-1] != n {
		t.Fatalf("trajectory %v does not end informed", rep1.Trajectory)
	}
}

func TestAsyncLatencySlowsSpread(t *testing.T) {
	// Physics check: tripling the message flight time (at the fixed unit
	// bucket width) can only slow the spread down.
	const n = 1000
	fast, err := RunAsync(AsyncConfig{Profile: bandwidth.Homogeneous(n, 1)}, LiveOptions{Seed: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunAsync(AsyncConfig{Profile: bandwidth.Homogeneous(n, 1), Latency: 3}, LiveOptions{Seed: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Completed || !slow.Completed {
		t.Fatalf("incomplete: fast=%v slow=%v", fast.Completed, slow.Completed)
	}
	if slow.Rounds <= fast.Rounds {
		t.Fatalf("latency 3 completed in %d buckets, latency 1 in %d — latency sped the spread up", slow.Rounds, fast.Rounds)
	}
}
