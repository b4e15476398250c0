package gossip

// Instrumentation-identity tests: attaching an observer is read-only, so an
// instrumented run must be bit-identical to an uninstrumented one — for the
// sharded live runtime, the clockless async runtime and the dating round
// loop, at multiple shard counts. These are the in-process counterparts of
// the spec-table matrix in internal/sim and the hetsim -trace test.

import (
	"reflect"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

func TestLiveObserverIdentity(t *testing.T) {
	cfg := LiveConfig{Profile: bandwidth.Homogeneous(600, 1)}
	for _, shards := range []int{1, 4} {
		plain, err := runLive(cfg, liveOptions{Seed: 7, Shards: shards}, roundClock)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewObserver()
		traced, err := runLive(cfg, liveOptions{Seed: 7, Shards: shards, Obs: o}, roundClock)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("shards=%d: instrumented run differs:\nplain  %+v\ntraced %+v", shards, plain, traced)
		}
		m := o.Metrics()
		if m == nil || len(m.Phases) == 0 || len(m.Gauges) == 0 {
			t.Fatalf("shards=%d: observer recorded nothing: %+v", shards, m)
		}
		assertPhases(t, m, "live", "deliver", "step", "route")
		assertGaugeShards(t, m, shards)
	}
}

func TestAsyncObserverIdentity(t *testing.T) {
	cfg := AsyncConfig{Profile: bandwidth.Homogeneous(600, 1)}
	for _, shards := range []int{1, 4} {
		plain, err := runAsync(cfg, liveOptions{Seed: 7, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewObserver()
		traced, err := runAsync(cfg, liveOptions{Seed: 7, Shards: shards, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("shards=%d: instrumented run differs:\nplain  %+v\ntraced %+v", shards, plain, traced)
		}
		m := o.Metrics()
		if m == nil || len(m.Phases) == 0 || len(m.Gauges) == 0 {
			t.Fatalf("shards=%d: observer recorded nothing: %+v", shards, m)
		}
		assertPhases(t, m, "async", "deliver", "step", "route")
		if !hasGauge(m, "fired") || !hasGauge(m, "calendar_depth") {
			t.Fatalf("shards=%d: async gauges missing: %+v", shards, m.Gauges)
		}
	}
}

func TestDatingObserverIdentity(t *testing.T) {
	cfg := Config{Algorithm: Dating, N: 1024}
	b, err := par.NewBudget(4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := spread(cfg, rng.New(11), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	b2, _ := par.NewBudget(4)
	traced, err := spread(cfg, rng.New(11), b2, o.Track("rumor", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("instrumented run differs:\nplain  %+v\ntraced %+v", plain, traced)
	}
	m := o.Metrics()
	if m == nil {
		t.Fatal("observer recorded nothing")
	}
	assertPhases(t, m, "rumor", "round")
	if !hasGauge(m, "budget_in_flight") || !hasGauge(m, "sent") {
		t.Fatalf("dating gauges missing: %+v", m.Gauges)
	}
	// One sent sample per round, and the samples sum to the traffic the
	// result reports — the gauge mirrors the run, it does not resample it.
	for _, g := range m.Gauges {
		if g.Name == "sent" && g.Samples != plain.Rounds {
			t.Fatalf("%d sent samples for %d rounds", g.Samples, plain.Rounds)
		}
	}
}

// assertPhases checks the metrics carry exactly the given phases for track.
func assertPhases(t *testing.T, m *obs.Metrics, track string, phases ...string) {
	t.Helper()
	got := map[string]bool{}
	for _, p := range m.Phases {
		if p.Track == track {
			got[p.Phase] = true
		}
	}
	for _, want := range phases {
		if !got[want] {
			t.Fatalf("track %s missing phase %s (have %v)", track, want, got)
		}
	}
	if len(got) != len(phases) {
		t.Fatalf("track %s has extra phases: %v, want %v", track, got, phases)
	}
}

func hasGauge(m *obs.Metrics, name string) bool {
	for _, g := range m.Gauges {
		if g.Name == name {
			return true
		}
	}
	return false
}

// assertGaugeShards checks the traffic gauges exist and that every gauge
// sampled at least one round.
func assertGaugeShards(t *testing.T, m *obs.Metrics, shards int) {
	t.Helper()
	for _, want := range []string{"sent", "dropped", "clamped", "queue_depth", "scratch_bytes"} {
		if !hasGauge(m, want) {
			t.Fatalf("missing gauge %s (shards=%d): %+v", want, shards, m.Gauges)
		}
	}
	for _, g := range m.Gauges {
		if g.Samples == 0 {
			t.Fatalf("gauge %s has no samples", g.Name)
		}
	}
}
