package live

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/shardrt"
	"repro/internal/simnet"
)

func TestRingLatencyDistanceAsymmetry(t *testing.T) {
	// Four peers pinned on the ring: 0 and 1 adjacent, 2 near the far side,
	// 3 just past the antipode of 0 (arc measured the short way around).
	pos := []float64{0.00, 0.05, 0.45, 0.60}
	m := RingLatency{Pos: pos, Scale: 8, Max: 4}

	msg := func(from, to int) simnet.Message { return simnet.Message{From: from, To: to} }
	if d := m.Plan(0, msg(0, 1), nil); d != 1 {
		t.Fatalf("adjacent peers: delay %d, want 1 (sync rate)", d)
	}
	if near, far := m.Plan(0, msg(0, 1), nil), m.Plan(0, msg(0, 2), nil); far <= near {
		t.Fatalf("far pair (%d) not slower than near pair (%d)", far, near)
	}
	// Clamping: arc 0.45 * scale 8 = 3.6 -> 1+3 = 4; arc 0.40 (0->3 short
	// way) * 8 = 3.2 -> 1+3 = 4, both at the cap.
	if d := m.Plan(0, msg(0, 2), nil); d != m.Max {
		t.Fatalf("near-antipodal delay %d, want the cap %d", d, m.Max)
	}
	// Symmetry of the arc itself: i->j and j->i ride the same distance.
	if m.Plan(0, msg(2, 0), nil) != m.Plan(0, msg(0, 2), nil) {
		t.Fatal("arc distance is direction-dependent")
	}
	// The short arc is used: 0 -> 3 is 0.40 around the short way, not 0.60.
	if d := m.Plan(0, msg(0, 3), nil); d != 4 {
		t.Fatalf("short-arc delay %d, want 4 (arc 0.40 at scale 8)", d)
	}
	if m.Random() {
		t.Fatal("RingLatency claims to draw randomness")
	}
}

func TestUniformRingDeterministic(t *testing.T) {
	a := UniformRing(100, 7)
	b := UniformRing(100, 7)
	c := UniformRing(100, 8)
	if len(a) != 100 {
		t.Fatalf("got %d positions", len(a))
	}
	distinct := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("UniformRing is not a pure function of (n, seed)")
		}
		if a[i] < 0 || a[i] >= 1 {
			t.Fatalf("position %v outside [0, 1)", a[i])
		}
		if a[i] != c[i] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("different seeds produced the identical embedding")
	}
}

func TestRingLatencySlowsSpread(t *testing.T) {
	// A full chatter run under ring latency must deliver everything it
	// sends (latency never drops), just later; and the per-pair asymmetry
	// must actually bite: with scale 8 over a 1/2-max arc some messages
	// take multiple rounds, so fewer arrive within the horizon than under
	// sync even though none are lost.
	const n, rounds = 400, 10
	run := func(net NetModel) (stats simnet.Stats, recv int64) {
		st := newChatter(n, 2)
		rt, err := New(Config{N: n, Seed: 3, Step: st.step, Shards: 2, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		stats = rt.Run(rounds)
		for _, r := range st.recv {
			recv += int64(r)
		}
		return stats, recv
	}
	syncStats, syncRecv := run(nil)
	ringStats, ringRecv := run(RingLatency{Pos: UniformRing(n, 5), Scale: 8, Max: 6})
	if syncStats.Sent == 0 || ringStats.Sent == 0 {
		t.Fatal("no traffic")
	}
	if ringRecv >= syncRecv {
		t.Fatalf("ring latency did not defer deliveries: %d received vs %d under sync", ringRecv, syncRecv)
	}
	// Latency is not loss: the model never drops a message (the undelivered
	// remainder is still in flight in the delivery ring).
	if ringStats.Dropped != syncStats.Dropped {
		t.Fatalf("ring latency dropped messages: %d vs %d under sync", ringStats.Dropped, syncStats.Dropped)
	}
}

// FuzzNetModelPlan holds every model New admits — validateNet accepts it
// and its ring fits shardrt.MaxRing — to the NetModel contract: Plan
// returns Drop or a delay in [1, MaxDelay()], and a model that is not
// Random draws nothing (it is called with a nil stream). kind picks the
// base model (FixedLatency, GeomLatency, RingLatency over two peers at
// positions pf and pt, Sync) and wrap puts it under Loss, EpochChurn, or
// EpochChurn over Loss; k is the base's delay parameter, p its probability
// or scale, q the wrapper's drop probability or down fraction.
func FuzzNetModelPlan(f *testing.F) {
	f.Add(uint8(0), uint8(0), 3, 0.0, 0.0, 0.0, 0.0, 1, uint64(0), uint32(0), false)
	f.Add(uint8(1), uint8(1), 9, 0.3, 0.2, 0.0, 0.0, 1, uint64(0), uint32(5), false)
	f.Add(uint8(2), uint8(2), 4, 8.0, 0.5, 0.05, 0.6, 3, uint64(7), uint32(11), true)
	f.Add(uint8(3), uint8(3), 1, 0.0, 0.9, 0.0, 0.0, 2, uint64(1), uint32(4), false)
	f.Fuzz(func(t *testing.T, kind, wrap uint8, k int, p, q, pf, pt float64, epoch int, seed uint64, round uint32, swap bool) {
		var net NetModel
		switch kind % 4 {
		case 0:
			net = FixedLatency{Rounds: k}
		case 1:
			net = GeomLatency{P: p, Cap: k}
		case 2:
			net = RingLatency{Pos: []float64{pf, pt}, Scale: p, Max: k}
		default:
			net = Sync{}
		}
		switch wrap % 4 {
		case 1:
			net = Loss{P: q, Under: net}
		case 2:
			net = EpochChurn{Seed: seed, Epoch: epoch, DownFrac: q, Under: net}
		case 3:
			net = EpochChurn{Seed: seed, Epoch: epoch, DownFrac: q, Under: Loss{P: q, Under: net}}
		}
		if validateNet(net, 2) != nil || net.MaxDelay() >= shardrt.MaxRing {
			return
		}
		m := simnet.Message{From: 0, To: 1}
		if swap {
			m.From, m.To = 1, 0
		}
		var s *rng.Stream
		if net.Random() {
			s = rng.New(seed)
		}
		for r := int(round); r < int(round)+4; r++ {
			if d := net.Plan(r, m, s); d != Drop && (d < 1 || d > net.MaxDelay()) {
				t.Fatalf("%#v: Plan(%d) = %d, want Drop or a delay in [1, %d]", net, r, d, net.MaxDelay())
			}
		}
	})
}
