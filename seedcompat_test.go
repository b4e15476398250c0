package repro

// Seed-compatibility golden tests for the unified runner: for every
// protocol, Run(spec, WithSeed(s)) is pinned bit-for-bit by an FNV-1a hash
// over the unified report, and must be bit-identical across worker budgets
// — the whole point of the seed-first API is that *no* option other than
// the seed can move a number. The hashes were captured from the pre-exch-kernel
// implementation, so they also pin the refactored engine, the Arranger and
// the live runtime against their historical output. The tests run each
// protocol at n = 17 (degenerate small networks exercise every edge path)
// and n = 1000, and TestSeedCompatDigests100k pins the four message-runtime
// specs of internal/sim's spec table at n = 100 000.

import (
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/gossip"
	"repro/internal/run"
)

const compatSeed = 0xC0FFEE

// hashReport digests the option-independent fields of a unified report:
// every int64 is folded little-endian, with -1 sentinels separating the
// variable-length histories.
func hashReport(r Report) uint64 {
	h := fnv.New64a()
	w := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			u := uint64(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	w(int64(r.Rounds))
	if r.Completed {
		w(1)
	} else {
		w(0)
	}
	for _, v := range r.Trajectory {
		w(int64(v))
	}
	w(-1)
	for _, v := range r.Sent {
		w(int64(v))
	}
	w(-1)
	w(r.Messages, int64(r.MaxInLoad), int64(r.MaxOutLoad))
	// A consensus trajectory counts decided peers only; which variant each
	// of them holds is in the per-round share history.
	if det, ok := r.Detail.(ConsensusResult); ok {
		for _, shares := range det.ShareHist {
			for _, v := range shares {
				w(int64(v))
			}
			w(-1)
		}
	}
	return h.Sum64()
}

// compatBA is the contact graph of the topology and consensus cases.
func compatBA(n int) *Graph {
	g, err := BarabasiAlbertGraph(n, 3, compatSeed)
	if err != nil {
		panic(err)
	}
	return g
}

// compatCase pins one (spec, n) cell of the golden table.
type compatCase struct {
	name string
	spec func(n int) Spec
	want map[int]uint64 // n -> hash at seed compatSeed
}

var compatCases = []compatCase{
	{
		name: "rumor-dating",
		spec: func(n int) Spec { return RumorConfig{Algorithm: Dating, N: n} },
		want: map[int]uint64{17: 0x81a18fe81c453882, 1000: 0x0c18d17057c33cd1},
	},
	{
		name: "rumor-push",
		spec: func(n int) Spec { return RumorConfig{Algorithm: Push, N: n} },
		want: map[int]uint64{17: 0x7ffbbd51787521f7, 1000: 0x2cba44f09be18d5d},
	},
	{
		name: "multirumor",
		spec: func(n int) Spec {
			return MultiRumorConfig{N: n, Injections: []Injection{
				{Round: 1, Source: 0}, {Round: 3, Source: n / 2}, {Round: 4, Source: n - 1},
			}}
		},
		want: map[int]uint64{17: 0xe0265eec2480d7b9, 1000: 0xccaa468b226a831d},
	},
	{
		name: "monger",
		spec: func(n int) Spec { return MongerConfig{N: n, Blocks: 4, BlockSize: 16, PayloadSeed: 9} },
		want: map[int]uint64{17: 0x78c89cb84e8c8ad1, 1000: 0x99e234d3ba2e5a2e},
	},
	{
		name: "storage",
		spec: func(n int) Spec { return StorageConfig{N: n, ObjectsPerNode: 1, Replicas: 2, SlotsPerNode: 4} },
		want: map[int]uint64{17: 0xcfb34c8c73339eea, 1000: 0x917cb681c47bb1ba},
	},
	{
		name: "live",
		spec: func(n int) Spec { return LiveConfig{Profile: UnitBandwidth(n)} },
		want: map[int]uint64{17: 0xd291b1c4c29d79ec, 1000: 0xf86e45920fbc0b64},
	},
	{
		// Repinned when the handshake moved onto the sharded runtime (its
		// per-peer streams became the runtime's, and it reports MaxInLoad),
		// and again, with live, topology and consensus, when the round
		// runtime stopped keeping a generator per peer: every peer-step
		// draws from a stream seeded live.PeerSeed(seed, round, peer).
		name: "handshake",
		spec: func(n int) Spec { return HandshakeConfig{Profile: UnitBandwidth(n), Rounds: 6} },
		want: map[int]uint64{17: 0x580c02a884ca42cf, 1000: 0xb953304fb5cf3358},
	},
	// The three specs below were pinned at PR 24's parent commit, when the
	// files that held their only digests were deleted.
	{
		name: "async",
		spec: func(n int) Spec { return AsyncConfig{Profile: UnitBandwidth(n)} },
		want: map[int]uint64{17: 0x58115ee62e50b6e1, 1000: 0xb1bf882b7331b718},
	},
	{
		name: "topology",
		spec: func(n int) Spec { return TopologyConfig{Graph: compatBA(n), Source: 0, Alpha: 0.25} },
		want: map[int]uint64{17: 0xf2185ee74024ef7b, 1000: 0x759379d17b408af0},
	},
	{
		name: "consensus",
		spec: func(n int) Spec {
			return ConsensusConfig{Variants: 3, Graph: compatBA(n), Seeding: ConsensusSeedDistinct, Rule: ConsensusRuleLatest}
		},
		want: map[int]uint64{17: 0x848ee84982ef3167, 1000: 0x15fc710fc3959da3},
	},
}

// stripTiming clears the fields that legitimately vary between identical
// runs (wall clock, requested budget), so reports can be DeepEqual-ed.
func stripTiming(r Report) Report {
	r.Wall = 0
	r.Workers = 0
	return r
}

func TestSeedCompatGoldens(t *testing.T) {
	// The golden table itself, plus the option-invariance sweep: worker
	// budgets 1/2/8 must all hash to the pinned value — they are pure speed
	// knobs.
	for _, tc := range compatCases {
		t.Run(tc.name, func(t *testing.T) {
			for n, want := range tc.want {
				var ref Report
				first := true
				for _, w := range []int{1, 2, 8} {
					rep, err := Run(tc.spec(n), WithSeed(compatSeed), WithWorkers(w))
					if err != nil {
						t.Fatalf("n=%d workers=%d: %v", n, w, err)
					}
					if got := hashReport(rep); got != want {
						t.Fatalf("n=%d workers=%d: report hash %#016x, pinned %#016x", n, w, got, want)
					}
					if first {
						ref, first = rep, false
						continue
					}
					if !reflect.DeepEqual(stripTiming(rep), stripTiming(ref)) {
						t.Fatalf("n=%d workers=%d: report differs beyond the hashed fields", n, w)
					}
				}
			}
		})
	}
}

func TestSeedCompatLiveEngines(t *testing.T) {
	// The engine must be invisible too. The facade's live report at the
	// golden seed is exactly the sharded runtime's at the derived seed, at
	// every shard count; gossip's TestRunLiveEnginesAgree pins that runtime
	// to the goroutine engine, the test oracle, at these very n and seed.
	for _, n := range []int{17, 1000} {
		cfg := LiveConfig{Profile: UnitBandwidth(n)}
		rep, err := Run(cfg, WithSeed(compatSeed))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			want, err := gossip.RunLive(cfg, gossip.LiveOptions{
				Seed: run.SeedFor(compatSeed, run.DomainLive), Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Detail, want) {
				t.Fatalf("n=%d shards=%d: facade report differs from the runtime's", n, shards)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Error("accepted a nil spec")
	}
	if _, err := Run(RumorConfig{N: 64, Algorithm: Dating}, WithWorkers(0)); err == nil {
		t.Error("accepted a zero worker budget")
	}
	if _, err := Run(RumorConfig{}); err == nil {
		t.Error("accepted an empty rumor config")
	}
}
