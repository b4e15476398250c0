package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/stats"
)

// TestSpecTableIdentity is the identity matrix over the spec table: every
// protocol, at a small n, completes and reports the same row (digest,
// rounds, messages, loads) whatever the worker budget and whether or not an
// observer is attached. Only the timing column, the row's last, may differ.
// Every row registers a track, so an observed run's Metrics holds at least
// one span.
func TestSpecTableIdentity(t *testing.T) {
	if got := len(protocolSpecs); got != 9 {
		t.Fatalf("spec table has %d rows, the repository has 9 protocols", got)
	}
	const n, seed = 300, 42
	for _, ps := range protocolSpecs {
		t.Run(ps.name, func(t *testing.T) {
			var ref []stats.Cell
			for _, workers := range []int{1, 2, 4} {
				for _, observer := range []*obs.Observer{nil, obs.NewObserver()} {
					rep, err := ps.execute(n, seed, workers, observer)
					if err != nil {
						t.Fatalf("workers=%d observed=%v: %v", workers, observer != nil, err)
					}
					if observer != nil && !hasSpan(rep.Metrics) {
						t.Errorf("workers=%d: the observed run's metrics hold no span: %+v", workers, rep.Metrics)
					}
					row := protocolRow(n, rep)
					row = row[:len(row)-1]
					if ref == nil {
						if row[0].Text != ps.name || row[3].Text != "true" || row[2].Num == 0 || len(row[6].Text) != 16 {
							t.Fatalf("degenerate reference row %v", row)
						}
						ref = row
					} else if !slices.Equal(row, ref) {
						t.Errorf("workers=%d observed=%v:\n got %v\nwant %v", workers, observer != nil, row, ref)
					}
				}
			}
		})
	}
}

// hasSpan reports whether m holds at least one recorded span.
func hasSpan(m *obs.Metrics) bool {
	if m == nil {
		return false
	}
	for _, p := range m.Phases {
		if p.Spans > 0 {
			return true
		}
	}
	return false
}

// TestTrajectoriesMonotone runs every row of the spec table once at n = 300
// and checks the invariant each row's Trajectory carries by definition:
// it counts something that only grows — informed peers (rumor, live,
// async), known (node, rumor) pairs (multirumor), decoded nodes (monger),
// placed replicas (storage), the running total of dates (handshake),
// informed peers as spreaders plus stiflers (topology) and peers holding
// any variant (consensus) — so it never decreases. No row is excluded.
// Topology's stiflers never revert either, so its StiflerHist never falls.
func TestTrajectoriesMonotone(t *testing.T) {
	const n, seed = 300, 42
	for _, ps := range protocolSpecs {
		spec, err := ps.build(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := run.Run(spec, run.WithSeed(seed), run.WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: %v", ps.name, err)
		}
		if len(rep.Trajectory) == 0 {
			t.Fatalf("%s: empty trajectory", ps.name)
		}
		checkMonotone(t, ps.name+" trajectory", rep.Trajectory)
		if ps.name == "topology" {
			det, ok := rep.Detail.(gossip.TopologyResult)
			if !ok || len(det.StiflerHist) != len(rep.Trajectory) || det.StiflerHist[len(det.StiflerHist)-1] == 0 {
				t.Fatalf("topology: no stifler history in %T", rep.Detail)
			}
			checkMonotone(t, "topology stiflers", det.StiflerHist)
		}
	}
}

// checkMonotone fails if hist ever decreases.
func checkMonotone(t *testing.T, what string, hist []int) {
	t.Helper()
	for r := 1; r < len(hist); r++ {
		if hist[r] < hist[r-1] {
			t.Errorf("%s fell from %d to %d in round %d", what, hist[r-1], hist[r], r+1)
			return
		}
	}
}

// TestSeedCompatDigests100k pins the four message-runtime rows of the spec
// table at n = 100 000, seed 42, byte for byte. The values are the
// trajectory and share digests of the four committed 100k bench files that
// PR 24 deleted, re-run at that PR's parent commit; they also fix how those
// four rows are configured. Live, topology and consensus were repinned when
// the round runtime began seeding every peer-step's stream from (round,
// peer) instead of keeping a generator per peer.
func TestSeedCompatDigests100k(t *testing.T) {
	if testing.Short() {
		t.Skip("four full spreads at n = 100 000")
	}
	for name, want := range map[string]string{
		"live":      "3c60b603b2324bf4",
		"async":     "0e94edbc6501af41",
		"topology":  "5dfae819fd079a53",
		"consensus": "dcc05d4635c86d3e",
	} {
		tbl, err := RunProtocol(name, 100_000, 42, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Col("digest")[0].Text; got != want {
			t.Errorf("%s: digest %s, pinned %s", name, got, want)
		}
	}
}

func TestRunProtocolRejects(t *testing.T) {
	if _, err := RunProtocol("nope", 100, 1, 1, nil); err == nil || !strings.Contains(err.Error(), "consensus") {
		t.Errorf("unknown protocol: got %v, want an error naming the valid ones", err)
	}
	for _, n := range []int{0, -5} {
		if _, err := RunProtocol("live", n, 1, 1, nil); err == nil {
			t.Errorf("accepted n = %d", n)
		}
	}
	// A peer count the row's graph generator cannot hold is the generator's
	// error, passed up.
	if _, err := RunProtocol("topology", 3, 1, 1, nil); err == nil {
		t.Error("accepted a 3-peer Barabási–Albert graph with m = 3")
	}
}
