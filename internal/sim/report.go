package sim

// This file is the Report-consuming side of the unified runner: the spec
// table holding every protocol of the repository as a function of (n, seed),
// the digest that witnesses a run's bits, and the two ways to execute the
// table through run.Run — the "protocols" registry experiment (every row)
// and RunProtocol (one row, at any n).

import (
	"fmt"
	"strings"

	"repro/internal/bandwidth"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/storage"
)

// TrajectoryDigest folds a run's trajectory into an FNV-1a 64 hex digest.
// The trajectory is the deterministic heart of a report — a pure function of
// (spec, seed), independent of workers, engine and observers —
// so the digest is a compact bit-identity witness: two runs agree on it iff
// they spread identically round for round. The benchmark compares it across
// shard counts, and the spec-table tests across workers and observers.
func TrajectoryDigest(traj []int) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range traj {
		x := uint64(int64(v))
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime
		}
	}
	return fmt.Sprintf("%016x", h)
}

// reportDigest is the digest column of the protocols table. A consensus
// trajectory counts decided peers and does not say which variant each of
// them holds, so that row digests the per-round variant shares, round-major.
func reportDigest(rep run.Report) string {
	det, ok := rep.Detail.(gossip.ConsensusResult)
	if !ok {
		return TrajectoryDigest(rep.Trajectory)
	}
	var flat []int
	for _, shares := range det.ShareHist {
		flat = append(flat, shares...)
	}
	return TrajectoryDigest(flat)
}

// protocolSpec is one row of the spec table.
type protocolSpec struct {
	name  string
	build func(n int, seed uint64) (run.Spec, error)
}

// protocolSpecs is the spec table: every protocol config of the repository
// at n peers, named by its Protocol(). The seed reaches only what a spec
// builds before the run starts (the contact graph, the monger payload).
var protocolSpecs = []protocolSpec{
	{"rumor", func(n int, _ uint64) (run.Spec, error) {
		return gossip.Config{Algorithm: gossip.Dating, N: n}, nil
	}},
	{"multirumor", func(n int, _ uint64) (run.Spec, error) {
		return gossip.MultiRumorConfig{N: n, Injections: []gossip.Injection{
			{Round: 1, Source: 0}, {Round: 3, Source: n / 3}, {Round: 5, Source: 2 * n / 3},
		}}, nil
	}},
	{"live", func(n int, _ uint64) (run.Spec, error) {
		return gossip.LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}, nil
	}},
	{"monger", func(n int, seed uint64) (run.Spec, error) {
		return coding.MongerConfig{N: n, Blocks: 8, BlockSize: 32, PayloadSeed: seed}, nil
	}},
	{"storage", func(n int, _ uint64) (run.Spec, error) {
		return storage.Config{N: n, ObjectsPerNode: 2, Replicas: 3, SlotsPerNode: 12, RoundCap: 2}, nil
	}},
	{"handshake", func(n int, _ uint64) (run.Spec, error) {
		return core.HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Rounds: 10}, nil
	}},
	{"async", func(n int, _ uint64) (run.Spec, error) {
		return gossip.AsyncConfig{Profile: bandwidth.Homogeneous(n, 1)}, nil
	}},
	{"topology", func(n int, seed uint64) (run.Spec, error) {
		g, err := graph.BarabasiAlbert(n, 3, seed)
		return gossip.TopologyConfig{Graph: g, Source: 0, Alpha: 0.25}, err
	}},
	// The latest rule floods to threshold on any connected graph, so this
	// row always completes; majority can ossify on a sparse one.
	{"consensus", func(n int, seed uint64) (run.Spec, error) {
		g, err := graph.BarabasiAlbert(n, 3, seed)
		return gossip.ConsensusConfig{Variants: 3, Graph: g, Seeding: gossip.SeedDistinct, Rule: gossip.RuleLatest}, err
	}},
}

// ProtocolNames lists the rows of the spec table in table order.
func ProtocolNames() []string {
	names := make([]string, len(protocolSpecs))
	for i, ps := range protocolSpecs {
		names[i] = ps.name
	}
	return names
}

// ProtocolsRow is one protocol's unified report in the protocols table.
// Everything but Seconds is a pure function of (protocol, n, seed).
type ProtocolsRow struct {
	Protocol   string
	N          int
	Rounds     int
	Completed  bool
	Messages   int64
	MaxInLoad  int
	MaxOutLoad int
	Digest     string
	Seconds    float64
}

// ProtocolsResult is rows of the spec table executed through run.Run with
// one root seed and worker budget, reported in the one Report shape.
type ProtocolsResult struct {
	Seed    uint64
	Workers int
	Rows    []ProtocolsRow
}

// Table renders the rows; only the timing column varies run to run.
func (r ProtocolsResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Unified runner — run.Run(spec, WithSeed(%d), WithWorkers(%d))", r.Seed, r.Workers),
		"protocol", "n", "rounds", "completed", "messages", "max in/out load", "digest", "seconds")
	for _, row := range r.Rows {
		loads := "—"
		if row.MaxInLoad > 0 || row.MaxOutLoad > 0 {
			loads = fmt.Sprintf("%d/%d", row.MaxInLoad, row.MaxOutLoad)
		}
		t.AddRow(
			row.Protocol,
			fmt.Sprint(row.N),
			fmt.Sprint(row.Rounds),
			fmt.Sprint(row.Completed),
			fmt.Sprint(row.Messages),
			loads,
			row.Digest,
			fmt.Sprintf("%.3f", row.Seconds),
		)
	}
	return t
}

// execute builds the row's spec at n peers and executes it once through
// run.Run, with the observer (nil for none) attached. A spec the protocol
// rejects and a run that does not complete are errors.
func (ps protocolSpec) execute(n int, seed uint64, workers int, observer *obs.Observer) (ProtocolsRow, error) {
	spec, err := ps.build(n, seed)
	if err != nil {
		return ProtocolsRow{}, fmt.Errorf("sim: protocol %s: %w", ps.name, err)
	}
	rep, err := run.Run(spec, run.WithSeed(seed), run.WithWorkers(workers), run.WithObserver(observer))
	if err != nil {
		return ProtocolsRow{}, fmt.Errorf("sim: protocol %s: %w", ps.name, err)
	}
	if !rep.Completed {
		return ProtocolsRow{}, fmt.Errorf("sim: protocol %s incomplete after %d rounds", ps.name, rep.Rounds)
	}
	return ProtocolsRow{
		Protocol:   rep.Protocol,
		N:          n,
		Rounds:     rep.Rounds,
		Completed:  rep.Completed,
		Messages:   rep.Messages,
		MaxInLoad:  rep.MaxInLoad,
		MaxOutLoad: rep.MaxOutLoad,
		Digest:     reportDigest(rep),
		Seconds:    rep.Wall.Seconds(),
	}, nil
}

// RunProtocol executes one row of the spec table at n peers, with the
// observer (nil for none) attached to that run alone: the way to trace or
// profile one big run.
func RunProtocol(name string, n int, seed uint64, workers int, observer *obs.Observer) (ProtocolsResult, error) {
	if n < 1 {
		return ProtocolsResult{}, fmt.Errorf("sim: protocol %s needs a positive n, got %d", name, n)
	}
	for _, ps := range protocolSpecs {
		if ps.name != name {
			continue
		}
		row, err := ps.execute(n, seed, workers, observer)
		if err != nil {
			return ProtocolsResult{}, err
		}
		return ProtocolsResult{Seed: seed, Workers: workers, Rows: []ProtocolsRow{row}}, nil
	}
	return ProtocolsResult{}, fmt.Errorf("sim: unknown protocol %q (want one of %s)", name, strings.Join(ProtocolNames(), ", "))
}

// RunProtocols is the registry entry point for the unified-runner sweep:
// every row of the spec table once, sharing a root seed and a worker
// budget. Everything but the timing column is deterministic, and the budget
// is a pure speed knob.
func RunProtocols(scale Scale, seed uint64, workers int, o *obs.Observer) (ProtocolsResult, error) {
	n := 256
	if scale == ScalePaper {
		n = 4096
	}
	res := ProtocolsResult{Seed: seed, Workers: workers}
	for _, ps := range protocolSpecs {
		row, err := ps.execute(n, seed, workers, o)
		if err != nil {
			return ProtocolsResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
