package sim

// This file is the Report-consuming side of the unified runner: the spec
// table holding every protocol of the repository as a function of (n, seed),
// the digest that witnesses a run's bits, and RunProtocol, which executes
// one row of the table through run.Run at any n.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bandwidth"
	"repro/internal/coding"
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

// reportDigest is the digest column of the protocol table. A consensus
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
		return gossip.HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Rounds: 10}, nil
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

// protocolRow is rep's row of the protocol table at n peers. Everything
// but the last column, the run's seconds, is a pure function of
// (protocol, n, seed).
func protocolRow(n int, rep run.Report) []stats.Cell {
	loads := "—"
	if rep.MaxInLoad > 0 || rep.MaxOutLoad > 0 {
		loads = fmt.Sprintf("%d/%d", rep.MaxInLoad, rep.MaxOutLoad)
	}
	return []stats.Cell{stats.Label(rep.Protocol), stats.Int(n), stats.Int(rep.Rounds),
		stats.Label(strconv.FormatBool(rep.Completed)), stats.Int(rep.Messages), stats.Label(loads),
		stats.Label(reportDigest(rep)), stats.Num("%.3f", rep.Wall.Seconds())}
}

// execute builds the row's spec at n peers and executes it once through
// run.Run, with the observer (nil for none) attached. A spec the protocol
// rejects and a run that does not complete are errors.
func (ps protocolSpec) execute(n int, seed uint64, workers int, observer *obs.Observer) (run.Report, error) {
	spec, err := ps.build(n, seed)
	if err != nil {
		return run.Report{}, fmt.Errorf("sim: protocol %s: %w", ps.name, err)
	}
	rep, err := run.Run(spec, run.WithSeed(seed), run.WithWorkers(workers), run.WithObserver(observer))
	if err != nil {
		return run.Report{}, fmt.Errorf("sim: protocol %s: %w", ps.name, err)
	}
	if !rep.Completed {
		return run.Report{}, fmt.Errorf("sim: protocol %s incomplete after %d rounds", ps.name, rep.Rounds)
	}
	return rep, nil
}

// RunProtocol executes one row of the spec table at n peers, with the
// observer (nil for none) attached to that run alone, and tables it: the
// way to trace or profile one big run. Only the seconds column varies from
// run to run.
func RunProtocol(name string, n int, seed uint64, workers int, observer *obs.Observer) (*stats.Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: protocol %s needs a positive n, got %d", name, n)
	}
	for _, ps := range protocolSpecs {
		if ps.name != name {
			continue
		}
		rep, err := ps.execute(n, seed, workers, observer)
		if err != nil {
			return nil, err
		}
		return table(fmt.Sprintf("Unified runner — run.Run(spec, WithSeed(%d), WithWorkers(%d))", seed, workers),
			[]string{"protocol", "n", "rounds", "completed", "messages", "max in/out load", "digest", "seconds"},
			[][]stats.Cell{protocolRow(n, rep)}), nil
	}
	return nil, fmt.Errorf("sim: unknown protocol %q (want one of %s)", name, strings.Join(ProtocolNames(), ", "))
}
