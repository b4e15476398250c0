package sim

import (
	"fmt"
	"strconv"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/run"
	"repro/internal/stats"
)

// liveModel pairs a sensitivity-table row label with its network model.
type liveModel struct {
	name string
	net  live.NetModel
}

// liveModels is the sensitivity axis at peer count n: the paper-faithful
// synchronous network, then progressively more hostile conditions. Spread
// time should degrade gracefully, never collapse — the protocol is
// oblivious, so no message is load-bearing. The ring-latency row is the
// NetModel-asymmetry example: per-pair latency proportional to ring
// distance over a DHT-style embedding of the n peers, so a request's
// flight time depends on which rendezvous it happens to land on.
func liveModels(seed uint64, n int) []liveModel {
	return []liveModel{
		{"sync", nil},
		{"latency-2", live.FixedLatency{Rounds: 2}},
		{"latency-4", live.FixedLatency{Rounds: 4}},
		{"geom-p0.5", live.GeomLatency{P: 0.5, Cap: 8}},
		{"ring-latency", live.RingLatency{Pos: live.UniformRing(n, seed+2), Scale: 8, Max: 5}},
		{"loss-1%", live.Loss{P: 0.01}},
		{"loss-10%", live.Loss{P: 0.10}},
		{"churn-10%", live.EpochChurn{Seed: seed + 1, Epoch: 6, DownFrac: 0.10}},
	}
}

// runLiveSensitivity is the registry entry point for the live-runtime
// experiment: one full message-level spread (unit bandwidth) per network
// model of liveModels, at n = 2000 (quick) or 10^5 (paper). Each model is
// one harness job, and every job runs from the root seed itself, so the rows
// share their protocol randomness and differ only in the network.
func runLiveSensitivity(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	n := 2_000
	if scale == ScalePaper {
		n = 100_000
	}
	models := liveModels(seed, n)
	rows := make([][]stats.Cell, len(models))
	err := forEach(len(models), workers, func(j int, b *par.Budget) error {
		m := models[j]
		rep, err := runJob(gossip.LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}, seed, b, o, run.WithNet(m.net))
		if err != nil {
			return fmt.Errorf("sim: live n=%d model=%s: %w", n, m.name, err)
		}
		rows[j] = []stats.Cell{stats.Int(n), stats.Label(m.name), stats.Int(rep.Rounds),
			stats.Label(strconv.FormatBool(rep.Completed)), stats.Int(rep.Messages)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table("Live message runtime — network-model sensitivity (unit bandwidth)",
		[]string{"n", "model", "dating rounds", "completed", "messages"}, rows), nil
}
