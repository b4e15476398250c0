package sim

import (
	"fmt"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/stats"
)

// LiveRow reports one configuration of the live-runtime experiment.
type LiveRow struct {
	N            int     `json:"n"`
	Model        string  `json:"model"`
	Shards       int     `json:"shards"`
	DatingRounds int     `json:"dating_rounds"`
	Completed    bool    `json:"completed"`
	SecPerDating float64 `json:"seconds_per_dating_round"`
	MsgsPerSec   float64 `json:"messages_per_second"`
}

// LiveSweepResult is the live experiment of the registry: a scale sweep of
// full message-level spreading runs under the perfect-sync model, followed
// by a latency/loss/churn sensitivity table at a fixed n.
type LiveSweepResult struct {
	Rows []LiveRow `json:"rows"`
}

// Table renders the sweep in the repository's table shape.
func (r LiveSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		"Live message runtime — full-spread scale sweep + network-model sensitivity (unit bandwidth)",
		"n", "model", "shards", "dating rounds", "completed", "s/dating round", "msg/s",
	)
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprint(row.N),
			row.Model,
			fmt.Sprint(row.Shards),
			fmt.Sprint(row.DatingRounds),
			fmt.Sprint(row.Completed),
			fmt.Sprintf("%.4f", row.SecPerDating),
			fmt.Sprintf("%.3g", row.MsgsPerSec),
		)
	}
	return t
}

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

// RunLiveScaled is the registry entry point for the live-runtime
// experiment. Quick scale sweeps n up to 10^4 with a sensitivity table at
// n=2000 (seconds); paper scale sweeps n up to 10^6 with the sensitivity
// table at n=10^5 (minutes). The workers knob sets the runtime's shard
// count — the live runtime is bit-identical for every shard count, so
// workers only changes wall-clock time (the timing columns).
func RunLiveScaled(scale Scale, seed uint64, workers int) (LiveSweepResult, error) {
	ns := []int{1_000, 10_000}
	nSens := 2_000
	if scale == ScalePaper {
		ns = []int{10_000, 100_000, 1_000_000}
		nSens = 100_000
	}
	var res LiveSweepResult
	for _, n := range ns {
		row, err := runLiveRow(n, "sync", nil, workers, seed)
		if err != nil {
			return LiveSweepResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, m := range liveModels(seed, nSens) {
		row, err := runLiveRow(nSens, m.name, m.net, workers, seed)
		if err != nil {
			return LiveSweepResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runLiveRow executes one full message-level spreading run through the
// unified runner and derives the row from its Report.
func runLiveRow(n int, model string, net live.NetModel, shards int, seed uint64) (LiveRow, error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	rep, err := run.Run(gossip.LiveConfig{Profile: bandwidth.Homogeneous(n, 1)},
		run.WithSeed(seed), run.WithWorkers(shards), run.WithNet(net))
	if err != nil {
		return LiveRow{}, fmt.Errorf("sim: live n=%d model=%s: %w", n, model, err)
	}
	row := LiveRow{
		N:            n,
		Model:        model,
		Shards:       shards,
		DatingRounds: rep.Rounds,
		Completed:    rep.Completed,
	}
	if sec := rep.Wall.Seconds(); sec > 0 && rep.Rounds > 0 {
		row.SecPerDating = sec / float64(rep.Rounds)
		row.MsgsPerSec = float64(rep.Messages) / sec
	}
	return row, nil
}
