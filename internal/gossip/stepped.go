package gossip

import (
	"fmt"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/simnet"
)

// liveOptions carries the axes of a stepped run — live, topology,
// consensus or async — that are orthogonal to the protocol. Execute
// derives them from the run options (liveOptionsFor); tests set them
// directly.
type liveOptions struct {
	Seed uint64
	// Shards is the runtime's worker count (0 = GOMAXPROCS). The run's
	// results are bit-identical for every value: shards are a pure speed
	// knob.
	Shards int
	// Net plugs a network model — latency, loss, churn — into the round
	// runtime; nil is the paper's perfect-sync model. Async runs reject it:
	// they carry their latency in AsyncConfig.
	Net live.NetModel
	// Obs, when non-nil, receives phase spans and per-round gauges from the
	// runtime, plus the protocol's own gauges where it has any. Observers
	// are read-only: attaching one never changes results.
	Obs *obs.Observer
}

// liveOptionsFor maps the unified run options onto liveOptions: the runtime
// seed derives from the root seed under the protocol's domain, WithWorkers
// sets the shard count and WithNet the network model.
func liveOptionsFor(o *run.Options, domain uint64) liveOptions {
	return liveOptions{Seed: run.SeedFor(o.Seed, domain), Shards: o.Workers, Net: o.Net, Obs: o.Obs}
}

// Stepped is what every stepped protocol reports, embedded in its result:
// the round loop's core (SentHistory counts the messages emitted per
// round; live's first entry also counts the prologue scatter) and the
// runtime's traffic.
type Stepped struct {
	run.Stepped
	Traffic simnet.Stats
}

// report maps a stepped result onto the unified report.
func (s Stepped) report(detail any) run.Report { return s.Stepped.Report(detail, &s.Traffic) }

// execute is the Execute body of the stepped specs: the result, or its
// error, as a unified report whose Detail is the full result.
func execute[R interface{ report(any) run.Report }](res R, err error) (run.Report, error) {
	if err != nil {
		return run.Report{}, err
	}
	return res.report(res), nil
}

// ticker advances a runtime by the given number of ticks — rounds or
// calendar buckets — and returns its cumulative traffic.
type ticker func(ticks int) simnet.Stats

// clock builds the round runtime a protocol is stepped on, exactly one of
// step and active set, and returns its ticker, the count of messages it has
// in flight between ticks, and its step cuts: step shard w steps the peers
// of [cuts[w], cuts[w+1]).
type clock func(n int, o liveOptions, step live.StepFunc, active live.ActiveStepFunc) (tick ticker, inFlight func() int, cuts []int, err error)

// roundClock is the production clock: the sharded round runtime.
func roundClock(n int, o liveOptions, step live.StepFunc, active live.ActiveStepFunc) (ticker, func() int, []int, error) {
	rt, err := live.New(live.Config{
		N: n, Seed: o.Seed, Step: step, ActiveStep: active,
		Shards: o.Shards, Net: o.Net, Obs: o.Obs,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rt.Run, rt.InFlight, rt.Cuts(), nil
}

// drive runs a stepped protocol on run.Drive: lead ticks first, then per
// ticks a round, whose sent count is the runtime's traffic delta and whose
// progress observe reports. observe cannot fail, so neither can drive.
func drive(tick ticker, lead, per, limit int, tr *obs.Track, observe func(round int) (progress int, done bool)) Stepped {
	if lead > 0 {
		tick(lead)
	}
	var traffic simnet.Stats
	res, _ := run.Drive(limit, tr, func(round int) (int, int, bool, error) {
		prev := traffic.Sent
		traffic = tick(per)
		progress, done := observe(round)
		return int(traffic.Sent - prev), progress, done, nil
	})
	return Stepped{Stepped: res, Traffic: traffic}
}

// peerStates is a stepped protocol's per-peer state byte, flat by peer id,
// and its tally: how many peers of each step shard are in each state. State
// 0 (uninformed, ignorant, undecided) is not counted; states 1..k are. Row w
// holds the k counters of step shard w, rows at least a cache line apart,
// so the driver sums a few counters per round instead of scanning n peers.
//
// Only the shard stepping peer i writes of[i] and i's row, so neither has
// two writers while the runtime ticks; the race detector checks addresses,
// so neighbouring peers of different shards may share a slice. Rows follow
// the runtime's step cuts, not the delivery owners: async cuts its step
// ranges by clock rate.
type peerStates struct {
	of     []uint8
	cuts   []int
	stride int
	rows   []int64
}

// newPeerStates builds the states of n peers, all in state 0. A protocol
// allocates them with the rest of its state, before the runtime that steps
// them, and keys the tally once the runtime's cuts are known.
func newPeerStates(n int) peerStates { return peerStates{of: make([]uint8, n)} }

// key starts the tally of states 1..k, one row per step shard of cuts; no
// peer may have left state 0 yet.
func (p *peerStates) key(cuts []int, k int) {
	// k counters rounded up to whole lines, plus one line so that the gap
	// holds whatever the slice's alignment.
	p.cuts, p.stride = cuts, (k+7)/8*8+8
	p.rows = make([]int64, (len(cuts)-1)*p.stride)
}

// set moves peer i to state v. A row is looked up only when the state
// changes; while the runtime ticks only the shard stepping i may call it.
func (p *peerStates) set(i int, v uint8) {
	old := p.of[i]
	if old == v {
		return
	}
	row := p.rows[p.row(i)*p.stride:]
	if old != 0 {
		row[old-1]--
	}
	if v != 0 {
		row[v-1]++
	}
	p.of[i] = v
}

// row returns the step shard of peer i: the last w with cuts[w] <= i.
func (p *peerStates) row(i int) int {
	lo, hi := 0, len(p.cuts)-2
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if p.cuts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// count returns how many peers are in state v (1..k); called between
// ticks, when the shards are quiescent.
func (p *peerStates) count(v uint8) int {
	var c int64
	for r := int(v) - 1; r < len(p.rows); r += p.stride {
		c += p.rows[r]
	}
	return int(c)
}

// unitInterval rejects a probability outside [0,1], NaN included.
func unitInterval(what string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("gossip: %s %v out of [0,1]", what, p)
	}
	return nil
}
