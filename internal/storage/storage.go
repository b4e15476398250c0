// Package storage implements the second Section 5 extension of the paper:
// a distributed replicated storage system organized by the dating service.
//
// Every node owns local objects that must each be replicated on R distinct
// remote nodes, and offers a fixed number of hosting slots for other nodes'
// replicas. Each round, a node's outstanding replication needs become its
// supply of blocks to send, and its free slots become its demand; the
// dating service pairs them with no central coordination, and each arranged
// date ships one replica. Because the service never exceeds declared
// capacities, a node is never asked to absorb more blocks per round than it
// advertised.
package storage

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
)

// Config parameterizes a replication run.
type Config struct {
	N              int // nodes
	ObjectsPerNode int // local objects each node must replicate
	Replicas       int // required replicas per object, on distinct remote nodes
	SlotsPerNode   int // hosting capacity per node (in blocks)
	// RoundCap bounds how many blocks a node may send or receive per round
	// (its network bandwidth); 0 means 1, the paper's unit-message model.
	RoundCap int
	// Selector defaults to uniform; any common distribution works.
	Selector  core.Selector
	MaxRounds int
}

// Result reports a replication run: History is the cumulative count of
// placed replicas after each round, SentHistory the dates arranged per round
// (useful or wasted).
type Result struct {
	run.Stepped
	Transfers    int // dates used to ship a block
	WastedDates  int // dates where the pair had nothing placeable
	MaxOccupancy int // fullest node at the end
	MinOccupancy int // emptiest node at the end
}

// validate checks feasibility: enough distinct hosts and enough total slots.
func (c *Config) validate() error {
	if c.N <= 1 {
		return fmt.Errorf("storage: need n > 1, got %d", c.N)
	}
	if c.ObjectsPerNode < 1 || c.Replicas < 1 || c.SlotsPerNode < 1 {
		return fmt.Errorf("storage: objects, replicas and slots must be positive")
	}
	if c.Replicas > c.N-1 {
		return fmt.Errorf("storage: %d replicas need %d distinct remote hosts, only %d exist", c.Replicas, c.Replicas, c.N-1)
	}
	need := c.N * c.ObjectsPerNode * c.Replicas
	have := c.N * c.SlotsPerNode
	if need > have {
		return fmt.Errorf("storage: %d replica slots needed but only %d offered", need, have)
	}
	if c.RoundCap < 0 {
		return fmt.Errorf("storage: negative round cap")
	}
	return nil
}

// Protocol implements run.Spec.
func (c Config) Protocol() string { return "storage" }

// Execute implements run.Spec: the run stream derives from the root seed
// under DomainStorage, every round's Arrange draws its workers from the
// shared budget and an observer gets a "storage" track. Trajectory is the
// cumulative placed-replica history; Detail the full Result.
func (c Config) Execute(o *run.Options) (run.Report, error) {
	res, err := replicate(c, run.StreamFor(o.Seed, run.DomainStorage), o.Budget, o.Obs.Track("storage", 1))
	if err != nil {
		return run.Report{}, err
	}
	return res.Report(res, nil), nil
}

// replicate is the body of Config.Execute: it runs the replication protocol
// on run.Flat (s, b and tr are Flat's) until every object has R
// replicas or MaxRounds elapses. A round's supply is every owner's
// outstanding replicas, its demand every host's free slots, both capped at
// RoundCap; the harness shares b so that storage repetitions soak up the
// cores its other jobs are done with.
func replicate(cfg Config, s *rng.Stream, b *par.Budget, tr *obs.Track) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	roundCap := max(cfg.RoundCap, 1)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 40 * (cfg.ObjectsPerNode*cfg.Replicas + 16)
	}

	n := cfg.N
	objs, reps := cfg.ObjectsPerNode, cfg.Replicas
	// Object o of node i has id i*objs+o. Its replica holders are
	// hosts[id*reps:][:placed[id]]: a duplicate check scans at most R.
	total := n * objs
	hosts := make([]int32, total*reps)
	placed := make([]int32, total)
	occupancy := make([]int, n)
	outstanding := make([]int, n) // replicas still needed, per owner
	for i := range outstanding {
		outstanding[i] = objs * reps
	}

	needTotal := total * reps
	sent := 0
	var res Result
	out := make([]int, n)
	in := make([]int, n)
	f := &run.Flat{N: n, Limit: maxRounds, Selector: cfg.Selector,
		Supply: func() ([]int, []int) {
			for i := 0; i < n; i++ {
				out[i] = min(outstanding[i], roundCap)
				in[i] = min(cfg.SlotsPerNode-occupancy[i], roundCap)
			}
			return out, in
		},
		// A date ships the first outstanding object of its owner not yet on
		// its host; a date with none to place is wasted.
		Dates: func(_ int, dates []core.Date) error {
		next:
			for _, d := range dates {
				owner, host := int(d.Sender), int(d.Receiver)
				if owner == host || occupancy[host] >= cfg.SlotsPerNode || outstanding[owner] == 0 {
					continue
				}
				for id := owner * objs; id < (owner+1)*objs; id++ {
					if on := hosts[id*reps:][:placed[id]]; len(on) < reps && !slices.Contains(on, int32(host)) {
						hosts[id*reps+len(on)] = int32(host)
						placed[id]++
						occupancy[host]++
						outstanding[owner]--
						res.Transfers++
						continue next
					}
				}
			}
			sent = len(dates)
			return nil
		},
		End: func(int) (int, int, bool) { return res.Transfers, sent, res.Transfers == needTotal },
	}
	fr, err := f.Drive(s, b, tr)
	if err != nil {
		return Result{}, err
	}
	res.Stepped = fr.Stepped
	res.WastedDates = int(run.SumSent(res.SentHistory)) - res.Transfers

	res.MaxOccupancy, res.MinOccupancy = slices.Max(occupancy), slices.Min(occupancy)
	// Internal consistency: every host set within bounds, distinct and
	// away from the object's owner.
	for id, k := range placed {
		if int(k) > reps {
			return Result{}, fmt.Errorf("storage: object %d over-replicated (%d)", id, k)
		}
		on := hosts[id*reps:][:k]
		for j, h := range on {
			if int(h) == id/objs || slices.Contains(on[:j], h) {
				return Result{}, fmt.Errorf("storage: object %d has invalid host set %v", id, on)
			}
		}
	}
	return res, nil
}
