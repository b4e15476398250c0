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
// under DomainStorage and every round's Arrange draws its workers from the
// shared budget. Trajectory is the cumulative placed-replica history;
// Detail the full Result.
func (c Config) Execute(o *run.Options) (run.Report, error) {
	res, err := replicate(c, run.StreamFor(o.Seed, run.DomainStorage), o.Budget)
	if err != nil {
		return run.Report{}, err
	}
	return res.Report(res, nil), nil
}

// replicate is the body of Config.Execute: it runs the replication protocol
// until every object has R replicas or MaxRounds elapses. With a non-nil b
// every round's Arrange runs with the caller's worker plus whatever spare
// tokens b has at that moment; the Arranger is worker-count independent, so
// budget sharing never changes the result — the experiment harness uses
// this to let storage repetitions soak up cores its other jobs are done
// with.
func replicate(cfg Config, s *rng.Stream, b *par.Budget) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	sel, err := core.SelectorFor(cfg.Selector, cfg.N)
	if err != nil {
		return Result{}, err
	}
	roundCap := max(cfg.RoundCap, 1)
	arr, err := core.NewArranger(sel)
	if err != nil {
		return Result{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 40 * (cfg.ObjectsPerNode*cfg.Replicas + 16)
	}

	n := cfg.N
	objs := cfg.ObjectsPerNode
	// Object o of node i has id i*objs+o. hosts[id] lists its replica
	// holders; onHost marks (id, host) pairs for O(1) duplicate checks.
	total := n * objs
	hosts := make([][]int, total)
	onHost := make(map[int64]bool, total*cfg.Replicas)
	occupancy := make([]int, n)
	outstanding := make([]int, n) // replicas still needed, per owner
	for i := range outstanding {
		outstanding[i] = objs * cfg.Replicas
	}

	needTotal := total * cfg.Replicas
	placed := 0

	var res Result
	out := make([]int, n)
	in := make([]int, n)
	res.Stepped, err = run.Drive(maxRounds, nil, func(int) (int, int, bool, error) {
		for i := 0; i < n; i++ {
			out[i] = min(outstanding[i], roundCap)
			in[i] = min(cfg.SlotsPerNode-occupancy[i], roundCap)
		}
		// One draw from s seeds the whole round, so the run consumes the
		// same stream positions at every worker count.
		dates, err := arr.ArrangeShared(out, in, s.Uint64(), b)
		if err != nil {
			return 0, 0, false, err
		}
		for _, d := range dates {
			owner, host := d.Sender, d.Receiver
			if owner == host || occupancy[host] >= cfg.SlotsPerNode || outstanding[owner] == 0 {
				res.WastedDates++
				continue
			}
			// Place the first outstanding object of owner not yet on host.
			placedOne := false
			for o := 0; o < objs; o++ {
				id := owner*objs + o
				if len(hosts[id]) >= cfg.Replicas {
					continue
				}
				key := int64(id)*int64(n) + int64(host)
				if onHost[key] {
					continue
				}
				onHost[key] = true
				hosts[id] = append(hosts[id], host)
				occupancy[host]++
				outstanding[owner]--
				placed++
				res.Transfers++
				placedOne = true
				break
			}
			if !placedOne {
				res.WastedDates++
			}
		}
		return len(dates), placed, placed == needTotal, nil
	})
	if err != nil {
		return Result{}, err
	}

	res.MaxOccupancy, res.MinOccupancy = slices.Max(occupancy), slices.Min(occupancy)
	// Internal consistency: every hosts list within bounds and distinct.
	for id, hs := range hosts {
		if len(hs) > cfg.Replicas {
			return Result{}, fmt.Errorf("storage: object %d over-replicated (%d)", id, len(hs))
		}
		seen := map[int]bool{}
		for _, h := range hs {
			if seen[h] || h == id/objs {
				return Result{}, fmt.Errorf("storage: object %d has invalid host set %v", id, hs)
			}
			seen[h] = true
		}
	}
	return res, nil
}
