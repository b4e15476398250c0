package sim

// Harness-level parallelism.
//
// Every experiment is a set of independent simulations — repetitions and
// sweep cells — and each is one harness job with its own Service, Arranger
// or run, seeded
//
//	rng.Derive(rootSeed, domainTag, coordinates...)
//
// by its position in the sweep (n index, cell index, repetition index, ...);
// the live and async experiments start every job from the root seed itself,
// so their rows share protocol randomness. A job that runs a protocol hands
// its seed to run.Run (runJob); a job of bare dating rounds seeds round r
// with rng.Absorb(jobSeed, r), the same chain one coordinate longer. Jobs
// write into caller-indexed result slots and all aggregation happens after
// the barrier, in job-index order, so every table is a pure function of
// (scale, seed): byte-identical for every worker count and with or without
// an observer (TestRegistryWorkersIdentical).
//
// The harness and the engines inside jobs share one par.Budget: each
// harness worker goroutine holds a token for its lifetime, and a job's
// dating rounds grab the pool's spare tokens for the duration of a round
// instead of pinning their inner workers to 1. While all harness workers
// are busy there are no spares and jobs run serially inside; when the job
// queue drains below the worker count, exiting workers release their
// tokens and the still-running jobs' rounds soak up the leftover cores.
// Budget-fed engines are worker-count independent, so none of this can
// change a published number.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
)

// Seed-derivation domain tags, one per experiment surface, keeping job
// streams disjoint across experiments that share a root seed (the
// allocation map is internal/rng/domains.go).
const (
	domainFigure1Uniform uint64 = 0x11
	domainFigure1Ring    uint64 = 0x12
	domainFigure1Rounds  uint64 = 0x13
	domainFigure2        uint64 = 0x21
	domainMultiRumor     uint64 = 0x31
	domainLoads          uint64 = 0x41
	domainDynamic        uint64 = 0x51
	domainStorage        uint64 = 0x61
	domainAlpha          uint64 = 0x62
	domainAblation       uint64 = 0x63
	domainPhases         uint64 = 0x64
	domainHierarchical   uint64 = 0x65
	domainPipelining     uint64 = 0x66
	domainMongering      uint64 = 0x67
	domainChurn          uint64 = 0x68
	// The async experiment's heterogeneous Zipf profile.
	domainAsyncZipf uint64 = 0x71
	// Topology sweep: graph seeds (coordinates 1, 2) and job seeds (j, 3).
	domainTopologyJobs uint64 = 0x81
	// Consensus sweep: graph seed (1), Zipf profiles (2, 3), job seeds (j, 4).
	domainConsensusJobs uint64 = 0x82
)

// forEach runs jobs 0..jobs-1 across a worker budget of the given size,
// work-stealing from a shared counter. Each job must write only to its own
// result slot; the budget passed to it holds the pool's spare tokens for
// opportunistic inner parallelism (see the package comment). All jobs run
// even when one fails; the error reported is the one with the lowest job
// index, so failures are as deterministic as results.
func forEach(jobs, workers int, job func(j int, b *par.Budget) error) error {
	if workers < 1 {
		return fmt.Errorf("sim: harness needs workers >= 1, got %d", workers)
	}
	b, err := par.NewBudget(workers)
	if err != nil {
		return err
	}
	g := min(workers, jobs)
	errs := make([]error, jobs)
	var next atomic.Int64
	steal := func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= jobs {
				return
			}
			errs[j] = job(j, b)
		}
	}
	var wg sync.WaitGroup
	// The calling goroutine is the budget's implicit worker; each extra
	// harness worker holds one token until it runs out of jobs, then frees
	// it for the inner engines of the jobs still running.
	for w := 1; w < g; w++ {
		if b.TryAcquire(1) == 0 {
			break // cannot happen: g <= workers; defensive only
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.Release(1)
			steal()
		}()
	}
	steal()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs cells × reps harness jobs, cell-major: job (c, r) gets the seed
// rng.Derive(seed, domain, c, r) and the harness budget, and its outcome
// lands in slot c*reps + r of the returned slice.
func sweep[T any](cells, reps, workers int, seed, domain uint64, job func(cell, rep int, jobSeed uint64, b *par.Budget) (T, error)) ([]T, error) {
	outs := make([]T, cells*reps)
	err := forEach(len(outs), workers, func(j int, b *par.Budget) error {
		c, r := j/reps, j%reps
		out, err := job(c, r, rng.Derive(seed, domain, uint64(c), uint64(r)), b)
		outs[j] = out
		return err
	})
	return outs, err
}

// runJob is the one way a harness job runs a protocol: run.Run from the
// job's seed, drawing workers from the harness budget, with the
// experiment's observer (nil for none) and any further options (a network
// model) attached.
func runJob(spec run.Spec, seed uint64, b *par.Budget, o *obs.Observer, opts ...run.Option) (run.Report, error) {
	return run.Run(spec, append([]run.Option{run.WithSeed(seed), run.WithBudget(b), run.WithObserver(o)}, opts...)...)
}

// fractions runs rounds seeded dating rounds of svc — round r seeded
// rng.Absorb(jobSeed, r) — with workers drawn from b, and accumulates the
// fraction of m each arranges.
func fractions(svc *core.Service, rounds, m int, jobSeed uint64, b *par.Budget) (stats.Accumulator, error) {
	var acc stats.Accumulator
	for r := 0; r < rounds; r++ {
		dates, err := svc.RunRoundShared(rng.Absorb(jobSeed, uint64(r)), b, nil)
		if err != nil {
			return acc, err
		}
		acc.Add(float64(len(dates)) / float64(m))
	}
	return acc, nil
}

// meanStd is a "mean ± std" cell with the given decimals, the display
// convention of the paper's figures; its number is the mean.
func meanStd(a stats.Accumulator, decimals int) stats.Cell {
	return stats.Cell{Text: fmt.Sprintf("%.*f ± %.*f", decimals, a.Mean(), decimals, a.Std()), Num: a.Mean()}
}

// table tables rows, in order, under a title and headers.
func table(title string, headers []string, rows [][]stats.Cell) *stats.Table {
	t := stats.NewTable(title, headers...)
	for _, row := range rows {
		t.Add(row...)
	}
	return t
}
