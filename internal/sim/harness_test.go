package sim

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/par"
)

// tableHash fingerprints a rendered table for the golden pins below.
func tableHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Golden fingerprints of the quick-scale figure tables and of E13's
// churning-DHT table at seed 42, checked by TestRegistryWorkersIdentical.
// They pin the published numbers down to the byte: any change to the
// seed-derivation scheme, the round engine, the churn model or the
// aggregation order fails loudly there instead of silently shifting
// results. Regenerate by running the test and copying the hashes it prints
// on failure. The figures were last repinned when Figure 1's rounds became
// seeded rounds and Figure 2's repetitions run.Run jobs; E13's pin is the
// table of its churning ring before that ring became a static ring
// re-sorted between rounds.
const (
	goldenFigure1Quick    = 0x6da0c96d449109d3
	goldenFigure2Quick    = 0x2ffb0b8b36081f26
	goldenDynamicDHTQuick = 0xef8179128a79b04f
)

func TestHarnessOverlappingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("stress-runs two concurrent harness sweeps")
	}
	// Two full harness sweeps running concurrently in one process, each
	// fanning jobs across its own worker pool: per-job Services must never
	// share state (the race detector enforces isolation; equality enforces
	// determinism under contention).
	const concurrent = 3
	results := make([]string, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tbl, err := runMultiRumorExperiment(ScaleQuick, 5, 4, nil)
			if errs[g] = err; err == nil {
				results[g] = tbl.Render()
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < concurrent; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("concurrent sweep %d diverged from sweep 0:\n%s\nvs\n%s", g, results[g], results[0])
		}
	}
}

func TestForEach(t *testing.T) {
	// Completeness: every job index runs exactly once at any worker count.
	for _, workers := range []int{1, 3, 16} {
		const jobs = 100
		hits := make([]int, jobs)
		if err := forEach(jobs, workers, func(j int, _ *par.Budget) error {
			hits[j]++ // distinct slots: no lock needed
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for j, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, j, h)
			}
		}
	}
	// Determinism of failure: the reported error is the lowest-index one,
	// and later jobs still ran (no early abort reordering results).
	err := forEach(10, 4, func(j int, _ *par.Budget) error {
		if j == 7 || j == 3 {
			return fmt.Errorf("job %d failed", j)
		}
		return nil
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
	if err := forEach(5, 0, func(int, *par.Budget) error { return nil }); err == nil {
		t.Error("accepted workers = 0")
	}
	if err := forEach(0, 4, func(int, *par.Budget) error { return fmt.Errorf("ran") }); err != nil {
		t.Errorf("zero jobs: %v", err)
	}
}

func TestForEachBudgetNoOversubscription(t *testing.T) {
	// The harness workers and the inner engines of their jobs share one
	// budget: the total number of concurrently computing workers — one per
	// active job plus whatever extras its inner Use grabbed — must never
	// exceed the budget, and leftover tokens must actually reach jobs.
	const workers = 4
	var cur, peak atomic.Int64
	err := forEach(32, workers, func(j int, b *par.Budget) error {
		if b.Total() != workers {
			return fmt.Errorf("job budget sized %d, want %d", b.Total(), workers)
		}
		for i := 0; i < 8; i++ {
			b.Use(0, func(w int) {
				c := cur.Add(int64(w))
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				cur.Add(int64(-w))
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrent workers %d exceeds the harness budget of %d", p, workers)
	}

	// Fewer jobs than workers: the spare tokens must flow to the jobs'
	// inner engines. With 2 jobs on a budget of 4, two tokens are spare
	// from the start and TryAcquire hands them out whole, so at least one
	// inner round must see more than one worker.
	var sawParallel atomic.Bool
	err = forEach(2, workers, func(j int, b *par.Budget) error {
		b.Use(0, func(w int) {
			if w > 1 {
				sawParallel.Store(true)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawParallel.Load() {
		t.Fatal("no job's inner round received leftover workers")
	}
}
