package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 17 {
		t.Fatalf("registry has %d experiments, want the two figures and E3–E13 of the evaluation plus the live, async, topology and consensus sweeps (17)", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.About == "" || e.Run == nil || len(e.Claims) == 0 {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"figure1", "figure2", "phases", "dynamicdht", "live", "async", "topology", "consensus"} {
		if !seen[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
	ids := map[string]bool{}
	for _, c := range claims {
		if !seen[c.Experiment] {
			t.Errorf("claim %s reads experiment %q, which the registry lacks", c.ID, c.Experiment)
		}
		if ids[c.ID] || c.Source == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("duplicate or incomplete claim %+v", c)
		}
		ids[c.ID] = true
	}
}

// quickRun is one experiment's table at quick scale, seed 42, computed once
// per test binary for each worker count.
type quickRun struct {
	once sync.Once
	tbl  *stats.Table
	err  error
}

var quickRuns sync.Map // "<experiment>/<workers>" -> *quickRun

// runQuick returns the named experiment's quick-scale, seed-42 table at
// workers 1 with no observer, or at workers 4 with an observer attached.
// TestRegistryWorkersIdentical and the per-experiment tests below share
// these runs, so each experiment runs at most twice per test binary.
func runQuick(t *testing.T, name string, workers int) (Experiment, *stats.Table) {
	t.Helper()
	var e Experiment
	for _, x := range Registry() {
		if x.Name == name {
			e = x
		}
	}
	if e.Run == nil {
		t.Fatalf("registry lacks %q", name)
	}
	v, _ := quickRuns.LoadOrStore(fmt.Sprintf("%s/%d", name, workers), new(quickRun))
	r := v.(*quickRun)
	r.once.Do(func() {
		var o *obs.Observer
		if workers > 1 {
			o = obs.NewObserver()
		}
		r.tbl, r.err = e.Run(ScaleQuick, 42, workers, o)
	})
	if r.err != nil {
		t.Fatalf("%s at workers %d: %v", name, workers, r.err)
	}
	return e, r.tbl
}

// checkClaims requires every claim about the named experiment to hold on
// its quick-scale, seed-42 table.
func checkClaims(t *testing.T, name string) {
	t.Helper()
	e, tbl := runQuick(t, name, 1)
	for _, c := range e.Claims {
		if err := c.Check(tbl); err != nil {
			t.Errorf("claim %s (%s: %s) fails: %v\n%s", c.ID, c.Source, c.Statement, err, tbl.Render())
		}
	}
}

// checkWorkersIdentical requires the named experiment's quick-scale,
// seed-42 table to render its golden bytes, where one is pinned, and to
// render the same bytes at workers 4 with an observer as at workers 1
// without one.
func checkWorkersIdentical(t *testing.T, name string) {
	t.Helper()
	goldens := map[string]uint64{"figure1": goldenFigure1Quick, "figure2": goldenFigure2Quick}
	_, tbl := runQuick(t, name, 1)
	serial := tbl.Render()
	if want, ok := goldens[name]; ok {
		if h := tableHash(serial); h != want {
			t.Errorf("golden drifted: got %#x, pinned %#x\n%s", h, want, serial)
		}
	}
	_, par := runQuick(t, name, 4)
	if out := par.Render(); out != serial {
		t.Fatalf("workers=4 with an observer differs from workers=1:\n%s\nvs\n%s", out, serial)
	}
}

// TestRegistryWorkersIdentical is the harness test. Every experiment of the
// registry runs once at quick scale, seed 42, workers 1 and no observer:
// its table must satisfy every claim of the claims table, and the two
// figures must render their golden bytes. A second run at workers 4 with
// an observer attached must render the same bytes. No experiment is left
// out: every table is a pure function of (scale, seed).
func TestRegistryWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry experiment twice")
	}
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			checkClaims(t, e.Name)
			checkWorkersIdentical(t, e.Name)
		})
	}
}

// One test per experiment checks that experiment's claims on the same
// quick-scale, seed-42 run, so a failing claim is also reported under its
// experiment's own test name.

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure 1 at quick scale")
	}
	checkClaims(t, "figure1")
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure 2 at quick scale")
	}
	checkClaims(t, "figure2")
}

func TestFigure1WorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure 1 twice")
	}
	checkWorkersIdentical(t, "figure1")
}

func TestFigure2WorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure 2 twice")
	}
	checkWorkersIdentical(t, "figure2")
}

func TestAlphaVsLoadIncreasing(t *testing.T) { checkClaims(t, "alpha") }

func TestDistributionAblationUniformWorst(t *testing.T) { checkClaims(t, "ablation") }

func TestPhasesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E5 at quick scale")
	}
	checkClaims(t, "phases")
}

func TestHierarchicalGap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E6 at quick scale")
	}
	checkClaims(t, "hierarchical")
}

func TestPipeliningCrossover(t *testing.T) { checkClaims(t, "pipelining") }

func TestMongeringNearLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E8 at quick scale")
	}
	checkClaims(t, "mongering")
}

func TestChurnRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E9 at quick scale")
	}
	checkClaims(t, "churn")
}

func TestStorageBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E10 at quick scale")
	}
	checkClaims(t, "storage")
}

func TestMultiRumorExperimentSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E11 at quick scale")
	}
	checkClaims(t, "multirumor")
}

func TestLoadViolationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E12 at quick scale")
	}
	checkClaims(t, "loads")
}

func TestDynamicDHTSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E13 at quick scale")
	}
	checkClaims(t, "dynamicdht")
}

func TestRunLiveScaledQuick(t *testing.T) { checkClaims(t, "live") }

func TestAsyncCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the async sweep at quick scale")
	}
	checkClaims(t, "async")
}

func TestTopologySpreadShape(t *testing.T) { checkClaims(t, "topology") }

func TestConsensusSweepShape(t *testing.T) { checkClaims(t, "consensus") }

// TestVerdicts checks the claims table on a table its claims hold on and
// on one they fail on: the violation is the verdict, a failing row is
// named, and a claim reading a column the table lacks fails instead of
// holding vacuously.
func TestVerdicts(t *testing.T) {
	e := Experiment{Name: "demo", Claims: []Claim{
		{"D.rows", "Figure 1", "demo", "two rows", rows(2)},
		{"D.small", "Figure 1", "demo", "n below 3", every(func(r row) bool { return r.num("n") < 3 })},
		{"D.missing", "Figure 1", "demo", "m below 3", every(func(r row) bool { return r.num("m") < 3 })},
	}}
	tbl := stats.NewTable("", "n")
	tbl.Add(stats.Int(1))
	tbl.Add(stats.Int(2))
	got := e.Verdicts(tbl).Col("verdict")
	if len(got) != 3 || got[0].Text != "holds" || got[1].Text != "holds" || got[2].Text != `FAILS: no column "m"` {
		t.Fatalf("verdicts on a two-row table: %v", got)
	}
	tbl.Add(stats.Int(3))
	out := e.Verdicts(tbl).Render()
	for _, want := range []string{"Claims — demo", "D.rows", "Figure 1", "two rows", "FAILS: does not hold", "FAILS: fails on row 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("verdicts table lacks %q:\n%s", want, out)
		}
	}
}
