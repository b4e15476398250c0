package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gossip"
)

func TestScaleNames(t *testing.T) {
	for _, sc := range []Scale{ScaleQuick, ScalePaper} {
		parsed, err := ParseScale(sc.String())
		if err != nil || parsed != sc {
			t.Fatalf("round-trip of %v failed: %v %v", sc, parsed, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("accepted unknown scale")
	}
	if got := Scale(9).String(); got != "scale(9)" {
		t.Errorf("String = %q", got)
	}
}

// figure1Fast trims RunFigure1 to its two smallest sizes for unit tests.
func figure1Fast(t *testing.T) Figure1Result {
	t.Helper()
	res, err := RunFigure1(ScaleQuick, 42, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 1 takes a few seconds")
	}
	res := figure1Fast(t)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Uniform fraction ~0.47 at all sizes (slightly above at n=10).
		if row.UniformMean < 0.44 || row.UniformMean > 0.56 {
			t.Errorf("n=%d: uniform %.4f outside [0.44, 0.56]", row.N, row.UniformMean)
		}
		// DHT beats uniform, even for the worst generated overlay.
		if row.DHTWorst <= row.UniformMean {
			t.Errorf("n=%d: dht worst %.4f does not beat uniform %.4f", row.N, row.DHTWorst, row.UniformMean)
		}
		if row.DHTBest < row.DHTWorst {
			t.Errorf("n=%d: best %.4f below worst %.4f", row.N, row.DHTBest, row.DHTWorst)
		}
		// Paper: worst DHT >= 0.52.
		if row.DHTWorst < 0.50 {
			t.Errorf("n=%d: dht worst %.4f, paper reports >= 0.52", row.N, row.DHTWorst)
		}
	}
	// Paper: the best-DHT advantage shrinks with n (0.67 at n=10 down
	// toward 0.55).
	if res.Rows[0].DHTBest <= res.Rows[len(res.Rows)-1].DHTBest {
		t.Errorf("dht best should shrink with n: %.4f (n=%d) vs %.4f (n=%d)",
			res.Rows[0].DHTBest, res.Rows[0].N,
			res.Rows[len(res.Rows)-1].DHTBest, res.Rows[len(res.Rows)-1].N)
	}
	out := res.Table().Render()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "dht-worst") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 takes a few seconds")
	}
	res, err := RunFigure2(ScaleQuick, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		pp := row.Cells[gossip.PushPull].Mean
		dat := row.Cells[gossip.Dating].Mean
		if pp <= 0 || dat <= 0 {
			t.Fatalf("n=%d: degenerate means", row.N)
		}
		// Push-pull is the fastest, dating the slowest.
		for _, a := range gossip.Algorithms() {
			m := row.Cells[a].Mean
			if m < pp-1e-9 {
				t.Errorf("n=%d: %v (%.2f) beat push-pull (%.2f)", row.N, a, m, pp)
			}
			if m > dat+1e-9 {
				t.Errorf("n=%d: %v (%.2f) slower than dating (%.2f)", row.N, a, m, dat)
			}
		}
	}
	// Rounds grow with n for every algorithm.
	for _, a := range gossip.Algorithms() {
		first := res.Rows[0].Cells[a].Mean
		last := res.Rows[len(res.Rows)-1].Cells[a].Mean
		if last <= first {
			t.Errorf("%v: rounds did not grow with n (%.2f -> %.2f)", a, first, last)
		}
	}
	out := res.Table().Render()
	if !strings.Contains(out, "push-pull") || !strings.Contains(out, "dating") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
}

func TestAlphaVsLoadIncreasing(t *testing.T) {
	res, err := RunAlphaVsLoad(ScaleQuick, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := 0.0
	for _, row := range res.Rows {
		if row.Fraction <= prev {
			t.Fatalf("fraction not increasing with load: %+v", res.Rows)
		}
		prev = row.Fraction
	}
	if res.Rows[0].Fraction < 0.44 || res.Rows[0].Fraction > 0.52 {
		t.Errorf("base fraction %.4f not near 0.47", res.Rows[0].Fraction)
	}
	if !strings.Contains(res.Table().Render(), "m/n") {
		t.Error("table missing header")
	}
}

func TestDistributionAblationUniformWorst(t *testing.T) {
	res, err := RunDistributionAblation(ScaleQuick, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var uniform float64
	for _, row := range res.Rows {
		if row.Name == "uniform" {
			uniform = row.Fraction
		}
	}
	if uniform == 0 {
		t.Fatal("uniform row missing")
	}
	for _, row := range res.Rows {
		if row.Fraction < uniform-0.01 {
			t.Errorf("%s (%.4f) below uniform (%.4f): contradicts the worst-case conjecture",
				row.Name, row.Fraction, uniform)
		}
	}
}

func TestPhasesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("phases experiment runs several spreads at n=4096")
	}
	res, err := RunPhases(ScaleQuick, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.EndPhase1 <= res.EndPhase2 && res.EndPhase2 <= res.EndPhase3) {
		t.Fatalf("phase boundaries out of order: %+v", res)
	}
	if res.EndPhase1 < 1 {
		t.Fatalf("phase 1 cannot end before round 1: %+v", res)
	}
	if len(res.ItSample) == 0 {
		t.Fatal("missing I_t sample")
	}
	if !strings.Contains(res.Table().Render(), "Theorem 4") {
		t.Error("table missing title")
	}
}

func TestHierarchicalGap(t *testing.T) {
	if testing.Short() {
		t.Skip("hierarchical experiment runs several spreads")
	}
	res, err := RunHierarchical(ScaleQuick, 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.RichRounds >= row.TotalRounds {
			t.Errorf("n=%d: rich (%.1f) not earlier than total (%.1f)", row.N, row.RichRounds, row.TotalRounds)
		}
	}
}

// TestPipeliningCrossover checks E7's measured handshake: past one round
// the pipelined run beats the naive 3kL + 1 ticks, each further round adds
// three ticks whatever L is, and at k = 64 the latency costs no dates.
func TestPipeliningCrossover(t *testing.T) {
	res, err := RunPipelining(ScaleQuick, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySteps < 2 {
		t.Fatalf("latency %d implausibly small for n=%d", res.LatencySteps, res.N)
	}
	first := res.Rows[0]
	for _, row := range res.Rows {
		if row.K > 1 && row.Ticks >= int64(row.Naive) {
			t.Errorf("k=%d: pipelined %d ticks not better than naive %d", row.K, row.Ticks, row.Naive)
		}
		if got := row.Ticks - first.Ticks; got != int64(3*(row.K-first.K)) {
			t.Errorf("k=%d: %d ticks more than k=%d, want 3 per round", row.K, got, first.K)
		}
		if row.Dates == 0 {
			t.Errorf("k=%d: no dates under latency %d", row.K, res.LatencySteps)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if ratio := float64(last.Naive) / float64(last.Ticks); ratio < float64(res.LatencySteps)/2 {
		t.Errorf("k=%d speedup %.1f too small for latency %d", last.K, ratio, res.LatencySteps)
	}
	if math.Abs(last.Dates/last.SyncDates-1) > 0.02 {
		t.Errorf("k=%d: %.1f dates per round under latency, %.1f under sync", last.K, last.Dates, last.SyncDates)
	}
}

func TestMongeringNearLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("mongering decodes many matrices")
	}
	res, err := RunMongering(ScaleQuick, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Rounds < float64(row.LowerBound) {
			t.Errorf("B=%d: %.1f rounds beats the information-theoretic bound", row.Blocks, row.Rounds)
		}
		if row.Rounds > 6*float64(row.LowerBound)+40 {
			t.Errorf("B=%d: %.1f rounds too far above bound", row.Blocks, row.Rounds)
		}
		if row.Efficiency <= 0 || row.Efficiency > 1 {
			t.Errorf("B=%d: innovative fraction %.3f out of (0,1]", row.Blocks, row.Efficiency)
		}
	}
}

func TestChurnRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("churn experiment runs several spreads")
	}
	res, err := RunChurn(ScaleQuick, 9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Completed != row.Reps {
			t.Errorf("p=%.2f: only %d/%d runs completed", row.CrashProb, row.Completed, row.Reps)
		}
		if row.CrashProb == 0 && row.Crashed != 0 {
			t.Errorf("p=0 crashed %.0f nodes", row.Crashed)
		}
		if row.CrashProb > 0 && row.Crashed == 0 {
			t.Errorf("p=%.2f crashed nobody", row.CrashProb)
		}
	}
}

func TestStorageBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("storage experiment replicates hundreds of blocks")
	}
	res, err := RunStorage(ScaleQuick, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
	if res.MaxOccupancy > 12 {
		t.Fatalf("occupancy %v exceeds slots", res.MaxOccupancy)
	}
	if res.WastedFrac < 0 || res.WastedFrac > 0.9 {
		t.Fatalf("wasted fraction %.3f implausible", res.WastedFrac)
	}
	if !strings.Contains(res.Table().Render(), "replication") {
		t.Error("table missing content")
	}
}
