package sim

import (
	"strings"
	"testing"
)

func TestDynamicDHTSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic DHT experiment runs many spreads")
	}
	res, err := RunDynamicDHTPar(ScaleQuick, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RoundsTo95 <= 0 {
			t.Errorf("p=%.3f: never reached 95%% coverage", row.ReplaceProb)
		}
		if row.ReplaceProb == 0 && row.Replaced != 0 {
			t.Errorf("p=0 replaced %.0f nodes", row.Replaced)
		}
		if row.ReplaceProb > 0 && row.Replaced == 0 {
			t.Errorf("p=%.3f replaced nobody", row.ReplaceProb)
		}
	}
	// No churn: full coverage at steady state. Sustained churn: the
	// equilibrium coverage ~1 - p/alpha stays high but below 1.
	if res.Rows[0].SteadyState < 0.999 {
		t.Errorf("p=0 steady-state coverage %.3f, want 1.0", res.Rows[0].SteadyState)
	}
	if res.Rows[2].SteadyState < 0.90 {
		t.Errorf("p=0.02 steady-state coverage %.3f collapsed", res.Rows[2].SteadyState)
	}
	if res.Rows[2].SteadyState >= res.Rows[0].SteadyState {
		t.Errorf("churned coverage %.4f not below churn-free %.4f",
			res.Rows[2].SteadyState, res.Rows[0].SteadyState)
	}
	if !strings.Contains(res.Table().Render(), "churning DHT") {
		t.Error("table missing title")
	}
}

func TestLoadViolationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("load experiment runs every algorithm")
	}
	res, err := RunLoadViolationPar(ScaleQuick, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]LoadRow{}
	for _, row := range res.Rows {
		byName[row.Algorithm.String()] = row
	}
	// The dating service is the only algorithm honoring unit bandwidth.
	d := byName["dating"]
	if d.MaxInLoad > 1 || d.MaxOutLoad > 1 {
		t.Errorf("dating loads %+v exceed unit bandwidth", d)
	}
	// Push overdrives receivers; pull overdrives servers (balls-into-bins
	// maxima around log n / log log n ~ 4-6 at n=2048).
	if byName["push"].MaxInLoad < 2 {
		t.Errorf("push max in-load %.1f implausibly low", byName["push"].MaxInLoad)
	}
	if byName["pull"].MaxOutLoad < 2 {
		t.Errorf("pull max out-load %.1f implausibly low", byName["pull"].MaxOutLoad)
	}
	// Fair pull keeps its out-load at 1 by definition.
	if byName["fair-pull"].MaxOutLoad > 1 {
		t.Errorf("fair pull served %.1f requests in a round", byName["fair-pull"].MaxOutLoad)
	}
	if !strings.Contains(res.Table().Render(), "max in-load") {
		t.Error("table missing header")
	}
}
