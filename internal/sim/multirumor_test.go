package sim

import (
	"strings"
	"testing"
)

func TestMultiRumorExperimentSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rumor experiment runs many spreads")
	}
	res, err := RunMultiRumorExperiment(ScaleQuick, 11, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.SingleRounds <= 0 {
		t.Fatal("missing single-rumor baseline")
	}
	for _, row := range res.Rows {
		if row.Rounds <= 0 || row.PerRumorMean <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		// Key sharing effect: R rumors cost far less than R sequential
		// broadcasts (they ride the same dates).
		seq := res.SingleRounds * float64(row.Rumors)
		if row.Rumors > 1 && row.Rounds >= seq {
			t.Errorf("R=%d: %.1f rounds not better than %f sequential", row.Rumors, row.Rounds, seq)
		}
		// But more rumors cannot be faster than one.
		if row.Rounds < res.SingleRounds-3 {
			t.Errorf("R=%d: %.1f rounds beats the single-rumor baseline %.1f implausibly",
				row.Rumors, row.Rounds, res.SingleRounds)
		}
	}
	// Rounds increase with the number of rumors.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Rounds < res.Rows[i-1].Rounds {
			t.Errorf("rounds not monotone in rumor count: %+v", res.Rows)
		}
	}
	if !strings.Contains(res.Table().Render(), "faster") {
		t.Error("table missing speedup column")
	}
}
