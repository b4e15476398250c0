package sim

import (
	"strings"
	"testing"
)

func TestRunLiveScaledQuick(t *testing.T) {
	res, err := RunLiveScaled(ScaleQuick, 42, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two scale rows plus one sensitivity row per model.
	wantRows := 2 + len(liveModels(42, 2000))
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}
	var syncRounds, loss10Rounds int
	for _, row := range res.Rows {
		if !row.Completed {
			t.Fatalf("row %+v incomplete", row)
		}
		if row.DatingRounds <= 0 || row.MsgsPerSec <= 0 {
			t.Fatalf("row %+v has empty metrics", row)
		}
		if row.N == 2000 && row.Model == "sync" {
			syncRounds = row.DatingRounds
		}
		if row.Model == "loss-10%" {
			loss10Rounds = row.DatingRounds
		}
	}
	if loss10Rounds < syncRounds {
		t.Fatalf("10%% loss spread faster than sync (%d vs %d dating rounds)", loss10Rounds, syncRounds)
	}
	rendered := res.Table().Render()
	if !strings.Contains(rendered, "latency-4") || !strings.Contains(rendered, "churn-10%") {
		t.Fatalf("table missing sensitivity rows:\n%s", rendered)
	}
}
