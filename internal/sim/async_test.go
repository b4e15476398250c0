package sim

import (
	"strings"
	"testing"
)

func TestAsyncCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sync-vs-async comparison end to end")
	}
	res, err := RunAsyncCompare(ScaleQuick, 42, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two unit-profile sizes x two modes, plus the heterogeneous pair.
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Completed {
			t.Fatalf("row %+v incomplete", row)
		}
		if row.T50 > row.T90 || row.T90 > row.Time {
			t.Fatalf("milestones out of order in %+v", row)
		}
		if row.Messages <= 0 || row.Steps <= 0 {
			t.Fatalf("row %+v has empty metrics", row)
		}
	}
	rendered := res.Table().Render()
	for _, want := range []string{"sync-push-pull", "async", "zipf", "sync-dating"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("table missing %q:\n%s", want, rendered)
		}
	}
}
