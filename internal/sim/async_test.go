package sim

import (
	"strings"
	"testing"
)

func TestAsyncCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sync-vs-async comparison end to end")
	}
	res, err := RunAsyncCompare(ScaleQuick, 42, 2)
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

func TestAsyncCompareWorkersByteIdentical(t *testing.T) {
	// The workers knob is the async runtime's shard count — a pure speed
	// knob; the rendered table must be byte-identical across values.
	if testing.Short() {
		t.Skip("runs the comparison twice")
	}
	a, err := RunAsyncCompare(ScaleQuick, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAsyncCompare(ScaleQuick, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table().Render() != b.Table().Render() {
		t.Fatal("workers knob changed the comparison table")
	}
}
