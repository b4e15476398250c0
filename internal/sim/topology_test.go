package sim

import "testing"

// TestTopologySpreadParIdentity pins the harness determinism contract for
// the topology sweep: the rendered table is byte-identical for every -par
// value.
func TestTopologySpreadParIdentity(t *testing.T) {
	r1, err := RunTopologySpread(ScaleQuick, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunTopologySpread(ScaleQuick, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r4.Table().CSV(), r1.Table().CSV(); got != want {
		t.Errorf("-par changed the topology table:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTopologySpreadShape pins the sweep's qualitative content: spread is
// full at alpha=0 on connected graphs, declines monotonically in alpha on
// the BA graph, and the hub-start rows exist for every alpha.
func TestTopologySpreadShape(t *testing.T) {
	res, err := RunTopologySpread(ScaleQuick, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(res.Rows))
	}
	var baRandom []float64
	hubRows := 0
	for _, row := range res.Rows {
		if row.FinalSpread <= 0 || row.FinalSpread > 1 {
			t.Errorf("row %+v: final spread out of (0,1]", row)
		}
		if row.Graph == "ba" && row.Start == "random" {
			baRandom = append(baRandom, row.FinalSpread)
		}
		if row.Start == "hub" {
			hubRows++
			if row.Graph != "ba" {
				t.Errorf("hub start on %q, want ba only", row.Graph)
			}
		}
		if row.Graph == "complete" && row.Alpha == 0 && row.FinalSpread != 1 {
			t.Errorf("complete graph at alpha=0 spread %v, want 1", row.FinalSpread)
		}
	}
	if hubRows != 5 {
		t.Errorf("got %d hub rows, want 5", hubRows)
	}
	for i := 1; i < len(baRandom); i++ {
		if baRandom[i] > baRandom[i-1] {
			t.Errorf("BA final spread not monotone in alpha: %v", baRandom)
		}
	}
}
