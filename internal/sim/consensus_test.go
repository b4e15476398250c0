package sim

import "testing"

// TestConsensusSweepParIdentity pins the harness determinism contract for
// the consensus sweep: the rendered table is byte-identical for every -par
// value.
func TestConsensusSweepParIdentity(t *testing.T) {
	r1, err := RunConsensusSweep(ScaleQuick, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunConsensusSweep(ScaleQuick, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r4.Table().CSV(), r1.Table().CSV(); got != want {
		t.Errorf("-par changed the consensus table:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestConsensusSweepShape pins the sweep's qualitative content: the full
// {2,3,5} x {random,hub,clustered} x {majority,latest,weighted} cross on
// both graphs, every latest row converging (the flood argument), every
// complete-graph majority row converging (well-mixed tallies track the
// global lead), and the winner of a converged latest row being the
// last-stamped variant K.
func TestConsensusSweepShape(t *testing.T) {
	res, err := RunConsensusSweep(ScaleQuick, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 54 {
		t.Fatalf("got %d rows, want 54", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Agreement <= 0 || row.Agreement > 1 {
			t.Errorf("row %+v: agreement out of (0,1]", row)
		}
		if row.Rule == "latest" {
			if !row.Completed {
				t.Errorf("latest row did not converge: %+v", row)
			}
			if row.Winner != row.Variants {
				t.Errorf("latest row winner %d, want the last-stamped variant %d: %+v", row.Winner, row.Variants, row)
			}
		}
		if row.Graph == "complete" && row.Rule == "majority" && !row.Completed {
			t.Errorf("complete-graph majority row did not converge: %+v", row)
		}
	}
}
