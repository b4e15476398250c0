package sim

import "testing"

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 18 {
		t.Fatalf("registry has %d experiments, want the 13 of the evaluation plus the live sweep, the sync-vs-async comparison, the unified-runner sweep, the topology sweep and the consensus sweep", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.About == "" || e.Run == nil {
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
}

func TestRegistryRunnersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two registry experiments end to end")
	}
	// Spot-check two cheap experiments through the registry interface.
	for _, name := range []string{"alpha", "pipelining"} {
		for _, e := range Registry() {
			if e.Name != name {
				continue
			}
			tbl, err := e.Run(ScaleQuick, 42, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if tbl.NumRows() == 0 {
				t.Fatalf("%s: empty table", name)
			}
		}
	}
}
