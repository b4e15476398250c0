package sim

import (
	"testing"

	"repro/internal/obs"
)

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

// TestRegistryWorkersIdentical runs every experiment through the registry
// at quick scale: each must render a non-empty table, byte-identical at
// workers 1 with no observer and at workers 4 with an observer attached.
// live and protocols are left out because they print timing (and live its
// shard count) columns.
func TestRegistryWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry experiment twice")
	}
	for _, e := range Registry() {
		if e.Name == "live" || e.Name == "protocols" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			render := func(workers int, o *obs.Observer) string {
				tbl, err := e.Run(ScaleQuick, 9, workers, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if tbl.NumRows() == 0 {
					t.Fatalf("workers=%d: empty table", workers)
				}
				return tbl.Render()
			}
			serial := render(1, nil)
			if par := render(4, obs.NewObserver()); par != serial {
				t.Fatalf("workers=4 with an observer differs from workers=1:\n%s\nvs\n%s", par, serial)
			}
		})
	}
}
