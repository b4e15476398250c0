package core

import "testing"

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(-1); err == nil {
		t.Error("accepted negative latency")
	}
}

func TestPipelineWarmupAndFlow(t *testing.T) {
	pl, err := NewPipeline(3)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Date{
		{{0, 1}}, {{1, 2}}, {{2, 3}}, {{3, 4}}, {{4, 5}},
	}
	var matured [][]Date
	for _, b := range batches {
		if out, ok := pl.Tick(b); ok {
			matured = append(matured, out)
		}
	}
	// With latency 3, ticks 1-3 are warm-up; ticks 4 and 5 mature batches
	// 1 and 2.
	if len(matured) != 2 {
		t.Fatalf("matured %d batches, want 2", len(matured))
	}
	if matured[0][0].Sender != 0 || matured[1][0].Sender != 1 {
		t.Fatalf("batches matured out of order: %v", matured)
	}
	rest := pl.Drain()
	if len(rest) != 3 {
		t.Fatalf("drained %d batches, want 3", len(rest))
	}
	if pl.Matured() != 5 {
		t.Fatalf("total matured %d", pl.Matured())
	}
}

func TestPipelineZeroLatency(t *testing.T) {
	pl, _ := NewPipeline(0)
	out, ok := pl.Tick([]Date{{7, 8}})
	if !ok || len(out) != 1 || out[0].Sender != 7 {
		t.Fatalf("zero-latency pipeline delayed the batch: %v %v", out, ok)
	}
}

func TestTimeForClosedForm(t *testing.T) {
	// Section 4: k rounds cost Theta(log n + k) pipelined, k*log n naive.
	if got := TimeFor(10, 7, true); got != 17 {
		t.Fatalf("pipelined = %d, want 17", got)
	}
	if got := TimeFor(10, 7, false); got != 70 {
		t.Fatalf("naive = %d, want 70", got)
	}
	if got := TimeFor(0, 7, true); got != 0 {
		t.Fatalf("zero rounds = %d", got)
	}
	if got := TimeFor(5, 0, false); got != 5 {
		t.Fatalf("latency-0 naive = %d, want 5", got)
	}
}

func TestPipelineMatchesClosedForm(t *testing.T) {
	// Simulated pipeline: time steps to mature k batches == latency + k.
	const k, latency = 12, 5
	pl, _ := NewPipeline(latency)
	steps := 0
	maturedBatches := 0
	for maturedBatches < k {
		steps++
		var issued []Date
		if _, ok := pl.Tick(issued); ok {
			maturedBatches++
		}
	}
	if steps != TimeFor(k, latency, true) {
		t.Fatalf("simulated %d steps, closed form %d", steps, TimeFor(k, latency, true))
	}
}
