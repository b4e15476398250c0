package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/run"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "workload", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "setup", Start: 0, End: 30 * ms},
		{ID: 2, Parent: 1, Name: "graph.generate", Start: 5 * ms, End: 25 * ms},
		{ID: 3, Parent: 0, Name: "run.Run", Start: 30 * ms, End: 90 * ms},
	}
	want := []time.Duration{10 * ms, 10 * ms, 20 * ms, 60 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpansAndNilIsOff(t *testing.T) {
	tr := newTracer("w")
	tr.do("outer", func() {
		tr.do("first", func() {})
		tr.do("second", func() { tr.do("inner", func() {}) })
	})
	var got []int
	for _, sp := range tr.spans {
		got = append(got, sp.Parent)
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	if want := []int{-1, 0, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("parents = %v, want %v", got, want)
	}
	ran := false
	(*tracer)(nil).do("off", func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the function")
	}
}

func TestJoinTraceValue(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "live-sync", "--trace", "1"}, []string{"--workload", "live-sync", "--trace=1"}},
		{[]string{"--trace", "0", "--seed", "7"}, []string{"--trace=0", "--seed", "7"}},
		{[]string{"-trace", "-quick"}, []string{"-trace", "-quick"}},
		{[]string{"-trace"}, []string{"-trace"}},
	} {
		if got := joinTraceValue(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("joinTraceValue(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.name || bf.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, wl.name, wl.why)
		}
	}
	compare := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the program %s [%s] %s", kind, i, f.Name, f.Unit, f.Better, d.name, d.unit, better)
			}
			if bounded != (f.Bound != nil) || (bounded && *f.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the program's %v", kind, d.name, d.bound)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
}

// printedOnce fails unless exactly one line of output starts with the
// metric's name and that line carries its unit.
func printedOnce(t *testing.T, output string, m benchmarkMetric) {
	t.Helper()
	count := 0
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == m.Name {
			count++
			if fields[2] != m.Unit {
				t.Errorf("%s printed with unit %q, want %q", m.Name, fields[2], m.Unit)
			}
		}
	}
	if count != 1 {
		t.Errorf("%s printed %d times, want once", m.Name, count)
	}
}

func resultKeys(oc outcome) map[string]string {
	keys := map[string]string{}
	for name, m := range oc.Metrics {
		keys[name] = m.Unit
	}
	return keys
}

func fileKeys(ms []benchmarkMetric) map[string]string {
	keys := map[string]string{}
	for _, m := range ms {
		keys[m.Name] = m.Unit
	}
	return keys
}

// TestQuickRunsEveryWorkloadAndProbe runs all four workloads and every probe
// end to end at n = 2000 and holds the output against BENCHMARK.json.
func TestQuickRunsEveryWorkloadAndProbe(t *testing.T) {
	bf := readBenchmarkFile(t)
	cfg := config{seed: 42, quick: true, workers: 2, outDir: t.TempDir()}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var out bytes.Buffer
			oc, err := measureEndToEnd(cfg, wl, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !oc.Correct || oc.Failed != 0 || oc.Attempted != 3 {
				t.Errorf("untraced: correct %v, %d failed of %d, want 3 clean spreads\n%s", oc.Correct, oc.Failed, oc.Attempted, out.String())
			}
			for _, m := range bf.EndToEnd {
				printedOnce(t, out.String(), m)
				if v := oc.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v)
				}
			}
			printedOnce(t, out.String(), benchmarkMetric{Name: "failed_share", Unit: "fraction"})
			if got, want := resultKeys(oc), fileKeys(bf.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("result line carries %v, BENCHMARK.json lists %v", got, want)
			}
			for _, field := range []string{"num_cpu", "gomaxprocs", "shards_P", "go_version", "cpu_model", "git_rev", "seed", `"n":2000`, "repetitions"} {
				if !strings.Contains(out.String(), field) {
					t.Errorf("environment manifest lacks %s", field)
				}
			}

			out.Reset()
			traced := cfg
			traced.trace = true
			oc, err = measureLayers(traced, wl, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !oc.Correct || oc.Attempted != 4 {
				t.Errorf("traced: correct %v, %d spreads, want 4 clean ones\n%s", oc.Correct, oc.Attempted, out.String())
			}
			for _, m := range bf.PerLayer {
				printedOnce(t, out.String(), m)
			}
			if got, want := resultKeys(oc), fileKeys(bf.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("result line carries %v, BENCHMARK.json lists %v", got, want)
			}
			for name, m := range oc.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			checkTraceFile(t, filepath.Join(traced.outDir, "trace-"+wl.name+".json"), wl.name)
		})
	}
}

func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string
			Args struct {
				ID, Parent int
				Workload   string
			}
		}
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, ev := range tf.TraceEvents {
		names[ev.Name] = true
		if ev.Args.ID != i || ev.Args.Parent >= i || ev.Args.Workload != workload {
			t.Errorf("span %d %s: id %d parent %d workload %q", i, ev.Name, ev.Args.ID, ev.Args.Parent, ev.Args.Workload)
		}
	}
	for _, want := range []string{"workload", "setup", "core.selector", "run.Run", "probe.rng.derive_ns", "probe.par.fanout_ns"} {
		if workload == "topology-ba" && want == "core.selector" {
			want = "graph.generate"
		}
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

// fixtureSpec is a protocol whose successive spreads are scripted, so that a
// run can be made to break the contracts the benchmark checks.
type fixtureSpec struct {
	calls   *int
	reports []run.Report // report of call i, the last one repeating
}

func (fixtureSpec) Protocol() string { return "fixture" }

func (f fixtureSpec) Execute(*run.Options) (run.Report, error) {
	i := min(*f.calls, len(f.reports)-1)
	*f.calls++
	return f.reports[i], nil
}

func fixtureWorkload(name string, reports ...run.Report) workload {
	return workload{
		name: name, why: "test fixture", n: 4, quickN: 4,
		build: func(int, uint64, *tracer) (inputs, error) {
			return inputs{spec: fixtureSpec{calls: new(int), reports: reports}, check: func(repro.Report) error { return nil }}, nil
		},
	}
}

// TestBrokenRunsRaiseFailedShareAndExitCode drives the command itself over a
// run whose digest changes between repetitions and over one that never
// completes.
func TestBrokenRunsRaiseFailedShareAndExitCode(t *testing.T) {
	good := run.Report{Completed: true, Trajectory: []int{1, 2, 4}, Messages: 6}
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append(append([]workload(nil), saved...),
		fixtureWorkload("fixture-clean", good),
		fixtureWorkload("fixture-digest", good, run.Report{Completed: true, Trajectory: []int{1, 3, 4}, Messages: 6}),
		fixtureWorkload("fixture-incomplete", run.Report{Completed: false, Trajectory: []int{1, 2, 2}, Messages: 3}),
		fixtureWorkload("fixture-shrinking", run.Report{Completed: true, Trajectory: []int{1, 3, 2}, Messages: 3}),
	)
	for _, c := range []struct {
		name       string
		code, fail int
		say        string
	}{
		{"fixture-clean", 0, 0, ""},
		{"fixture-digest", 1, 2, "trajectory digest"},
		{"fixture-incomplete", 1, 3, "did not complete"},
		{"fixture-shrinking", 1, 3, "trajectory falls"},
	} {
		var out, errOut bytes.Buffer
		code := cli([]string{"-quick", "-workload", c.name}, &out, &errOut)
		oc, err := lastLineOutcome(out.Bytes())
		if err != nil {
			t.Fatalf("%s: %v\n%s%s", c.name, err, out.String(), errOut.String())
		}
		if code != c.code || oc.Failed != c.fail || oc.Attempted != 3 || oc.Correct != (c.fail == 0) {
			t.Errorf("%s: exit code %d, %d failed of %d, correct %v; want code %d and %d failed of 3", c.name, code, oc.Failed, oc.Attempted, oc.Correct, c.code, c.fail)
		}
		if c.say != "" && !(strings.Contains(out.String(), "FAILED") && strings.Contains(out.String(), c.say)) {
			t.Errorf("%s: output does not name the failure %q:\n%s", c.name, c.say, out.String())
		}
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"-workload", "no-such"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit code %d and output %q, want a refusal without a result", code, out.String())
	}
}

func TestDisagreementsNameTheMetric(t *testing.T) {
	base := func() outcome {
		oc := outcome{Correct: true, Attempted: 9, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			oc.Metrics[d.name] = metric{Value: 10, Unit: d.unit}
		}
		return oc
	}
	with := func(name string, v float64) outcome {
		oc := base()
		oc.Metrics[name] = metric{Value: v, Unit: oc.Metrics[name].Unit}
		return oc
	}
	for _, c := range []struct {
		label string
		a, b  outcome
		want  string // the one complaint expected, "" for none
	}{
		{"equal", base(), base(), ""},
		{"wall within bound", base(), with("wall_s", 12), ""},
		{"wall beyond bound", base(), with("wall_s", 13), "wall_s"},
		{"first set slower", with("wall_s", 13), base(), "wall_s"},
		{"throughput fell", base(), with("msgs_per_s", 7), "msgs_per_s"},
		{"alloc has the tightest bound", base(), with("alloc_mb", 11.2), "alloc_mb"},
		{"rounds must be exact", base(), with("rounds", 11), "rounds"},
		{"tiny set-up within its slack", with("setup_s", 0.01), with("setup_s", 0.05), ""},
		{"failure", base(), outcome{Failed: 1, Attempted: 9, Metrics: base().Metrics}, "failed_share"},
	} {
		got := disagreements(c.a, c.b)
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%s: unexpected complaints %v", c.label, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%s: complaints %v, want one naming %s", c.label, got, c.want)
		}
	}
}
