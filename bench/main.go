// Command bench is the repository's benchmark: four full-spread workloads
// driven through repro.Run for the end-to-end numbers, and direct calls into
// the exported functions of the internal layers for the per-layer ones. See
// README.md for the metrics, the workloads and how to run it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process (default: all four, each in a fresh child process)")
	seed := fs.Uint64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "make further passes over the run seeds while another fits into this many seconds; one pass always runs")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and a trace file per workload instead of the end-to-end metrics")
	quick := fs.Bool("quick", false, "tiny inputs, one build and one run seed, for tests")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice and fail if the two disagree beyond the metrics' own bounds")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, quick: *quick, workers: min(runtime.NumCPU(), 4), outDir: "out"}

	switch {
	case *selfcheck:
		return selfCheck(cfg, stdout, stderr)
	case *name == "":
		_, code := suite(cfg, stdout, stderr)
		return code
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	measure := measureEndToEnd
	if cfg.trace {
		measure = measureLayers
	}
	oc, err := measure(cfg, wl, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(oc)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !oc.Correct { // some spread failed a check
		return 1
	}
	return 0
}

// joinTraceValue lets -trace be written both ways: bare, as a person types
// it, and followed by a separate 0 or 1, as the driver passes it. The flag
// package takes a boolean's value only in the -trace=1 form.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// suite runs every workload, each in a fresh child process so that one
// workload's memory high-water mark does not leak into the next, and returns
// their results by workload name. At most one child runs at a time.
func suite(cfg config, stdout, stderr io.Writer) (map[string]outcome, int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return nil, 1
	}
	results := map[string]outcome{}
	code := 0
	for _, wl := range workloads {
		cmd := exec.Command(exe,
			"-workload", wl.name,
			"-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace="+strconv.FormatBool(cfg.trace),
			"-quick="+strconv.FormatBool(cfg.quick))
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		oc, parseErr := lastLineOutcome(buf.Bytes())
		switch {
		case parseErr != nil:
			fmt.Fprintf(stderr, "bench: %s: %v (%v)\n", wl.name, parseErr, runErr)
			code = 1
		case runErr != nil:
			code = 1
		}
		results[wl.name] = oc
	}
	return results, code
}

// lastLineOutcome parses the result line a single-workload run ends with.
func lastLineOutcome(output []byte) (outcome, error) {
	var lastLine string
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lastLine = line
		}
	}
	var oc outcome
	if err := json.Unmarshal([]byte(lastLine), &oc); err != nil {
		return outcome{}, fmt.Errorf("no result line: %w", err)
	}
	return oc, nil
}

// selfCheck runs the untraced suite twice with the same code and seed and
// reports every end-to-end metric whose second value is worse than the
// first by more than the metric's own bound. This is how the workload sizes
// and repetition counts are tuned.
func selfCheck(cfg config, stdout, stderr io.Writer) int {
	cfg.trace = false
	first, code1 := suite(cfg, stdout, stderr)
	second, code2 := suite(cfg, stdout, stderr)
	code := max(code1, code2)
	for _, wl := range workloads {
		for _, msg := range disagreements(first[wl.name], second[wl.name]) {
			fmt.Fprintf(stdout, "selfcheck: %s: %s\n", wl.name, msg)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintln(stdout, "selfcheck: the two sets agree within every metric's bound")
	}
	return code
}

// disagreements compares two results of one workload. Either direction
// counts: the two sets ran the same code, so neither is the baseline.
func disagreements(a, b outcome) []string {
	var msgs []string
	if a.Failed != 0 || b.Failed != 0 {
		msgs = append(msgs, fmt.Sprintf("failed_share must be 0, got %d of %d and %d of %d", a.Failed, a.Attempted, b.Failed, b.Attempted))
	}
	for _, d := range endToEnd {
		x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
		if d.name == "rounds" {
			if x != y {
				msgs = append(msgs, fmt.Sprintf("rounds must repeat exactly, got %v and %v", x, y))
			}
			continue
		}
		worse := max(d.worseBy(x, y), d.worseBy(y, x))
		diff := max(x, y) - min(x, y)
		if !(worse <= d.bound) && !(diff <= d.slack) {
			msgs = append(msgs, fmt.Sprintf("%s differs by %.1f%% (%.6g and %.6g %s), bound %.0f%%", d.name, 100*worse, x, y, d.unit, 100*d.bound))
		}
	}
	return msgs
}
