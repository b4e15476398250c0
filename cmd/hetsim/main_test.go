package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives cli in-process and returns its exit code and both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = cli(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-protocol", "nope"}, "consensus"},
		{[]string{"-experiment", "nope"}, "figure1"},
		{[]string{"-protocol", "live", "-n", "0"}, "positive"},
		{[]string{"-protocol", "live", "-n", "-5"}, "positive"},
		{[]string{"-protocol", "live", "-experiment", "live"}, "exclude"},
		{[]string{"-n", "500"}, "-protocol"},
		{[]string{"-scale", "huge"}, "quick or paper"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout != "" {
			t.Errorf("%v: wrote to stdout: %q", tc.args, stdout)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
}

// digestOf extracts the digest column of a one-row -csv protocols table.
func digestOf(t *testing.T, csv string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a header and one row, got:\n%s", csv)
	}
	header, row := strings.Split(lines[0], ","), strings.Split(lines[1], ",")
	for i, h := range header {
		if h == "digest" && i < len(row) {
			return row[i]
		}
	}
	t.Fatalf("no digest column in:\n%s", csv)
	return ""
}

// TestProtocolTraceIdentity is the instrumentation-identity smoke: one run,
// the same digest with and without -trace, and a trace file that parses.
func TestProtocolTraceIdentity(t *testing.T) {
	args := []string{"-protocol", "live", "-n", "500", "-par", "2", "-csv"}
	code, plain, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("plain run: exit %d: %s", code, stderr)
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	code, traced, stderr := runCLI(append(args, "-trace", trace)...)
	if code != 0 {
		t.Fatalf("traced run: exit %d: %s", code, stderr)
	}
	if a, b := digestOf(t, plain), digestOf(t, traced); len(a) != 16 || a != b {
		t.Errorf("digest %q plain, %q traced", a, b)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Errorf("trace file is not JSON: %v", err)
	}
	if !bytes.Contains(raw, []byte("deliver")) {
		t.Error("trace file holds no live-runtime span")
	}
}

func TestListAndExperiment(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 || !strings.Contains(stdout, "figure2") || !strings.Contains(stdout, "protocols") {
		t.Errorf("-list: exit %d, output:\n%s", code, stdout)
	}
	code, stdout, stderr := runCLI("-experiment", "protocols", "-par", "2", "-csv")
	if code != 0 {
		t.Fatalf("-experiment protocols: exit %d: %s", code, stderr)
	}
	if rows := strings.Count(stdout, ",true,"); rows != 9 {
		t.Errorf("protocols table has %d completed rows, want 9:\n%s", rows, stdout)
	}
}
