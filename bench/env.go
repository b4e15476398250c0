package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// manifest says what was run on what: printed at the top of every output so
// that a number is never read without its hardware.
type manifest struct {
	Workload   string `json:"workload"`
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`
	Shards     int    `json:"shards_P"`
	Reps       string `json:"repetitions"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_rev"`
}

func printManifest(out io.Writer, cfg config, wl workload) {
	pl := cfg.plan()
	reps := fmt.Sprintf("%d+ builds, 1 warm-up, passes over %d run seeds each timed at P and at 1 shard, for %gs", pl.builds, pl.seeds, cfg.seconds)
	if cfg.trace {
		reps = fmt.Sprintf("1 build, 1 warm-up, %d untraced and %d traced at P alternating, 1 untraced at 1 shard, probes", pl.tracedPairs, pl.tracedPairs)
	}
	m := manifest{
		Workload: wl.name, N: cfg.size(wl), Seed: cfg.seed, Shards: cfg.workers, Reps: reps,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), GitRev: gitRev(),
	}
	line, _ := json.Marshal(m) // a struct of strings and ints cannot fail
	fmt.Fprintf(out, "workload %s\n  env: %s\n", wl.name, line)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
