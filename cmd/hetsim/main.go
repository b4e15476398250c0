// Command hetsim is the repository's one command: it regenerates every
// figure and extension experiment of the registry (`hetsim -list`), or runs
// one protocol of the spec table once at any size.
//
// Usage:
//
//	hetsim [-experiment <name>|all] [-scale quick|paper] [-seed N] [-par N]
//	       [-csv] [-list] [-trace FILE] [-metrics] [-pprof ADDR]
//	hetsim -protocol <name> [-n N] [-seed N] [-par N] [-csv]
//	       [-trace FILE] [-metrics] [-pprof ADDR]
//
// -experiment figure1 and -experiment figure2 are the paper's two figures.
// Each experiment's table is followed by its claims table: every claim the
// reproduction makes about that table (claim, source, statement), with the
// verdict "holds" or the violation found. A failing claim is reported, not
// an error: the exit status is still 0. -par fans every experiment's jobs —
// its repetitions and sweep cells — across N goroutines (default
// GOMAXPROCS). Each job's seed is derived from (seed, experiment domain,
// job coordinates), so every table is a pure function of (scale, seed),
// byte-identical for every -par value; the flag is purely a wall-clock knob.
//
// -protocol runs one row of the spec table (rumor, multirumor, live,
// monger, storage, handshake, async, topology, consensus) once at -n peers
// with -par as the run's worker budget, and prints that row with its wall
// time. Its digest column is a pure function of (protocol, n, seed), so two
// runs that differ in -par, -trace or -metrics must print the same one.
// This is the way to trace or profile one big run:
//
//	hetsim -protocol live -n 1000000 -par 2 -trace out.json -pprof localhost:6060
//
// -trace FILE attaches the read-only instrumentation observer to every run
// executed and writes a Chrome trace_event timeline on exit; -metrics prints
// the aggregated phase/gauge summary to stderr; -pprof ADDR serves
// net/http/pprof and expvar while the runs execute. None of the three
// changes any table: observation is deterministic-by-construction.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expName := fs.String("experiment", "all", "which experiment to run (or 'all')")
	protocol := fs.String("protocol", "", "run this one protocol once at -n peers instead of an experiment")
	n := fs.Int("n", 100_000, "peer count of the -protocol run")
	scaleName := fs.String("scale", "quick", "experiment sizing: quick or paper")
	seed := fs.Uint64("seed", 42, "root random seed")
	par := fs.Int("par", runtime.GOMAXPROCS(0), "worker budget: an experiment's job goroutines, a -protocol run's workers (results identical for any value)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	list := fs.Bool("list", false, "list available experiments and exit")
	tracePath := fs.String("trace", "", "write a Chrome trace_event timeline to this file (about:tracing / ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "print instrumentation summary tables to stderr after the run")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if *list {
		for _, e := range sim.Registry() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.Name, e.About)
		}
		return 0
	}

	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hetsim: "+format+"\n", a...)
		return 2
	}
	scale, err := sim.ParseScale(*scaleName)
	if err != nil {
		return usage("%v", err)
	}
	var exps []sim.Experiment
	switch {
	case *protocol != "":
		if given["experiment"] {
			return usage("-protocol and -experiment exclude each other")
		}
		if !slices.Contains(sim.ProtocolNames(), *protocol) {
			return usage("unknown protocol %q; available: %s", *protocol, strings.Join(sim.ProtocolNames(), " "))
		}
		if *n < 1 {
			return usage("-n %d: the peer count must be positive", *n)
		}
	case given["n"]:
		return usage("-n sizes a -protocol run; experiments are sized by -scale")
	default:
		var names []string
		for _, e := range sim.Registry() {
			names = append(names, e.Name)
			if *expName == "all" || *expName == e.Name {
				exps = append(exps, e)
			}
		}
		if len(exps) == 0 {
			return usage("unknown experiment %q; available: %s", *expName, strings.Join(names, " "))
		}
	}

	var observer *obs.Observer
	if *tracePath != "" || *metrics || *pprofAddr != "" {
		observer = obs.NewObserver()
	}
	if *pprofAddr != "" {
		obs.Publish(observer)
		_, addr, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "hetsim:", err)
			return 1
		}
		fmt.Fprintf(stderr, "hetsim: pprof at http://%s/debug/pprof/, expvar at /debug/vars\n", addr)
	}
	// Export on every exit path: a trace of a failing run is the one you
	// want to look at.
	defer func() {
		if observer == nil {
			return
		}
		if *tracePath != "" {
			if err := observer.WriteTraceFile(*tracePath); err != nil {
				fmt.Fprintln(stderr, "hetsim:", err)
			}
		}
		if *metrics {
			fmt.Fprint(stderr, observer.Summary())
		}
	}()
	emit := func(t *stats.Table) {
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprint(stdout, t.Render())
		}
		fmt.Fprintln(stdout)
	}

	if *protocol != "" {
		t, err := sim.RunProtocol(*protocol, *n, *seed, *par, observer)
		if err != nil {
			fmt.Fprintln(stderr, "hetsim:", err)
			return 1
		}
		emit(t)
		return 0
	}

	for _, e := range exps {
		t, err := e.Run(scale, *seed, *par, observer)
		if err != nil {
			fmt.Fprintf(stderr, "hetsim: %s: %v\n", e.Name, err)
			return 1
		}
		emit(t)
		emit(e.Verdicts(t))
	}
	return 0
}
