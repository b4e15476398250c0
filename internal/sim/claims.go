package sim

// The claims table: what the reproduction asserts about each experiment's
// table, and where the assertion comes from. hetsim prints every
// experiment's verdicts after its table (Experiment.Verdicts), and
// TestRegistryWorkersIdentical requires every claim to hold at quick scale,
// seed 42.

import (
	"fmt"
	"math"

	"repro/internal/gossip"
	"repro/internal/stats"
)

// Claim is one row of the claims table: a one-line statement about one
// experiment's table, its source, and the check deciding it on a table the
// experiment returned (nil when the statement holds).
type Claim struct {
	ID         string
	Source     string // a figure, section, lemma or theorem of the paper, or a PAPERS.md entry
	Experiment string // the registry name of the experiment whose table it reads
	Statement  string
	Check      func(*stats.Table) error
}

// view reads one table for a check: its rows, and a row's cells by header.
// A header the table lacks, a key no row holds or a row past the end fails
// the check, so no claim holds vacuously.
type view struct {
	t   *stats.Table
	err error
}

// row is row i of a view; i is -1 for a row that is not there.
type row struct {
	v *view
	i int
}

// fail records a failure unless an earlier one is recorded.
func (v *view) fail(format string, a ...any) {
	if v.err == nil {
		v.err = fmt.Errorf(format, a...)
	}
}

func (v *view) rows() []row {
	rs := make([]row, v.t.NumRows())
	for i := range rs {
		rs[i] = row{v, i}
	}
	return rs
}

// at is row i, counted from the end when i is negative.
func (v *view) at(i int) row {
	if i < 0 {
		i += v.t.NumRows()
	}
	if i < 0 || i >= v.t.NumRows() {
		v.fail("too few rows")
		i = -1
	}
	return row{v, i}
}

// find is the first row whose cell under header reads key.
func (v *view) find(header, key string) row {
	for _, r := range v.rows() {
		if r.text(header) == key {
			return r
		}
	}
	v.fail("no row with %s %q", header, key)
	return row{v, -1}
}

func (r row) cell(header string) stats.Cell {
	if col := r.v.t.Col(header); col != nil && r.i >= 0 {
		return col[r.i]
	}
	r.v.fail("no column %q", header)
	return stats.Cell{Num: math.NaN()}
}

func (r row) num(header string) float64 { return r.cell(header).Num }

// first reports whether r is the view's first row, and prev is the row
// before it.
func (r row) first() bool { return r.i == 0 }
func (r row) prev() row   { return r.v.at(r.i - 1) }

func (r row) text(header string) string { return r.cell(header).Text }

// holds is the check that pred holds on a table.
func holds(pred func(v *view) bool) func(*stats.Table) error {
	return func(t *stats.Table) error {
		v := &view{t: t}
		if !pred(v) {
			v.fail("does not hold")
		}
		return v.err
	}
}

// every is the check that pred holds on every row.
func every(pred func(r row) bool) func(*stats.Table) error {
	return holds(func(v *view) bool {
		for _, r := range v.rows() {
			if !pred(r) {
				v.fail("fails on row %d", r.i+1)
				return false
			}
		}
		return true
	})
}

// rows is the check that a table has exactly n rows.
func rows(n int) func(*stats.Table) error {
	return holds(func(v *view) bool { return v.t.NumRows() == n })
}

// decades reports whether a figure's n column reads 10, 100, 1000, ... over
// at least four rows: its sizes at every scale.
func decades(v *view) bool {
	ok := v.t.NumRows() >= 4
	for _, r := range v.rows() {
		ok = ok && r.num("n") == math.Pow10(r.i+1)
	}
	return ok
}

func between(x, lo, hi float64) bool { return lo <= x && x <= hi }

// latency is E7's per-message latency L, read off a row: naive = 3kL + 1.
func latency(r row) float64 { return (r.num("naive ticks") - 1) / (3 * r.num("k rounds")) }

// claims is the claims table. Its tolerances are statistical: every claim
// holds at quick scale for root seeds 9 and 42 (TestRegistryWorkersIdentical
// checks seed 42).
var claims = []Claim{
	{"F1.rows", "Figure 1", "figure1", "one row per n in {10, 100, 1000, ...}, at least four", holds(decades)},
	{"F1.uniform", "Figure 1", "figure1", "uniform selection arranges 0.44-0.56 of m at every n",
		every(func(r row) bool { return between(r.num("uniform"), 0.44, 0.56) })},
	{"F1.dht", "Figure 1", "figure1", "the worst DHT overlay beats uniform and arranges >= 0.50 of m (paper: >= 0.52)",
		every(func(r row) bool { w := r.num("dht-worst"); return w > r.num("uniform") && w >= 0.50 })},
	{"F1.best", "Figure 1", "figure1", "the best overlay is no worse than the worst one",
		every(func(r row) bool { return r.num("dht-best") >= r.num("dht-worst") })},
	{"F1.shrinks", "Figure 1", "figure1", "the best overlay arranges less at the largest n than at the smallest",
		holds(func(v *view) bool { return v.at(0).num("dht-best") > v.at(-1).num("dht-best") })},

	{"F2.rows", "Figure 2", "figure2", "one row per n in {10, 100, 1000, ...}, at least four", holds(decades)},
	{"F2.order", "Figure 2", "figure2", "push-pull is the fastest algorithm and dating the slowest at every n",
		every(func(r row) bool {
			pp, dat := r.num("push-pull"), r.num("dating")
			ok := pp > 0 && dat > 0
			for _, a := range gossip.Algorithms() {
				ok = ok && between(r.num(a.String()), pp-1e-9, dat+1e-9)
			}
			return ok
		})},
	{"F2.growth", "Figure 2", "figure2", "every algorithm takes more rounds at the largest n than at the smallest",
		holds(func(v *view) bool {
			ok := true
			for _, a := range gossip.Algorithms() {
				ok = ok && v.at(-1).num(a.String()) > v.at(0).num(a.String())
			}
			return ok
		})},

	{"E3.rows", "Lemmas 1-2", "alpha", "one row per m/n in {1, 2, 4, 8}", rows(4)},
	{"E3.increasing", "Lemmas 1-2", "alpha", "the arranged fraction E[X]/m strictly increases with m/n",
		every(func(r row) bool { return r.first() || r.num("fraction") > r.prev().num("fraction") })},
	{"E3.base", "Lemmas 1-2", "alpha", "at m/n = 1 the arranged fraction lies in [0.44, 0.52]",
		holds(func(v *view) bool { return between(v.find("m/n", "1").num("fraction"), 0.44, 0.52) })},

	{"E4.rows", "Figure 1 (conjecture)", "ablation", "at least five selection distributions",
		holds(func(v *view) bool { return v.t.NumRows() >= 5 })},
	{"E4.uniform-worst", "Figure 1 (conjecture)", "ablation", "no distribution arranges less than uniform - 0.01",
		every(func(r row) bool {
			u := r.v.find("distribution", "uniform").num("fraction")
			return u != 0 && r.num("fraction") >= u-0.01
		})},

	{"E5.order", "Theorem 4", "phases", "the three phases end in order, phase 1 at round 1 or later",
		holds(func(v *view) bool {
			const end = "ends at round (mean)"
			p1, p2, p3 := v.at(0).num(end), v.at(1).num(end), v.at(2).num(end)
			return 1 <= p1 && p1 <= p2 && p2 <= p3
		})},

	{"E6.rich-first", "Theorem 10", "hierarchical", "rich nodes are all informed before the whole network, at every n",
		every(func(r row) bool { return r.num("rich informed by") < r.num("all informed by") })},

	{"E7.latency", "Section 4", "pipelining", "one Chord lookup costs L >= 2 ticks",
		holds(func(v *view) bool { return latency(v.at(0)) >= 2 })},
	{"E7.pipelined", "Section 4", "pipelining", "past k = 1 the handshake takes fewer ticks than the naive 3kL + 1",
		every(func(r row) bool { return r.num("k rounds") <= 1 || r.num("measured ticks") < r.num("naive ticks") })},
	{"E7.three-ticks", "Section 4", "pipelining", "each further dating round adds exactly 3 ticks, whatever L",
		every(func(r row) bool {
			return r.first() || r.num("measured ticks")-r.prev().num("measured ticks") == 3*(r.num("k rounds")-r.prev().num("k rounds"))
		})},
	{"E7.speedup", "Section 4", "pipelining", "at the largest k the speedup over naive is at least L/2",
		holds(func(v *view) bool {
			last := v.at(-1)
			return last.num("naive ticks")/last.num("measured ticks") >= latency(v.at(0))/2
		})},
	{"E7.dates", "Section 4", "pipelining", "every k arranges dates under the latency",
		every(func(r row) bool { return r.num("dates/round latency") != 0 })},
	{"E7.date-loss", "Section 4", "pipelining", "at the largest k the latency costs at most 2% of sync's dates per round",
		holds(func(v *view) bool {
			last := v.at(-1)
			return math.Abs(last.num("dates/round latency")/last.num("dates/round sync")-1) <= 0.02
		})},

	{"E8.bound", "Section 5", "mongering", "B blocks take at least B rounds and at most 6B + 40",
		every(func(r row) bool { lb := r.num("lower bound"); return between(r.num("rounds"), lb, 6*lb+40) })},
	{"E8.innovative", "Section 5", "mongering", "the innovative fraction of packets lies in (0, 1]",
		every(func(r row) bool { e := r.num("innovative fraction"); return e > 0 && e <= 1 })},

	{"E9.complete", "Section 1", "churn", "every run completes at every crash probability",
		every(func(r row) bool { return r.num("completed") == 1 })},
	{"E9.crashes", "Section 1", "churn", "nodes crash if and only if the crash probability is positive",
		every(func(r row) bool { return (r.num("crash prob") > 0) == (r.num("nodes crashed") > 0) })},

	{"E10.replicates", "Section 5", "storage", "replication completes, no node exceeds its 12 slots, wasted dates stay in [0, 0.9]",
		holds(func(v *view) bool {
			m := func(metric string) float64 { return v.find("metric", metric).num("value") }
			return m("rounds to full replication") > 0 && m("max occupancy") <= 12 && between(m("wasted-date fraction"), 0, 0.9)
		})},

	{"E11.rows", "Section 5", "multirumor", "one row per rumor count in {1, 2, 4, 8}", rows(4)},
	{"E11.sharing", "Section 5", "multirumor", "R rumors finish before R sequential broadcasts, and at most 3 rounds before one rumor",
		every(func(r row) bool {
			single := r.v.find("rumors", "1").num("all-done rounds")
			rumors, rounds := r.num("rumors"), r.num("all-done rounds")
			return single > 0 && rounds > 0 && r.num("per-rumor mean") > 0 && rounds >= single-3 && (rumors <= 1 || rounds < single*rumors)
		})},
	{"E11.monotone", "Section 5", "multirumor", "all-done rounds never fall as the rumor count grows",
		every(func(r row) bool { return r.first() || r.num("all-done rounds") >= r.prev().num("all-done rounds") })},

	{"E12.dating", "Figure 2 (fairness)", "loads", "dating's worst per-round loads stay within unit bandwidth",
		holds(func(v *view) bool {
			d := v.find("algorithm", "dating")
			return d.num("max in-load") <= 1 && d.num("max out-load") <= 1
		})},
	{"E12.unfair", "Figure 2 (fairness)", "loads", "push overdrives receivers and pull overdrives servers (worst load >= 2)",
		holds(func(v *view) bool {
			return v.find("algorithm", "push").num("max in-load") >= 2 && v.find("algorithm", "pull").num("max out-load") >= 2
		})},
	{"E12.fair-pull", "Figure 2 (fairness)", "loads", "fair pull serves at most one request per round",
		holds(func(v *view) bool { return v.find("algorithm", "fair-pull").num("max out-load") <= 1 })},

	{"E13.rows", "Section 1", "dynamicdht", "one row per replacement probability in {0, 0.005, 0.02}", rows(3)},
	{"E13.spreads", "Section 1", "dynamicdht", "coverage reaches 95% at every rate, and nodes are replaced iff p > 0",
		every(func(r row) bool {
			return r.num("rounds to 95%") > 0 && (r.num("replace prob") > 0) == (r.num("nodes replaced") > 0)
		})},
	{"E13.steady", "Section 1", "dynamicdht", "steady coverage is >= 0.999 without churn, >= 0.90 at p = 0.02, and lower with churn",
		holds(func(v *view) bool {
			calm, churned := v.at(0).num("steady-state coverage"), v.at(-1).num("steady-state coverage")
			return calm >= 0.999 && churned >= 0.90 && churned < calm
		})},

	{"live.rows", "Algorithm 1", "live", "one row per network model, sync to churn-10%", rows(len(liveModels(0, 1)))},
	{"live.models", "Algorithm 1", "live", "the models in liveModels' order",
		every(func(r row) bool { ms := liveModels(0, 1); return r.i < len(ms) && r.text("model") == ms[r.i].name })},
	{"live.complete", "Algorithm 1", "live", "the spread completes under every model, with dating rounds and messages",
		every(func(r row) bool {
			return r.text("completed") == "true" && r.num("dating rounds") > 0 && r.num("messages") > 0
		})},
	{"live.loss", "Algorithm 1", "live", "10% loss spreads no faster than the synchronous network",
		holds(func(v *view) bool {
			return v.find("model", "loss-10%").num("dating rounds") >= v.find("model", "sync").num("dating rounds")
		})},

	{"async.rows", "Patsonakis & Roussopoulos", "async", "two unit-profile sizes x {sync push-pull, async}, then a Zipf pair", rows(6)},
	{"async.complete", "Patsonakis & Roussopoulos", "async", "every run completes with t50 <= t90 <= time and positive steps and messages",
		every(func(r row) bool {
			return r.text("completed") == "true" && r.num("t50") <= r.num("t90") && r.num("t90") <= r.num("time") &&
				r.num("steps") > 0 && r.num("messages") > 0
		})},
	{"async.modes", "Patsonakis & Roussopoulos", "async", "sync push-pull and async rows, and sync dating on a zipf profile",
		holds(func(v *view) bool {
			v.find("mode", "sync-push-pull")
			v.find("mode", "async")
			return v.find("mode", "sync-dating").text("profile") == "zipf"
		})},

	{"topo.rows", "Moreno, Nekovee & Pacheco", "topology", "five alphas x {BA random, BA hub, ER, complete}", rows(20)},
	{"topo.spread", "Moreno, Nekovee & Pacheco", "topology", "final spread lies in (0, 1], and is 1 on the complete graph at alpha = 0",
		every(func(r row) bool {
			s := r.num("final spread")
			return s > 0 && s <= 1 && (r.text("graph") != "complete" || r.num("alpha") != 0 || s == 1)
		})},
	{"topo.hub", "Moreno, Nekovee & Pacheco", "topology", "five hub-start rows, all on the BA graph",
		holds(func(v *view) bool {
			hubs, ok := 0, true
			for _, r := range v.rows() {
				if r.text("start") == "hub" {
					hubs++
					ok = ok && r.text("graph") == "ba"
				}
			}
			return ok && hubs == 5
		})},
	{"topo.alpha", "Moreno, Nekovee & Pacheco", "topology", "BA spread from a random source never grows with alpha",
		holds(func(v *view) bool {
			prev, ok := 2.0, true
			for _, r := range v.rows() {
				if r.text("graph") == "ba" && r.text("start") == "random" {
					ok = ok && r.num("final spread") <= prev
					prev = r.num("final spread")
				}
			}
			return ok
		})},

	{"cons.rows", "Elouafiq et al.", "consensus", "K in {2, 3, 5} x three seedings x three rules, on two graphs", rows(54)},
	{"cons.agreement", "Elouafiq et al.", "consensus", "agreement lies in (0, 1] in every row",
		every(func(r row) bool { a := r.num("agreement"); return a > 0 && a <= 1 })},
	{"cons.latest", "Elouafiq et al.", "consensus", "every latest-rule row converges, to the last-stamped variant K",
		every(func(r row) bool {
			return r.text("rule") != "latest" || r.text("completed") == "true" && r.num("winner") == r.num("K")
		})},
	{"cons.majority", "Elouafiq et al.", "consensus", "every majority-rule row on the complete graph converges",
		every(func(r row) bool {
			return r.text("graph") != "complete" || r.text("rule") != "majority" || r.text("completed") == "true"
		})},
}
