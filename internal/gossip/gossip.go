// Package gossip implements rumor spreading on top of the dating service
// (paper, Section 3) together with the five classical baselines the paper
// compares against in Figure 2: PUSH, PULL, PUSH&PULL, fair PULL, and fair
// PUSH&PULL [KSSV00].
//
// A single node starts with the rumor; rounds are synchronous, and in each
// round the algorithm decides who communicates with whom. The dating-based
// spreader follows the paper exactly: nodes never stop sending requests
// once informed, nor stop sending offers while uninformed — the protocol
// stays oblivious to who knows what, which is what makes it robust to
// dynamics. A date transmits the rumor iff its sender was informed at the
// start of the round.
//
// Unlike the baselines, the dating spreader never exceeds any node's
// bandwidth; the Result records the worst per-round loads (MaxInLoad,
// MaxOutLoad) so experiments can quantify how badly each baseline
// overdrives nodes.
//
// # Stepped protocols
//
// Five specs run message by message on the shard runtimes: rumor spreading
// over the dating handshake (LiveConfig), the bare handshake
// (HandshakeConfig), graph spreading (TopologyConfig) and
// conflicting-rumor consensus (ConsensusConfig) on the round runtime of
// internal/live, and asynchronous push&pull (AsyncConfig) on the calendar
// of internal/async. Each brings its per-peer state, its step (or fire and
// receive) functions and an observe predicate, and runs on the one round
// loop of every protocol, described in internal/run's package comment.
// Every result embeds the same Stepped fields.
//
// Per-peer state is flat, indexed by peer id, and written only by the
// shard stepping that peer. Each protocol's state byte carries a tally:
// per step shard, a cache-line-padded row of counters by state, updated
// only when a peer's state changes, so observe sums a few counters instead
// of scanning n peers. The rows follow the runtime's step cuts, which
// async balances by clock rate.
package gossip

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
)

// Algorithm selects a rumor spreading protocol.
type Algorithm int

// The algorithms of Figure 2, plus the paper's dating-service spreader.
const (
	Push Algorithm = iota
	Pull
	PushPull
	FairPull
	FairPushPull
	Dating
)

var algoNames = [...]string{"push", "pull", "push-pull", "fair-pull", "fair-push-pull", "dating"}

// String returns the algorithm's name as used in tables.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algoNames) {
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
	return algoNames[a]
}

// Algorithms lists every implemented algorithm in Figure 2 display order.
func Algorithms() []Algorithm {
	return []Algorithm{PushPull, FairPushPull, Pull, FairPull, Push, Dating}
}

// Config parameterizes a spreading run.
type Config struct {
	Algorithm Algorithm
	// Profile is required for Dating; baselines ignore it (they implicitly
	// assume unit bandwidth, as in the paper's comparison).
	Profile bandwidth.Profile
	// Selector is the dating service's selection distribution; baselines
	// always choose uniformly (they fundamentally require that ability,
	// which is the paper's point). Defaults to uniform when nil.
	Selector core.Selector
	// N is the node count; required when Profile is unset.
	N int
	// Source is the initially informed node.
	Source int
	// MaxRounds caps the simulation (0 means 64*log2(n)+64, far beyond any
	// plausible completion time).
	MaxRounds int
	// CrashProb, if positive, crashes each live non-source node with this
	// probability at the start of every round (experiment E9).
	CrashProb float64
	// OnRound, if non-nil, observes the informed set after each round; the
	// slice must not be retained or modified.
	OnRound func(round int, informed []bool)
}

func (c *Config) n() int {
	if c.Profile.N() > 0 {
		return c.Profile.N()
	}
	return c.N
}

// Result reports one spreading run. Completed means every live node was
// informed, History is the informed node count after each round, and
// SentHistory the messages moved per round: all arranged dates for the
// dating spreader (every date consumes bandwidth whether or not it carries
// the rumor), rumor transmissions for the baselines.
type Result struct {
	run.FlatResult
	ItHistory []int // total outgoing bandwidth of informed nodes per round
}

// state is the per-run mutable state shared by all algorithm steppers.
// count and it follow informed as it changes, so no round scans n nodes.
type state struct {
	f        *run.Flat // the run's round loop, which keeps the crash mask
	informed []bool
	live     int         // nodes not crashed
	count    int         // informed live nodes
	it       int         // their outgoing bandwidth, I_t
	dates    []core.Date // a baseline round's transfers, reused
	// The fair baselines' reservoir, zero between rounds: winner[t] is one
	// more than the caller node t answers (0 for none) of the seen[t] that
	// asked. Allocated by the first fair round.
	winner, seen []int32
	profile      bandwidth.Profile
}

// newState returns the state of a spread over profile p in which no node
// is informed yet, driven by f.
func newState(f *run.Flat, p bandwidth.Profile) *state {
	return &state{f: f, informed: make([]bool, p.N()), live: p.N(), profile: p}
}

func (st *state) inform(i int) {
	st.informed[i] = true
	st.count++
	st.it += st.profile.Out[i]
}

// crash takes live node i down in f's crash mask and out of the live
// nodes; an informed node leaves count and I_t.
func (st *state) crash(i int) {
	st.f.Crash(i)
	st.live--
	if st.informed[i] {
		st.count--
		st.it -= st.profile.Out[i]
	}
}

// done reports whether every live node is informed.
func (st *state) done() bool { return st.count == st.live }

// send records a baseline's rumor transfer from an informed node.
func (st *state) send(from, to int) {
	st.dates = append(st.dates, core.Date{Sender: int32(from), Receiver: int32(to)})
}

// apply is every algorithm's round epilogue, O(dates): a transfer informs
// a live receiver iff its sender was informed at the start of the round. A
// dating round's dates are all arranged whether or not they carry the
// rumor; a baseline's transfers all come from informed nodes. The
// transfers that inform are gathered at the front of dates first, so no
// receiver forwards the rumor in the round it gets it.
func (st *state) apply(dates []core.Date) {
	k := 0
	for _, d := range dates {
		if r := d.Receiver; st.informed[d.Sender] && !st.informed[r] && st.f.Up(int(r)) {
			dates[k] = d
			k++
		}
	}
	for _, d := range dates[:k] {
		if r := d.Receiver; !st.informed[r] {
			st.inform(int(r))
		}
	}
}

// stepFunc advances one synchronous baseline round: it reads st.informed,
// the start-of-round state, and records the round's transfers with st.send.
type stepFunc func(st *state, s *rng.Stream)

// spread is the body of Config.Execute: one spreading run on run.Flat
// (s, b and tr are Flat's). A dating round's dates come from the
// service, a baseline's from its step over st.informed, and apply carries
// the rumor along them.
func spread(cfg Config, s *rng.Stream, b *par.Budget, tr *obs.Track) (Result, error) {
	n := cfg.n()
	if n <= 0 {
		return Result{}, fmt.Errorf("gossip: config needs N or a Profile")
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return Result{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	if !(cfg.CrashProb >= 0 && cfg.CrashProb < 1) { // NaN fails both
		return Result{}, fmt.Errorf("gossip: crash probability %v out of [0,1)", cfg.CrashProb)
	}
	profile := cfg.Profile
	if profile.N() == 0 {
		profile = bandwidth.Homogeneous(n, 1)
	}
	if cfg.Algorithm < 0 || cfg.Algorithm > Dating {
		return Result{}, fmt.Errorf("gossip: unknown algorithm %v", cfg.Algorithm)
	}
	step := baselines[cfg.Algorithm]
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultRoundCap(n)
	}

	var res Result
	sent := 0
	f := &run.Flat{N: n, Limit: maxRounds, Selector: cfg.Selector}
	st := newState(f, profile)
	st.inform(cfg.Source)
	if cfg.CrashProb > 0 {
		// Every live node but the source crashes with CrashProb at the
		// start of a round, one draw each, before the round's seed.
		f.Churn = func(s *rng.Stream) error {
			for i := range n {
				if i != cfg.Source && f.Up(i) && s.Bernoulli(cfg.CrashProb) {
					st.crash(i)
				}
			}
			return nil
		}
	}
	if step == nil {
		f.Profile = profile
	} else {
		f.Step = func(s *rng.Stream) []core.Date {
			st.dates = st.dates[:0]
			step(st, s)
			return st.dates
		}
	}
	f.Dates = func(_ int, dates []core.Date) error {
		st.apply(dates)
		sent = len(dates)
		return nil
	}
	f.End = func(round int) (int, int, bool) {
		res.ItHistory = append(res.ItHistory, st.it)
		if cfg.OnRound != nil {
			cfg.OnRound(round, st.informed)
		}
		return st.count, sent, st.done()
	}
	var err error
	if res.FlatResult, err = f.Drive(s, b, tr); err != nil {
		return Result{}, err
	}
	return res, nil
}

// defaultRoundCap is the generous cap every protocol of this package runs
// under when its config sets none: 64 + 64·⌈log2 n⌉ rounds (or time units),
// far beyond any plausible completion of an O(log n) spread.
func defaultRoundCap(n int) int {
	rounds := 64
	for v := 1; v < n; v <<= 1 {
		rounds += 64
	}
	return rounds
}

// meanBandwidth returns each node's mean profile bandwidth (bin+bout)/2: the
// clock rate of the async protocol and the influence weight of
// RuleWeighted.
func meanBandwidth(p bandwidth.Profile) []float64 {
	w := make([]float64, p.N())
	for i := range w {
		w[i] = float64(p.In[i]+p.Out[i]) / 2
	}
	return w
}
