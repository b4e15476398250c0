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
// bandwidth; the Result records the worst per-round loads so experiments
// can quantify how badly each baseline overdrives nodes.
//
// # Stepped protocols
//
// Four protocols run message by message on the shard runtimes: the dating
// handshake (LiveConfig), graph spreading (TopologyConfig) and
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
	"time"

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
	run.Stepped
	ItHistory []int // total outgoing bandwidth of informed nodes per round
	// MaxInLoad / MaxOutLoad record the largest number of rumor messages a
	// single node received / served in one round; the dating spreader keeps
	// these within the profile bounds by construction, the baselines do not.
	MaxInLoad  int
	MaxOutLoad int
	Crashed    int // nodes crashed during the run
}

// state is the per-run mutable state shared by all algorithm steppers.
// count and it follow informed as it changes, so no round scans n nodes.
type state struct {
	informed []bool
	next     []bool      // receivers the round informs, set and cleared by apply
	dead     []bool      // nil until the first crash
	crashed  int         // entries of dead that are true
	count    int         // informed live nodes
	it       int         // their outgoing bandwidth, I_t
	out, in  []int32     // a round's loads, zero between rounds
	dates    []core.Date // a baseline round's transfers, reused
	profile  bandwidth.Profile
}

// up reports whether node i is alive.
func (st *state) up(i int) bool { return st.dead == nil || !st.dead[i] }

func (st *state) inform(i int) {
	st.informed[i] = true
	st.count++
	st.it += st.profile.Out[i]
}

// crash takes live node i down; an informed node leaves count and I_t.
func (st *state) crash(i int) {
	if st.dead == nil {
		st.dead = make([]bool, len(st.informed))
	}
	st.dead[i] = true
	st.crashed++
	if st.informed[i] {
		st.count--
		st.it -= st.profile.Out[i]
	}
}

// done reports whether every live node is informed.
func (st *state) done() bool { return st.count == len(st.informed)-st.crashed }

// send records a baseline's rumor transfer from an informed node.
func (st *state) send(from, to int) {
	st.dates = append(st.dates, core.Date{Sender: int32(from), Receiver: int32(to)})
}

// apply is every algorithm's round epilogue, O(dates): each transfer loads
// its sender's out and its receiver's in, and informs a live receiver iff
// the sender was informed at the start of the round. A dating round's dates
// all load the profile whether or not they carry the rumor; a baseline's
// transfers all come from informed nodes. It returns the round's largest
// loads and leaves out, in and next zero again.
func (st *state) apply(dates []core.Date) (maxOut, maxIn int) {
	for _, d := range dates {
		s, r := d.Sender, d.Receiver
		st.out[s]++
		st.in[r]++
		maxOut = max(maxOut, int(st.out[s]))
		maxIn = max(maxIn, int(st.in[r]))
		if st.informed[s] && !st.informed[r] && st.up(int(r)) {
			st.next[r] = true
		}
	}
	for _, d := range dates {
		r := d.Receiver
		st.out[d.Sender], st.in[r] = 0, 0
		if st.next[r] {
			st.next[r] = false
			st.inform(int(r))
		}
	}
	return maxOut, maxIn
}

// stepFunc advances one synchronous round: it reads st.informed, the
// start-of-round state, and returns the round's transfers for apply.
type stepFunc func(st *state, s *rng.Stream) ([]core.Date, error)

// spread is the body of Config.Execute: one spreading run. Every dating
// round runs on the seeded engine: randomness derives per node and per
// rendezvous from a per-round seed drawn off s, so the run stream advances
// by exactly one value per dating round regardless of how the round is
// parallelized. With a non-nil b every dating round runs with the caller's
// worker plus whatever spare tokens the pool has that round, a pure speed
// knob. tr, when non-nil, receives a whole-round span per round and the
// per-round gauges (messages moved, budget tokens in flight beyond the
// implicit ones); observation is read-only and never touches the stream.
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

	var step stepFunc
	switch cfg.Algorithm {
	case Push:
		step = stepPush
	case Pull:
		step = stepPull
	case PushPull:
		step = stepPushPull
	case FairPull:
		step = stepFairPull
	case FairPushPull:
		step = stepFairPushPull
	case Dating:
		sel, err := core.SelectorFor(cfg.Selector, n)
		if err != nil {
			return Result{}, err
		}
		svc, err := core.NewService(profile, sel)
		if err != nil {
			return Result{}, err
		}
		step = datingStep(svc, b)
	default:
		return Result{}, fmt.Errorf("gossip: unknown algorithm %v", cfg.Algorithm)
	}

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultRoundCap(n)
	}

	st := &state{
		informed: make([]bool, n),
		next:     make([]bool, n),
		out:      make([]int32, n),
		in:       make([]int32, n),
		profile:  profile,
	}
	st.inform(cfg.Source)
	// The round span times the step alone; with no observer attached the
	// arena is nil and the round path makes no time.Now call.
	arena, gSent, gBudget := tr.Arena(0), tr.Gauge("sent"), tr.Gauge("budget_in_flight")
	var res Result
	var err error
	res.Stepped, err = run.Drive(maxRounds, tr, func(round int) (int, int, bool, error) {
		if cfg.CrashProb > 0 {
			for i := 0; i < n; i++ {
				if i != cfg.Source && st.up(i) && s.Bernoulli(cfg.CrashProb) {
					st.crash(i)
				}
			}
		}
		st.dates = st.dates[:0]
		var t0 time.Time
		if arena != nil {
			t0 = time.Now()
		}
		dates, err := step(st, s)
		if err != nil {
			return 0, 0, false, err
		}
		arena.Record(round, obs.PhaseRound, t0)
		maxOut, maxIn := st.apply(dates)
		res.MaxOutLoad = max(res.MaxOutLoad, maxOut)
		res.MaxInLoad = max(res.MaxInLoad, maxIn)
		res.ItHistory = append(res.ItHistory, st.it)
		if cfg.OnRound != nil {
			cfg.OnRound(round, st.informed)
		}
		if tr != nil {
			gSent.Sample(round, int64(len(dates)))
			gBudget.Sample(round, int64(b.InFlight()))
		}
		return len(dates), st.count, st.done(), nil
	})
	if err != nil {
		return Result{}, err
	}
	res.Crashed = st.crashed
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
// clock rate of the async protocol, the neighbor weight of weighted topology
// runs and the influence weight of RuleWeighted.
func meanBandwidth(p bandwidth.Profile) []float64 {
	w := make([]float64, p.N())
	for i := range w {
		w[i] = float64(p.In[i]+p.Out[i]) / 2
	}
	return w
}
