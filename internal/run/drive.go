package run

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Stepped is what every protocol reports about its rounds, embedded in its
// result.
type Stepped struct {
	// Rounds is the number of rounds executed: dating rounds, or calendar
	// buckets for async.
	Rounds int
	// Completed reports whether the protocol reached its goal within its
	// round cap (fixed-length protocols complete on their last round).
	Completed bool
	// History is the protocol's progress count after each round: informed
	// peers, known (node, rumor) pairs, decoded nodes, placed replicas,
	// completed dates or decided peers.
	History []int
	// SentHistory is the number of messages (or dates) moved per round.
	SentHistory []int
}

// Drive is the one round loop of every protocol. It calls round(1),
// round(2), ... until a round reports done, limit rounds have run or a round
// fails, records each round's progress and sent count, and publishes tr's
// spans after every round (tr may be nil).
func Drive(limit int, tr *obs.Track, round func(r int) (sent, progress int, done bool, err error)) (Stepped, error) {
	var res Stepped
	for r := 1; r <= limit; r++ {
		sent, progress, done, err := round(r)
		if err != nil {
			return res, err
		}
		res.Rounds = r
		res.History = append(res.History, progress)
		res.SentHistory = append(res.SentHistory, sent)
		tr.Barrier()
		if done {
			res.Completed = true
			break
		}
	}
	return res, nil
}

// Report maps a driven result onto the unified report, with detail as its
// Detail. Messages is the sum of SentHistory, unless traffic — the counters
// of the message engine the protocol ran on — is given: then Messages,
// Dropped and Clamped are the engine's.
func (s Stepped) Report(detail any, traffic *simnet.Stats) Report {
	rep := Report{
		Rounds:     s.Rounds,
		Completed:  s.Completed,
		Trajectory: s.History,
		Sent:       s.SentHistory,
		Messages:   SumSent(s.SentHistory),
		Detail:     detail,
	}
	if traffic != nil {
		rep.Messages, rep.Dropped, rep.Clamped = traffic.Sent, traffic.Dropped, traffic.Clamped
	}
	return rep
}

// SumSent totals a per-round message history.
func SumSent(sent []int) int64 {
	var total int64
	for _, v := range sent {
		total += int64(v)
	}
	return total
}

// Flat is one run of a flat-round protocol, described in the package
// comment: each round's dates carry one unit each.
type Flat struct {
	N, Limit int // node count and round cap
	// Profile is every round's supply and demand, for a Service (zero is
	// unit bandwidth), unless Supply returns the round's, for an Arranger.
	// A round's loads must stay within them.
	Profile  bandwidth.Profile
	Supply   func() (out, in []int)
	Selector core.Selector // nil is uniform over N
	// Step, when set, is the date source instead: a Figure 2 baseline. It
	// draws from the run stream itself, so its rounds draw no seed, and
	// its loads are checked only against a Profile set beside it.
	Step func(s *rng.Stream) []core.Date
	// Churn, when set, changes the network at the start of every round,
	// before its seed: it may Crash nodes, which take no part in dating
	// rounds from then on, or move what Selector addresses. It draws from
	// the run stream, and its error ends the run.
	Churn func(s *rng.Stream) error
	// Dates receives each round's dates, valid until the next round, to
	// read or overwrite; End closes the round: the protocol's progress,
	// what it sent, whether it is done.
	Dates func(round int, dates []core.Date) error
	End   func(round int) (progress, sent int, done bool)

	dead    []bool // nil until the first crash
	crashed int
	// out and in are a round's loads, zero between rounds. Section 4's
	// capacity property keeps a dating round's loads within the profile (8
	// at most on the bimodal benchmark), so 16 bits hold them; a round in
	// which a counter reaches 65 535 is recounted exactly (see load).
	out, in []uint16
}

// FlatResult is what Flat.Drive reports: the rounds, the most dates one
// node sent and received in one round, and the nodes crashed.
type FlatResult struct {
	Stepped
	MaxOutLoad, MaxInLoad, Crashed int
}

// Up reports whether node i is alive.
func (f *Flat) Up(i int) bool { return f.dead == nil || !f.dead[i] }

// Crash takes live node i down for the rest of the run.
func (f *Flat) Crash(i int) {
	if f.dead == nil {
		f.dead = make([]bool, f.N)
	}
	f.dead[i] = true
	f.crashed++
}

// Drive runs f. A round runs Churn, draws one seed off s and arranges
// its dates on the budget b (or takes Step's), counts every node's loads,
// checks them against the round's supply and demand, and hands the dates
// to Dates before End. tr (nil for none) gets a span of each round's date
// source and the sent and budget_in_flight gauges. One seed per round
// keeps every result the same for every budget size.
func (f *Flat) Drive(s *rng.Stream, b *par.Budget, tr *obs.Track) (FlatResult, error) {
	var svc *core.Service
	var arr *core.Arranger
	if f.Step == nil {
		sel, err := core.SelectorFor(f.Selector, f.N)
		switch {
		case err != nil:
		case f.Supply != nil:
			arr, err = core.NewArranger(sel)
		default:
			if f.Profile.N() == 0 {
				f.Profile = bandwidth.Homogeneous(f.N, 1)
			}
			svc, err = core.NewService(f.Profile, sel)
		}
		if err != nil {
			return FlatResult{}, err
		}
	}
	f.out, f.in = make([]uint16, f.N), make([]uint16, f.N)
	profOut, profIn := capacityOf(f.Profile.Out), capacityOf(f.Profile.In)
	// With no observer the arena is nil and a round makes no time.Now call.
	arena, gSent, gBudget := tr.Arena(0), tr.Gauge("sent"), tr.Gauge("budget_in_flight")
	var res FlatResult
	var err error
	res.Stepped, err = Drive(f.Limit, tr, func(round int) (int, int, bool, error) {
		if f.Churn != nil {
			if err := f.Churn(s); err != nil {
				return 0, 0, false, fmt.Errorf("run: round %d: %w", round, err)
			}
		}
		var alive func(i int) bool // read by the engine's workers; fixed in a round
		if f.dead != nil {
			alive = f.Up
		}
		var t0 time.Time
		if arena != nil {
			t0 = time.Now()
		}
		var dates []core.Date
		var err error
		capOut, capIn := profOut, profIn
		switch {
		case f.Step != nil:
			dates = f.Step(s)
		case arr != nil:
			out, in := f.Supply()
			capOut, capIn = capacityOf(out), capacityOf(in)
			dates, err = arr.ArrangeShared(out, in, s.Uint64(), b)
		default:
			dates, err = svc.RunRoundShared(s.Uint64(), b, alive)
		}
		if err == nil {
			arena.Record(round, obs.PhaseRound, t0)
			err = f.load(round, dates, capOut, capIn, &res)
		}
		if err == nil {
			err = f.Dates(round, dates)
		}
		if err != nil {
			return 0, 0, false, err
		}
		progress, sent, done := f.End(round)
		if tr != nil {
			gSent.Sample(round, int64(sent))
			gBudget.Sample(round, int64(b.InFlight()))
		}
		return sent, progress, done, nil
	})
	res.Crashed = f.crashed
	return res, err
}

// capacity is one side of a round's supply or demand and its smallest
// entry, low; without entries nothing is checked.
type capacity struct {
	of  []int
	low int
}

func capacityOf(of []int) capacity {
	if len(of) == 0 {
		return capacity{low: math.MaxInt}
	}
	return capacity{of, slices.Min(of)}
}

// load counts each date against its sender's out and its receiver's in and
// raises res's maxima. Only when a maximum exceeds its side's smallest
// capacity can a node be over, and only then does it scan the node range,
// naming the round and the lowest node beyond its capacity, while it zeroes
// the counters; otherwise it zeroes them by walking the dates again, so a
// round with nothing to check costs nothing proportional to n. The counters
// are 16 bits wide: a round in which one reaches 65 535 (and may have
// wrapped) is recounted exactly with core.RoundResult.PerNode, so the
// maxima and the check are exact for every input, and only such a round
// allocates.
func (f *Flat) load(round int, dates []core.Date, capOut, capIn capacity, res *FlatResult) error {
	out, in := f.out, f.in
	var maxOut, maxIn uint16
	for _, d := range dates {
		s, r := d.Sender, d.Receiver
		out[s]++
		in[r]++
		maxOut, maxIn = max(maxOut, out[s]), max(maxIn, in[r])
	}
	if maxOut == math.MaxUint16 || maxIn == math.MaxUint16 {
		clear(out)
		clear(in)
		exactOut, exactIn := core.RoundResult{Dates: dates}.PerNode(len(out))
		res.MaxOutLoad, res.MaxInLoad = max(res.MaxOutLoad, slices.Max(exactOut)), max(res.MaxInLoad, slices.Max(exactIn))
		return check(round, exactOut, exactIn, capOut, capIn)
	}
	res.MaxOutLoad, res.MaxInLoad = max(res.MaxOutLoad, int(maxOut)), max(res.MaxInLoad, int(maxIn))
	if int(maxOut) <= capOut.low && int(maxIn) <= capIn.low {
		for _, d := range dates {
			out[d.Sender], in[d.Receiver] = 0, 0
		}
		return nil
	}
	return check(round, out, in, capOut, capIn)
}

// check zeroes both sides' load counters and reports the lowest node over
// its capacity, senders first.
func check[L uint16 | int](round int, out, in []L, capOut, capIn capacity) error {
	err := over(round, out, capOut, "sends")
	if e := over(round, in, capIn, "receives"); err == nil {
		err = e
	}
	return err
}

// over zeroes one side's load counters and reports the lowest node whose
// load exceeded its capacity.
func over[L uint16 | int](round int, load []L, c capacity, verb string) (err error) {
	for v, l := range load {
		if err == nil && int(l) > c.low && int(l) > c.of[v] {
			err = fmt.Errorf("run: round %d: node %d %s %d dates, capacity %d", round, v, verb, l, c.of[v])
		}
		load[v] = 0
	}
	return err
}
