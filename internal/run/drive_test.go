package run

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// countRounds makes f a protocol that only counts its rounds' dates and
// stops after Limit rounds.
func countRounds(f *Flat) *int {
	total := new(int)
	sent := 0
	f.Dates = func(_ int, dates []core.Date) error {
		sent = len(dates)
		*total += sent
		return nil
	}
	f.End = func(int) (int, int, bool) { return *total, sent, false }
	return total
}

// TestFlatCapacityCheck drives a fake date source, checked against a
// profile, that is within capacity for two rounds and then overdrives one
// node, each way: the run stops with an error naming that round and that
// node.
func TestFlatCapacityCheck(t *testing.T) {
	caps := []int{1, 1, 2, 1, 1}
	fine := []core.Date{{Sender: 4, Receiver: 3}, {Sender: 0, Receiver: 1}, {Sender: 2, Receiver: 2}, {Sender: 2, Receiver: 4}}
	for _, tc := range []struct {
		bad  core.Date
		want string
	}{
		{core.Date{Sender: 4, Receiver: 0}, "round 3: node 4 sends 2 dates, capacity 1"},
		{core.Date{Sender: 1, Receiver: 3}, "round 3: node 3 receives 2 dates, capacity 1"},
	} {
		round := 0
		f := &Flat{N: 5, Limit: 10, Profile: bandwidth.Profile{Out: caps, In: caps}, Step: func(*rng.Stream) []core.Date {
			round++
			if round == 3 {
				return append(slices.Clone(fine), tc.bad)
			}
			return fine
		}}
		countRounds(f)
		_, err := f.Drive(rng.New(1), nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("overdriven round: error %v, want one saying %q", err, tc.want)
		}
	}
	// Without a profile the same source is a baseline's: no check.
	f := &Flat{N: 5, Limit: 3, Step: func(*rng.Stream) []core.Date { return append(slices.Clone(fine), fine...) }}
	countRounds(f)
	if res, err := f.Drive(rng.New(1), nil, nil); err != nil || res.MaxOutLoad != 4 || res.MaxInLoad != 2 {
		t.Errorf("unchecked source: loads %d/%d, err %v; want 4/2 and no error", res.MaxOutLoad, res.MaxInLoad, err)
	}
}

// TestFlatLoadsMatchRecount drives random date lists — n up to 64, repeated
// senders and receivers, empty rounds — through a fake date source against
// random capacities (or none), and recounts every round by brute force: the
// maxima are the recount's, a run fails exactly at the first round that
// overloads a node, the node its error names is one of that round's over
// nodes with its real load, and every round starts from zeroed counters.
func TestFlatLoadsMatchRecount(t *testing.T) {
	s := rng.New(45)
	for c := 0; c < 200; c++ {
		n := 1 + s.Intn(64)
		var p bandwidth.Profile
		if s.Intn(8) > 0 {
			p.Out, p.In = make([]int, n), make([]int, n)
			low := 1 + s.Intn(3)
			for v := range n {
				p.Out[v], p.In[v] = low+s.Intn(3), low+s.Intn(3)
			}
		}
		rounds := make([][]core.Date, 1+s.Intn(4))
		for r := range rounds {
			if s.Intn(5) == 0 {
				continue // an empty round
			}
			for range s.Intn(3 * n) {
				rounds[r] = append(rounds[r], core.Date{Sender: int32(s.Intn(n)), Receiver: int32(s.Intn(n))})
			}
		}

		// The brute-force recount, round by round up to the first overload.
		var wantOut, wantIn int
		failAt := 0
		var over []string
		for r, dates := range rounds {
			out, in := make([]int, n), make([]int, n)
			for _, d := range dates {
				out[d.Sender]++
				in[d.Receiver]++
			}
			wantOut, wantIn = max(wantOut, slices.Max(out)), max(wantIn, slices.Max(in))
			if p.Out == nil {
				continue
			}
			for v := range n {
				if out[v] > p.Out[v] {
					over = append(over, fmt.Sprintf("node %d sends %d dates, capacity %d", v, out[v], p.Out[v]))
				}
				if in[v] > p.In[v] {
					over = append(over, fmt.Sprintf("node %d receives %d dates, capacity %d", v, in[v], p.In[v]))
				}
			}
			if len(over) > 0 {
				failAt = r + 1
				break
			}
		}

		round := 0
		f := &Flat{N: n, Limit: len(rounds), Profile: p, Step: func(*rng.Stream) []core.Date {
			round++
			return rounds[round-1]
		}}
		countRounds(f)
		res, err := f.Drive(rng.New(1), nil, nil)
		if res.MaxOutLoad != wantOut || res.MaxInLoad != wantIn {
			t.Errorf("case %d: loads %d out, %d in; the recount says %d, %d", c, res.MaxOutLoad, res.MaxInLoad, wantOut, wantIn)
		}
		switch {
		case failAt == 0 && err != nil:
			t.Errorf("case %d: no node is over capacity, yet %v", c, err)
		case failAt > 0 && err == nil:
			t.Errorf("case %d: round %d overloads %v, yet no error", c, failAt, over)
		case failAt > 0:
			named := false
			for _, o := range over {
				named = named || strings.HasSuffix(err.Error(), fmt.Sprintf("round %d: %s", failAt, o))
			}
			if !named {
				t.Errorf("case %d: error %q names none of round %d's overloads %v", c, err, failAt, over)
			}
		}
		if slices.ContainsFunc(f.out, func(l int32) bool { return l != 0 }) || slices.ContainsFunc(f.in, func(l int32) bool { return l != 0 }) {
			t.Errorf("case %d: load counters not zeroed after the run: out %v, in %v", c, f.out, f.in)
		}
	}
}

// TestFlatDatingRoundsPassCapacityCheck runs real dating rounds through
// Flat's capacity check — a Service over unit, b = 3 and bimodal profiles,
// and an Arranger over a supply that changes every round — and reads the
// loads back: never beyond the bandwidth, and reached.
func TestFlatDatingRoundsPassCapacityCheck(t *testing.T) {
	const n = 2000
	bimodal, err := bandwidth.Bimodal(n, n/10, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    bandwidth.Profile
		max  int
	}{
		{"b=1", bandwidth.Homogeneous(n, 1), 1},
		{"b=3", bandwidth.Homogeneous(n, 3), 3},
		{"bimodal", bimodal, 16},
	} {
		f := &Flat{N: n, Limit: 8, Profile: tc.p}
		total := countRounds(f)
		res, err := f.Drive(rng.New(5), nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *total == 0 || res.MaxOutLoad > tc.max || res.MaxInLoad > tc.max || res.MaxOutLoad < 1 {
			t.Errorf("%s: %d dates, largest loads %d out, %d in; bound %d", tc.name, *total, res.MaxOutLoad, res.MaxInLoad, tc.max)
		}
	}
	out, in := make([]int, n), make([]int, n)
	f := &Flat{N: n, Limit: 8, Supply: func() ([]int, []int) {
		for i := range out {
			out[i], in[i] = i%3, (i+1)%4
		}
		return out, in
	}}
	countRounds(f)
	if res, err := f.Drive(rng.New(6), nil, nil); err != nil || res.MaxOutLoad > 2 || res.MaxInLoad > 3 {
		t.Fatalf("arranged rounds: loads %d/%d, err %v", res.MaxOutLoad, res.MaxInLoad, err)
	}
}

// TestFlatDrawsOneSeedPerRound: a dating round takes exactly one value
// off the run stream, after whatever its Churn hook draws; a node the hook
// crashes is dated no more; and an error from the hook ends the run in its
// round, before that round's seed.
func TestFlatDrawsOneSeedPerRound(t *testing.T) {
	const n, rounds = 300, 6
	s := rng.New(9)
	f := &Flat{N: n, Limit: rounds, Profile: bandwidth.Homogeneous(n, 2)}
	countRounds(f)
	if _, err := f.Drive(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	ref := rng.New(9)
	for r := 0; r < rounds; r++ {
		ref.Uint64()
	}
	if s.Uint64() != ref.Uint64() {
		t.Fatal("the run stream is not where one draw per round leaves it")
	}

	// A hook that draws one value a round: it gets the round's first.
	s, ref = rng.New(10), rng.New(10)
	f = &Flat{N: n, Limit: rounds, Profile: bandwidth.Homogeneous(n, 2)}
	countRounds(f)
	var drawn []uint64
	f.Churn = func(s *rng.Stream) error {
		drawn = append(drawn, s.Uint64())
		return nil
	}
	if _, err := f.Drive(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	for r := range drawn {
		if hook := ref.Uint64(); drawn[r] != hook {
			t.Fatalf("round %d: the hook drew %#x, want %#x, the value before the seed", r+1, drawn[r], hook)
		}
		ref.Uint64()
	}
	if len(drawn) != rounds || s.Uint64() != ref.Uint64() {
		t.Fatalf("%d hook calls in %d rounds, or the stream is off", len(drawn), rounds)
	}

	// A hook that crashes each live node but node 7 with probability 0.1.
	s, ref = rng.New(11), rng.New(11)
	f = &Flat{N: n, Limit: rounds, Profile: bandwidth.Homogeneous(n, 2)}
	countRounds(f)
	f.Churn = func(s *rng.Stream) error {
		for i := range n {
			if i != 7 && f.Up(i) && s.Bernoulli(0.1) {
				f.Crash(i)
			}
		}
		return nil
	}
	f.Dates = func(_ int, dates []core.Date) error {
		for _, d := range dates {
			if !f.Up(int(d.Sender)) || !f.Up(int(d.Receiver)) {
				t.Fatalf("date %v involves a crashed node", d)
			}
		}
		return nil
	}
	res, err := f.Drive(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, crashed := make([]bool, n), 0
	for i := range live {
		live[i] = true
	}
	for r := 0; r < rounds; r++ {
		for i := range live {
			if i != 7 && live[i] && ref.Bernoulli(0.1) {
				live[i] = false
				crashed++
			}
		}
		ref.Uint64()
	}
	if res.Crashed != crashed || !f.Up(7) || s.Uint64() != ref.Uint64() {
		t.Fatalf("crashed %d (replayed %d), spared node up %v: the draws are out of order", res.Crashed, crashed, f.Up(7))
	}

	// A hook that fails in round 3 ends the run there: two rounds ran, and
	// the stream holds five draws, the third hook's and no third seed.
	s, ref = rng.New(12), rng.New(12)
	f = &Flat{N: n, Limit: rounds, Profile: bandwidth.Homogeneous(n, 2)}
	countRounds(f)
	failure := errors.New("ring cannot be re-sorted")
	calls := 0
	f.Churn = func(s *rng.Stream) error {
		s.Uint64()
		if calls++; calls == 3 {
			return failure
		}
		return nil
	}
	res, err = f.Drive(s, nil, nil)
	if !errors.Is(err, failure) || !strings.Contains(err.Error(), "round 3") || res.Rounds != 2 {
		t.Fatalf("error %v after %d rounds, want the hook's failure in round 3", err, res.Rounds)
	}
	for range 5 {
		ref.Uint64()
	}
	if s.Uint64() != ref.Uint64() {
		t.Fatal("the failing round drew past its hook")
	}
}

// TestFlatObserverIdentity: Flat's track gets a round span and the
// sent and budget_in_flight gauges every round, and the run is the same
// with it as without.
func TestFlatObserverIdentity(t *testing.T) {
	run := func(tr *obs.Track) FlatResult {
		f := &Flat{N: 500, Limit: 5, Profile: bandwidth.Homogeneous(500, 2)}
		countRounds(f)
		res, err := f.Drive(rng.New(3), nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	o := obs.NewObserver()
	plain, traced := run(nil), run(o.Track("flat", 1))
	if plain.Rounds != traced.Rounds || plain.MaxInLoad != traced.MaxInLoad ||
		!slices.Equal(plain.History, traced.History) || !slices.Equal(plain.SentHistory, traced.SentHistory) {
		t.Fatalf("observed run differs:\nplain  %+v\ntraced %+v", plain, traced)
	}
	m := o.Metrics()
	if len(m.Phases) != 1 || m.Phases[0].Phase != "round" || m.Phases[0].Spans != 5 {
		t.Fatalf("phases %+v, want one round span per round", m.Phases)
	}
	for _, name := range []string{"sent", "budget_in_flight"} {
		found := false
		for _, g := range m.Gauges {
			found = found || (g.Name == name && g.Samples == 5)
		}
		if !found {
			t.Fatalf("gauge %s missing or not sampled every round: %+v", name, m.Gauges)
		}
	}
}
