package live

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// napper is a synthetic protocol whose peers sleep: mail folds into an
// order-sensitive digest and recharges the peer with one to three rounds of
// energy drawn from its stream; a peer with energy spends one unit per round
// on a message to a random destination. It honours the sleep contract — at
// zero energy with an empty inbox a step draws nothing, emits nothing and
// changes nothing — and reports awake exactly while it has energy left.
type napper struct {
	n      int
	digest []uint64
	energy []int
	// stepped[r][i] records that peer i was stepped in round r: what the
	// runtime skipped, kept out of the compared state.
	stepped [][]bool
}

func newNapper(n, rounds int) *napper {
	p := &napper{n: n, digest: make([]uint64, n), energy: make([]int, n), stepped: make([][]bool, rounds)}
	for r := range p.stepped {
		p.stepped[r] = make([]bool, n)
	}
	for i := 0; i < n; i += 17 {
		p.energy[i] = 2
	}
	return p
}

func (p *napper) step(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
	p.stepped[round][node] = true
	for _, m := range inbox {
		h := p.digest[node]
		h = h*1099511628211 + uint64(m.From)
		h = h*1099511628211 + uint64(m.A)
		p.digest[node] = h
	}
	if len(inbox) > 0 {
		p.energy[node] = 1 + s.Intn(3)
	}
	if p.energy[node] > 0 {
		p.energy[node]--
		emit(simnet.Message{To: s.Intn(p.n), Kind: uint8(1 + round%2), A: int32(round)})
	}
	return p.energy[node] > 0
}

// napperRun is everything a run leaves behind that the shard count, the
// schedule and the skipping of sleeping peers must not change.
type napperRun struct {
	stats  simnet.Stats
	sent   []int64
	digest []uint64
	energy []int
}

func runNapper(t *testing.T, n, rounds, shards int, net NetModel, dense bool, o *obs.Observer) (napperRun, *napper) {
	t.Helper()
	p := newNapper(n, rounds)
	cfg := Config{N: n, Seed: 42, Shards: shards, Net: net, Obs: o}
	if dense {
		cfg.Step = func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
			p.step(node, round, inbox, s, emit)
		}
	} else {
		cfg.ActiveStep = p.step
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sent []int64
	var prev int64
	for r := 0; r < rounds; r++ {
		st := rt.Run(1)
		sent = append(sent, st.Sent-prev)
		prev = st.Sent
	}
	return napperRun{stats: rt.Stats(), sent: sent, digest: p.digest, energy: p.energy}, p
}

// TestActiveStepMatchesDense is the sleep contract's differential: the same
// awake-reporting step run through ActiveStep, where sleeping peers are
// skipped, and through dense Step, where its answer is ignored and everyone
// is stepped, must leave identical traffic, per-round sent counts and
// per-peer state — at every shard count, under every kind of network model.
// Every step draws from a stream of its own (TestPeerStreamIsPerStep), so
// there are no stream positions left to compare.
func TestActiveStepMatchesDense(t *testing.T) {
	const n, rounds = 600, 40
	nets := map[string]NetModel{
		"sync":  nil,
		"fixed": FixedLatency{Rounds: 3},
		"geom":  GeomLatency{P: 0.6, Cap: 5},
		"loss":  Loss{P: 0.2},
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			want, _ := runNapper(t, n, rounds, 1, net, true, nil)
			if want.stats.Sent == 0 || want.stats.ByKind[1] == 0 || want.stats.ByKind[2] == 0 {
				t.Fatalf("degenerate reference run: %+v", want.stats)
			}
			for _, shards := range []int{1, 2, 4} {
				got, p := runNapper(t, n, rounds, shards, net, false, nil)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("shards=%d: ActiveStep diverged from dense Step; sent per round\n got %v\nwant %v",
						shards, got.sent, want.sent)
				}
				if !p.sleptWokeSlept() {
					t.Errorf("shards=%d: no peer slept, was woken by mail and slept again", shards)
				}
			}
		})
	}
}

// tides is a sleeping-peer protocol whose traffic ebbs and floods, so that
// a run crosses the core's density switch both ways: every hundredth peer
// is a beacon, always awake, sending one message a round; mail folds into
// an order-sensitive digest and recharges its peer, by three rounds at high
// tide (rounds 6-8 of every 20), when an awake peer sends three messages a
// round, and by one round otherwise, when it sends one with probability
// one half. A peer at zero energy with an empty inbox draws nothing, emits
// nothing and changes nothing, and it reports awake exactly while it has
// energy left.
type tides struct {
	n      int
	digest []uint64
	energy []int
}

func newTides(n int) *tides {
	return &tides{n: n, digest: make([]uint64, n), energy: make([]int, n)}
}

func (p *tides) step(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
	high := round%20 >= 6 && round%20 < 9
	for _, m := range inbox {
		p.digest[node] = (p.digest[node]*1099511628211+uint64(m.From))*1099511628211 + uint64(m.A)
	}
	if len(inbox) > 0 {
		p.energy[node] = max(p.energy[node], 1)
		if high {
			p.energy[node] = 3
		}
	}
	beacon := node%100 == 0
	if p.energy[node] > 0 || beacon {
		if !beacon {
			p.energy[node]--
		}
		switch {
		case beacon:
			emit(simnet.Message{To: s.Intn(p.n), A: int32(round)})
		case high:
			for k := 0; k < 3; k++ {
				emit(simnet.Message{To: s.Intn(p.n), A: int32(round), B: int32(k)})
			}
		case s.Intn(2) == 0:
			emit(simnet.Message{To: s.Intn(p.n), A: int32(round)})
		}
	}
	return p.energy[node] > 0 || beacon
}

// TestActiveStepSwitchMatchesDense is TestActiveStepMatchesDense across the
// density switch: the tides run through ActiveStep, whose quiet rounds the
// core delivers sparsely and steps by the awake peers and the mail list,
// against the same protocol through dense Step, stepped round by round in
// lockstep. Every round's traffic, every inbox as Runtime.Inbox reads it
// after the round, and the final per-peer state must agree, at shards 1, 2
// and 4, under Sync and under a latency model, and each ActiveStep run must
// go from dense rounds to sparse ones and back.
func TestActiveStepSwitchMatchesDense(t *testing.T) {
	const n, rounds = 4000, 40
	for name, net := range map[string]NetModel{"sync": nil, "geom": GeomLatency{P: 0.6, Cap: 4}} {
		for _, shards := range []int{1, 2, 4} {
			ref, got := newTides(n), newTides(n)
			dense, err := New(Config{N: n, Seed: 7, Shards: 1, Net: net,
				Step: func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
					ref.step(node, round, inbox, s, emit)
				}})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(Config{N: n, Seed: 7, Shards: shards, Net: net, ActiveStep: got.step})
			if err != nil {
				t.Fatal(err)
			}
			var sparse []int
			for r := 0; r < rounds; r++ {
				want, have := dense.Run(1), rt.Run(1)
				if have != want {
					t.Fatalf("%s shards=%d round %d: %d sent, %d dropped; dense Step %d and %d", name, shards, r, have.Sent, have.Dropped, want.Sent, want.Dropped)
				}
				sparse = append(sparse, rt.core.SparseOwners())
				for i := 0; i < n; i++ {
					if a, b := rt.Inbox(i), dense.Inbox(i); !slices.Equal(a, b) {
						t.Fatalf("%s shards=%d round %d (%d sparse owners): peer %d's inbox %v, dense Step %v",
							name, shards, r, sparse[r], i, a, b)
					}
				}
			}
			if fmt.Sprint(got.digest, got.energy) != fmt.Sprint(ref.digest, ref.energy) {
				t.Errorf("%s shards=%d: ActiveStep left other peer state than dense Step", name, shards)
			}
			crossed := 0 // 1 after a dense round, 2 after a sparse one, 3 dense again
			for _, k := range sparse {
				if (crossed%2 == 0) == (k == 0) && (k == 0 || k == shards) {
					crossed++
				}
			}
			if crossed < 3 {
				t.Errorf("%s shards=%d: sparse owners per round %v never went dense -> sparse -> dense", name, shards, sparse)
			}
		}
	}
}

// TestPeerStreamIsPerStep pins the seeding of the round runtime's streams:
// for every peer-step taken, the step's first two draws are those of
// rng.New(PeerSeed(seed, round, peer)), at every shard count, under dense
// Step and under ActiveStep, peers stepped again after sleeping included.
// The recording step draws before the napper on most steps and not at all
// on the rest, so a step that draws nothing is followed by steps that do;
// it draws on steps whose peer then sleeps, too, which the sleep contract
// allows because no later step reads that stream.
func TestPeerStreamIsPerStep(t *testing.T) {
	const n, rounds, seed = 600, 40, 42
	for _, dense := range []bool{true, false} {
		for _, shards := range []int{1, 2, 4} {
			p := newNapper(n, rounds)
			draws := make([][][2]uint64, rounds)
			for r := range draws {
				draws[r] = make([][2]uint64, n)
			}
			record := func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
				if (node+round)%3 != 0 {
					draws[round][node] = [2]uint64{s.Uint64(), s.Uint64()}
				}
				return p.step(node, round, inbox, s, emit)
			}
			cfg := Config{N: n, Seed: seed, Shards: shards, Net: FixedLatency{Rounds: 3}}
			if dense {
				cfg.Step = func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
					record(node, round, inbox, s, emit)
				}
			} else {
				cfg.ActiveStep = record
			}
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt.Run(rounds)
			checked := 0
			for r := range draws {
				for i, got := range draws[r] {
					if !p.stepped[r][i] || (i+r)%3 == 0 {
						continue
					}
					ref := rng.New(PeerSeed(seed, r, i))
					if want := [2]uint64{ref.Uint64(), ref.Uint64()}; got != want {
						t.Fatalf("dense=%v shards=%d: peer %d's step in round %d drew %x, want %x",
							dense, shards, i, r, got, want)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("dense=%v shards=%d: no step drew", dense, shards)
			}
			if !dense && !p.sleptWokeSlept() {
				t.Errorf("shards=%d: no peer slept, was woken by mail and slept again", shards)
			}
		}
	}
}

// sleptWokeSlept reports whether some peer was skipped, later stepped, and
// later skipped again.
func (p *napper) sleptWokeSlept() bool {
	for i := 0; i < p.n; i++ {
		phase := 0 // 1 asleep, 2 woken, 3 asleep again
		for r := range p.stepped {
			if p.stepped[r][i] == (phase%2 == 1) {
				phase++
			}
		}
		if phase >= 3 {
			return true
		}
	}
	return false
}

// TestSteppedGauge pins the live track's "stepped" gauge: under ActiveStep
// it is the number of peers the shards actually stepped each round, under
// Step it is n, and attaching the observer changes nothing.
func TestSteppedGauge(t *testing.T) {
	const n, rounds = 600, 40
	gauge := func(o *obs.Observer) obs.GaugeMetric {
		for _, g := range o.Metrics().Gauges {
			if g.Track == "live" && g.Name == "stepped" {
				return g
			}
		}
		t.Fatal("no stepped gauge on the live track")
		return obs.GaugeMetric{}
	}
	plain, _ := runNapper(t, n, rounds, 4, FixedLatency{Rounds: 3}, false, nil)
	o := obs.NewObserver()
	traced, p := runNapper(t, n, rounds, 4, FixedLatency{Rounds: 3}, false, o)
	if fmt.Sprint(traced) != fmt.Sprint(plain) {
		t.Fatal("attaching an observer changed the run")
	}
	lo, hi, last := n, 0, 0
	for _, row := range p.stepped {
		last = 0
		for _, s := range row {
			if s {
				last++
			}
		}
		lo, hi = min(lo, last), max(hi, last)
	}
	if g := gauge(o); g.Samples != rounds || g.Min != int64(lo) || g.Max != int64(hi) || g.Last != int64(last) {
		t.Errorf("stepped gauge %+v, want %d samples in [%d, %d] ending at %d", g, rounds, lo, hi, last)
	}
	if lo == n {
		t.Error("no round skipped a peer")
	}

	o = obs.NewObserver()
	runNapper(t, n, rounds, 4, nil, true, o)
	if g := gauge(o); g.Min != n || g.Max != n {
		t.Errorf("dense Step stepped gauge %+v, want %d every round", g, n)
	}
}

// TestShardPadding pins that dense shards never share a cache line: a field
// appended to shardState must not land on the neighbour's hot head.
func TestShardPadding(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz%cacheLine != 0 {
		t.Errorf("shard is %d bytes, not a multiple of the %d-byte cache line", sz, cacheLine)
	}
	if pad := unsafe.Sizeof(shard{}) - unsafe.Sizeof(shardState{}); pad < cacheLine {
		t.Errorf("shard pads its state by %d bytes, less than a cache line", pad)
	}
}
