package gossip

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// tapClock is roundClock with every peer-step passed through tap, which
// sees the peer's inbox and what it emitted (From unset). The runtime steps
// each peer from one shard, once per round, so tap may write state indexed
// by node.
func tapClock(tap func(node, round int, inbox, out []simnet.Message)) clock {
	return func(n int, o liveOptions, step live.StepFunc, _ live.ActiveStepFunc) (ticker, func() int, []int, error) {
		return roundClock(n, o, func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
			var out []simnet.Message
			step(node, round, inbox, s, func(m simnet.Message) {
				out = append(out, m)
				emit(m)
			})
			tap(node, round, inbox, out)
		}, nil)
	}
}

// countPayloads returns how many of msgs are payloads.
func countPayloads(msgs []simnet.Message) int32 {
	c := int32(0)
	for _, m := range msgs {
		if m.Kind == KindPayload {
			c++
		}
	}
	return c
}

func TestHandshakeValidation(t *testing.T) {
	sel, _ := core.NewUniformSelector(4)
	for name, cfg := range map[string]HandshakeConfig{
		"empty profile":     {},
		"zero bandwidth":    {Profile: bandwidth.Profile{In: []int{0, 1}, Out: []int{1, 1}}},
		"selector mismatch": {Profile: bandwidth.Homogeneous(5, 1), Selector: sel},
	} {
		if _, err := runHandshake(cfg, liveOptions{}, roundClock); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := runHandshake(HandshakeConfig{Profile: bandwidth.Homogeneous(4, 1)},
		liveOptions{Net: live.FixedLatency{Rounds: 0}}, roundClock); err == nil {
		t.Error("accepted a net model the runtime cannot schedule")
	}
}

// TestHandshakeDeterministic runs one handshake on the sequential oracle and
// on the sharded runtime at several shard counts: the same seed must give
// the same dates, round for round.
func TestHandshakeDeterministic(t *testing.T) {
	for _, n := range []int{17, 1000} {
		cfg := HandshakeConfig{Profile: bandwidth.Homogeneous(n, 3), Rounds: 5}
		ref, err := runHandshake(cfg, liveOptions{Seed: 99}, oracleClock)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Completed || ref.Rounds != 5 || ref.History[4] == 0 {
			t.Fatalf("n=%d: degenerate reference %+v", n, ref.Stepped.Stepped)
		}
		for _, shards := range []int{1, 2, 4} {
			res, err := runHandshake(cfg, liveOptions{Seed: 99, Shards: shards}, roundClock)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("n=%d shards=%d: dates %v, oracle %v", n, shards, res.SentHistory, ref.SentHistory)
			}
		}
	}
}

// TestHandshakeCapacityAndValidity checks the dating service's contract per
// peer: under the perfect-sync model no peer receives more than In[i]
// payloads in a dating round, nor sends more than Out[i]. A dating round's
// payloads are all sent in one network round and received in the next, so
// per-network-round counts are per-dating-round counts.
func TestHandshakeCapacityAndValidity(t *testing.T) {
	const n = 400
	bimodal, err := bandwidth.Bimodal(n, n/10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]bandwidth.Profile{
		"homogeneous": bandwidth.Homogeneous(n, 2),
		"bimodal":     bimodal,
	} {
		for _, shards := range []int{1, 2, 4} {
			maxSent, maxRecv := make([]int32, n), make([]int32, n)
			res, err := runHandshake(HandshakeConfig{Profile: p, Rounds: 8},
				liveOptions{Seed: 7, Shards: shards, Net: live.Sync{}},
				tapClock(func(node, _ int, inbox, out []simnet.Message) {
					maxRecv[node] = max(maxRecv[node], countPayloads(inbox))
					maxSent[node] = max(maxSent[node], countPayloads(out))
				}))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if int(maxSent[i]) > p.Out[i] || int(maxRecv[i]) > p.In[i] {
					t.Fatalf("%s shards=%d: peer %d sent %d (bout %d) and received %d (bin %d) payloads in one dating round",
						name, shards, i, maxSent[i], p.Out[i], maxRecv[i], p.In[i])
				}
			}
			if res.MaxInPayloads == 0 || res.MaxInPayloads != int(slices.Max(maxRecv)) {
				t.Fatalf("%s shards=%d: MaxInPayloads %d, tapped %d", name, shards, res.MaxInPayloads, slices.Max(maxRecv))
			}
		}
	}
}

// TestHandshakeMessageAccounting checks the overhead model tick by tick:
// every dating round scatters Σ bout offers and Σ bin requests, answers
// every offer, and sends one payload per date — and nothing else travels,
// so Messages is exactly 3·Σb per dating round plus the dates.
func TestHandshakeMessageAccounting(t *testing.T) {
	const n, b, rounds = 300, 2, 6
	var ticks []simnet.Stats // cumulative traffic after each network round
	clk := func(n int, o liveOptions, step live.StepFunc, active live.ActiveStepFunc) (ticker, func() int, []int, error) {
		tick, inFlight, cuts, err := roundClock(n, o, step, active)
		return func(k int) simnet.Stats {
			for ; k > 0; k-- {
				ticks = append(ticks, tick(1))
			}
			return ticks[len(ticks)-1]
		}, inFlight, cuts, err
	}
	res, err := runHandshake(HandshakeConfig{Profile: bandwidth.Homogeneous(n, b), Rounds: rounds}, liveOptions{Seed: 11, Shards: 2}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 3*rounds+1 {
		t.Fatalf("%d network rounds, want %d", len(ticks), 3*rounds+1)
	}
	sent := func(i int, kind uint8) int64 {
		if i == 0 {
			return ticks[0].ByKind[kind]
		}
		return ticks[i].ByKind[kind] - ticks[i-1].ByKind[kind]
	}
	var dates int64
	for r := 1; r <= rounds; r++ {
		scatter, match, transfer := 3*r-3, 3*r-2, 3*r-1
		if sent(scatter, KindOffer) != n*b || sent(scatter, KindRequest) != n*b {
			t.Fatalf("dating round %d: %d offers and %d requests, want %d each", r, sent(scatter, KindOffer), sent(scatter, KindRequest), n*b)
		}
		if got := sent(match, KindAnswer); got != n*b {
			t.Fatalf("dating round %d: %d answers, want %d (every offer is answered)", r, got, n*b)
		}
		if got := sent(transfer, KindPayload); got != int64(res.SentHistory[r-1]) || got == 0 {
			t.Fatalf("dating round %d: %d payloads, %d dates", r, got, res.SentHistory[r-1])
		}
		dates += int64(res.SentHistory[r-1])
	}
	if last := ticks[len(ticks)-1]; last.Sent != res.Traffic.Sent || last.Sent != rounds*3*n*b+dates {
		t.Fatalf("traffic %d (reported %d), want %d", last.Sent, res.Traffic.Sent, rounds*3*n*b+dates)
	}
	if int64(res.History[rounds-1]) != dates {
		t.Fatalf("running total %d, dates %d", res.History[rounds-1], dates)
	}
}

// TestHandshakePoissonPrediction checks the handshake's date fraction
// against the Poisson-limit prediction of core/analysis.go, within the
// tolerance the flat dating round meets.
func TestHandshakePoissonPrediction(t *testing.T) {
	const n, rounds = 2000, 100
	for _, b := range []int{1, 2, 4} {
		res, err := runHandshake(HandshakeConfig{Profile: bandwidth.Homogeneous(n, b), Rounds: rounds},
			liveOptions{Seed: uint64(17 + b), Shards: 2}, roundClock)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := core.PredictUniformFraction(float64(b))
		if err != nil {
			t.Fatal(err)
		}
		got := float64(res.History[rounds-1]) / float64(rounds*n*b)
		if math.Abs(got-pred) > 0.01 {
			t.Errorf("load %d: handshake fraction %.4f vs predicted %.4f", b, got, pred)
		}
	}
}

// TestHandshakeOverDHTWithChurn runs the handshake over DHT selection while
// EpochChurn takes whole peers down for whole epochs: no payload may land
// that was sent to or from a peer down in its send round, dates must keep
// flowing among the survivors, and every shard count gives the same run.
func TestHandshakeOverDHTWithChurn(t *testing.T) {
	const n, rounds = 400, 12
	ring, err := overlay.NewRing(n, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	churn := live.EpochChurn{Seed: 77, Epoch: 4, DownFrac: 0.2}
	cfg := HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Selector: sel, Rounds: rounds}
	var ref LiveResult
	for _, shards := range []int{1, 2, 4} {
		bad := make([]int, n) // per receiving peer: payloads that crossed a down endpoint
		res, err := runHandshake(cfg, liveOptions{Seed: 3, Shards: shards, Net: churn},
			tapClock(func(node, round int, inbox, _ []simnet.Message) {
				for _, m := range inbox {
					// Under churn over Sync a message lands one round after
					// it is sent.
					if m.Kind == KindPayload && (churn.Down(round-1, m.From) || churn.Down(round-1, node)) {
						bad[node]++
					}
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range bad {
			if c > 0 {
				t.Fatalf("shards=%d: peer %d received %d payloads across a down endpoint", shards, i, c)
			}
		}
		for r, d := range res.SentHistory {
			if d == 0 {
				t.Fatalf("shards=%d: no dates in dating round %d", shards, r+1)
			}
		}
		if res.Traffic.Dropped == 0 {
			t.Fatalf("shards=%d: churn dropped nothing", shards)
		}
		if shards == 1 {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("shards=%d: dates %v, one shard %v", shards, res.SentHistory, ref.SentHistory)
		}
	}
}

// crashNet is a perfect-sync network on which peers 0..Dead-1 have crashed:
// every message to or from them is lost.
type crashNet struct{ Dead int }

func (c crashNet) Plan(_ int, m simnet.Message, _ *rng.Stream) int {
	if m.From < c.Dead || m.To < c.Dead {
		return live.Drop
	}
	return 1
}

func (crashNet) MaxDelay() int { return 1 }
func (crashNet) Random() bool  { return false }

// TestHandshakeWithCrashedNodes runs the handshake with a fifth of the peers
// crashed for the whole run: no crashed peer may send or receive a payload,
// the survivors must still date in every dating round, and no more than
// their Σ bout, and every shard count gives the same run.
func TestHandshakeWithCrashedNodes(t *testing.T) {
	const n, dead, rounds = 50, 10, 6
	cfg := HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Rounds: rounds}
	var ref LiveResult
	for _, shards := range []int{1, 2, 4} {
		touched := make([]int, n) // per receiving peer: payloads to or from a crashed peer
		res, err := runHandshake(cfg, liveOptions{Seed: 13, Shards: shards, Net: crashNet{Dead: dead}},
			tapClock(func(node, _ int, inbox, _ []simnet.Message) {
				for _, m := range inbox {
					if m.Kind == KindPayload && (m.From < dead || node < dead) {
						touched[node]++
					}
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range touched {
			if c > 0 {
				t.Fatalf("shards=%d: peer %d received %d payloads involving a crashed peer", shards, i, c)
			}
		}
		for r, d := range res.SentHistory {
			if d == 0 || d > n-dead {
				t.Fatalf("shards=%d: %d dates in dating round %d among %d live peers", shards, d, r+1, n-dead)
			}
		}
		if res.Traffic.Dropped == 0 {
			t.Fatalf("shards=%d: the crashed peers lost nothing", shards)
		}
		if shards == 1 {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("shards=%d: dates %v, one shard %v", shards, res.SentHistory, ref.SentHistory)
		}
	}
}

// TestHandshakePipelining measures Section 4's latency hiding on the
// handshake itself. With DHT selection under FixedLatency{L}, a peer
// scatters dating round d+1 while round d's messages are still in flight,
// so k dating rounds take 3k + 3L − 2 + ((1 − L) mod 3) ticks (drain
// included) instead of the naive 3kL + 1, and at k = 64 they arrange as
// many dates per round as perfect sync does. L spans 2, 3, the measured
// Chord lookup latency and twice that; every single round must date.
func TestHandshakePipelining(t *testing.T) {
	const n = 1024
	s := rng.New(5)
	ring, err := overlay.NewRing(n, rng.New(s.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewRingSelector(ring)
	if err != nil {
		t.Fatal(err)
	}
	hops := int(math.Ceil(ring.AvgLookupHops(s, 400, ring.Lookup)))
	cfg := HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Selector: sel, Rounds: 64}
	for _, shards := range []int{1, 2} {
		sync, err := runHandshake(cfg, liveOptions{Seed: 5, Shards: shards}, roundClock)
		if err != nil {
			t.Fatal(err)
		}
		syncRate := float64(sync.History[63]) / 64
		for _, L := range []int{2, 3, hops, 2 * hops} {
			for _, k := range []int{1, 2, 8, 64} {
				cfg := cfg
				cfg.Rounds = k
				res, err := runHandshake(cfg, liveOptions{Seed: 5, Shards: shards, Net: live.FixedLatency{Rounds: L}}, roundClock)
				if err != nil {
					t.Fatal(err)
				}
				if want := 3*k + 3*L - 2 + ((1-L)%3+3)%3; res.Traffic.Rounds != int64(want) {
					t.Errorf("shards=%d L=%d k=%d: %d ticks, want %d (naive %d)", shards, L, k, res.Traffic.Rounds, want, 3*k*L+1)
				}
				dates := res.History[k-1]
				if dates == 0 {
					t.Errorf("shards=%d L=%d k=%d: no dates", shards, L, k)
				}
				if rate := float64(dates) / float64(k); k == 64 && math.Abs(rate/syncRate-1) > 0.02 {
					t.Errorf("shards=%d L=%d: %.1f dates per round, sync %.1f", shards, L, rate, syncRate)
				}
			}
		}
	}
}

// TestHandshakeDrain taps every peer-step of short handshakes under
// latency models, including the random and distance-dependent ones. A
// finished run must report exactly the payloads the network delivered and
// end with nothing in flight or pending: every message sent was delivered,
// every offer was answered, and every control message arrived no later
// than the run's last matching tick. The drain must stop within 3·MaxDelay
// + 2 ticks of the last scatter — a control message's flight, the wait for
// a matching tick, the answer's and the payload's flights — and the result
// must not depend on the shard count.
func TestHandshakeDrain(t *testing.T) {
	const n = 500
	for name, net := range map[string]live.NetModel{
		"fixed2": live.FixedLatency{Rounds: 2},
		"fixed3": live.FixedLatency{Rounds: 3},
		"fixed5": live.FixedLatency{Rounds: 5},
		"geom":   live.GeomLatency{P: 0.5, Cap: 6},
		"ring":   live.RingLatency{Pos: live.UniformRing(n, 3), Scale: 10, Max: 8},
	} {
		for _, k := range []int{1, 4} {
			var ref LiveResult
			for _, shards := range []int{1, 2, 4} {
				delivered := make([]int64, n) // per peer: messages received
				payloads := make([]int64, n)  // per peer: payloads received
				lastCtl := make([]int, n)     // per peer: last tick an offer or request arrived
				res, err := runHandshake(HandshakeConfig{Profile: bandwidth.Homogeneous(n, 2), Rounds: k},
					liveOptions{Seed: 21, Shards: shards, Net: net},
					tapClock(func(node, round int, inbox, _ []simnet.Message) {
						delivered[node] += int64(len(inbox))
						payloads[node] += int64(countPayloads(inbox))
						for _, m := range inbox {
							if m.Kind == KindOffer || m.Kind == KindRequest {
								lastCtl[node] = round
							}
						}
					}))
				if err != nil {
					t.Fatal(err)
				}
				tr := res.Traffic
				dates := int64(res.History[k-1])
				if dates == 0 || sum(payloads) != dates || tr.ByKind[KindPayload] != dates {
					t.Fatalf("%s k=%d shards=%d: %d dates, %d payloads sent, %d delivered",
						name, k, shards, dates, tr.ByKind[KindPayload], sum(payloads))
				}
				if sum(delivered) != tr.Sent || tr.Dropped != 0 || tr.ByKind[KindAnswer] != tr.ByKind[KindOffer] {
					t.Fatalf("%s k=%d shards=%d: %d sent, %d delivered, %d dropped, %d offers, %d answers",
						name, k, shards, tr.Sent, sum(delivered), tr.Dropped, tr.ByKind[KindOffer], tr.ByKind[KindAnswer])
				}
				lastMatch := int(tr.Rounds-1) - int(tr.Rounds+1)%3 // the last tick t with t%3 == 1
				if late := slices.Max(lastCtl); late > lastMatch {
					t.Fatalf("%s k=%d shards=%d: a control message arrived at tick %d, after the last matching tick %d",
						name, k, shards, late, lastMatch)
				}
				if past := int(tr.Rounds) - 1 - 3*(k-1); past > 3*net.MaxDelay()+2 {
					t.Fatalf("%s k=%d shards=%d: the run went on %d ticks past the last scatter, MaxDelay %d",
						name, k, shards, past, net.MaxDelay())
				}
				if shards == 1 {
					ref = res
				} else if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s k=%d shards=%d: dates %v, one shard %v", name, k, shards, res.SentHistory, ref.SentHistory)
				}
			}
		}
	}
}

// sum totals per-peer counts.
func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
