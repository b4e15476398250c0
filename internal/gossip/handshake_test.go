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
	return func(n int, o LiveOptions, step live.StepFunc, _ live.ActiveStepFunc) (ticker, []int, error) {
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
		if _, err := runHandshake(cfg, LiveOptions{}, roundClock); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := runHandshake(HandshakeConfig{Profile: bandwidth.Homogeneous(4, 1)},
		LiveOptions{Net: live.FixedLatency{Rounds: 0}}, roundClock); err == nil {
		t.Error("accepted a net model the runtime cannot schedule")
	}
}

// TestHandshakeDeterministic runs one handshake on the goroutine engine and
// on the sharded runtime at several shard counts: the same seed must give
// the same dates, round for round.
func TestHandshakeDeterministic(t *testing.T) {
	for _, n := range []int{17, 1000} {
		cfg := HandshakeConfig{Profile: bandwidth.Homogeneous(n, 3), Rounds: 5}
		ref, err := runHandshake(cfg, LiveOptions{Seed: 99}, oracleClock)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Completed || ref.Rounds != 5 || ref.History[4] == 0 {
			t.Fatalf("n=%d: degenerate reference %+v", n, ref.Stepped.Stepped)
		}
		for _, shards := range []int{1, 2, 4} {
			res, err := runHandshake(cfg, LiveOptions{Seed: 99, Shards: shards}, roundClock)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("n=%d shards=%d: dates %v, goroutine engine %v", n, shards, res.SentHistory, ref.SentHistory)
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
				LiveOptions{Seed: 7, Shards: shards, Net: live.Sync{}},
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
	clk := func(n int, o LiveOptions, step live.StepFunc, active live.ActiveStepFunc) (ticker, []int, error) {
		tick, cuts, err := roundClock(n, o, step, active)
		return func(k int) simnet.Stats {
			for ; k > 0; k-- {
				ticks = append(ticks, tick(1))
			}
			return ticks[len(ticks)-1]
		}, cuts, err
	}
	res, err := runHandshake(HandshakeConfig{Profile: bandwidth.Homogeneous(n, b), Rounds: rounds}, LiveOptions{Seed: 11, Shards: 2}, clk)
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
			LiveOptions{Seed: uint64(17 + b), Shards: 2}, roundClock)
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
		res, err := runHandshake(cfg, LiveOptions{Seed: 3, Shards: shards, Net: churn},
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
		res, err := runHandshake(cfg, LiveOptions{Seed: 13, Shards: shards, Net: crashNet{Dead: dead}},
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
