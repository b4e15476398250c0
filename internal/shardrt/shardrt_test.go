package shardrt

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/simnet"
)

// emission is one message a peer emits in a tick, with the delay it asks for.
type emission struct {
	d int
	m simnet.Message
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{N: 0, Ring: 2},
		{N: -3, Ring: 2},
		{N: 4, Ring: 2, Shards: -1},
		{N: 4, Ring: 1},
		{N: 4, Ring: MaxRing + 1},
		{N: 4, Ring: math.MinInt},            // a MaxDelay()+1 that wrapped
		{N: 1000, Shards: 64, Ring: MaxRing}, // 2^28 open-page headers
	}
	// 2^31 peers, where an int can hold the count: rejected before the
	// n-sized makes.
	if n := int64(math.MaxInt32) + 1; int64(int(n)) == n {
		bad = append(bad, Config{N: int(n), Ring: 2})
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted %+v", cfg)
		}
	}
	c, err := New(Config{N: 3, Shards: 8, Ring: MaxRing})
	if err != nil {
		t.Fatalf("rejected the largest ring: %v", err)
	}
	if c.Shards() != 3 || EffectiveShards(3, 8) != 3 || EffectiveShards(100, 0) != min(100, runtime.GOMAXPROCS(0)) {
		t.Errorf("shards %d for n=3, want the cap at n", c.Shards())
	}
}

// checkAgainstReference runs plan for ticks ticks on a core built from cfg
// and checks every delivered inbox, as Core.Inbox and as the stepping lane's
// Inbox unpack it, against the definition: the messages due this tick, in
// (tick sent, sender, emission) order, stably sorted by destination. The
// inboxes must tile the view in peer order, on dense and sparse owners
// alike. After every tick it checks conservation, and at the end Stats
// and Work against the same replay; the core and the stats it should have
// are returned.
func checkAgainstReference(t testing.TB, name string, cfg Config, ticks int, plan func(tk, i int) []emission) (*Core, simnet.Stats) {
	return checkSwitch(t, name, cfg, ticks, plan, nil, nil)
}

// checkSwitch is checkAgainstReference with lane w reporting awake(tk, w)
// to Awake at the end of tick tk's step, and with sparse(k) told after each
// Deliver that k owners took the sparse path; either may be nil.
func checkSwitch(t testing.TB, name string, cfg Config, ticks int, plan func(tk, i int) []emission,
	awake func(tk, w int) int, sparse func(k int)) (*Core, simnet.Stats) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, ring := cfg.N, cfg.Ring
	due := make([][]simnet.Message, ticks+ring)
	var want simnet.Stats
	delivered := int64(0)
	for tk := 0; tk < ticks; tk++ {
		c.Deliver(tk)
		inOff := c.View()
		delivered += int64(inOff[n])
		if inOff[0] != 0 || int(inOff[n]) != len(due[tk]) {
			t.Fatalf("%s tick %d: offsets run %d..%d over a slot of %d", name, tk, inOff[0], inOff[n], len(due[tk]))
		}
		if sparse != nil {
			sparse(c.SparseOwners())
		}
		ref := make([][]simnet.Message, n)
		for _, m := range due[tk] {
			ref[m.To] = append(ref[m.To], m)
		}
		var end int32
		for i := 0; i < n; i++ {
			if start, stop := c.bounds(i); start != stop {
				if start != end || stop < start {
					t.Fatalf("%s tick %d: peer %d's inbox is [%d, %d), the inboxes before it end at %d", name, tk, i, start, stop, end)
				}
				end = stop
			}
			if got := c.Inbox(i); !slices.Equal(got, ref[i]) {
				k := 0 // a burst fills pages: report the first difference, not both inboxes
				for k < len(got) && k < len(ref[i]) && got[k] == ref[i][k] {
					k++
				}
				t.Fatalf("%s tick %d peer %d: inbox of %d messages, want %d, first difference at %d: %v, want %v",
					name, tk, i, len(got), len(ref[i]), k, got[k:min(k+1, len(got))], ref[i][k:min(k+1, len(ref[i]))])
			}
		}
		if int(end) != len(due[tk]) {
			t.Fatalf("%s tick %d: the inboxes end at %d in a view of %d", name, tk, end, len(due[tk]))
		}
		// The reference emits in peer order; the core in step-range
		// order, which must be the same thing.
		for i := 0; i < n; i++ {
			for _, e := range plan(tk, i) {
				m := e.m
				m.From = i
				if m.To < 0 || m.To >= n {
					want.Dropped++
					continue
				}
				d := e.d
				if d >= ring {
					d = ring - 1
					want.Clamped++
				}
				want.Sent++
				want.ByKind[m.Kind]++
				due[tk+d] = append(due[tk+d], m)
			}
		}
		cuts := c.Cuts()
		c.FanOut(func(w int) {
			ln := c.Lane(w)
			for i := cuts[w]; i < cuts[w+1]; i++ {
				ln.Seat(i)
				if got := ln.Inbox(c.bounds(i)); !slices.Equal(got, ref[i]) {
					t.Errorf("%s tick %d peer %d: the lane unpacked %d messages that differ from the %d of the reference", name, tk, i, len(got), len(ref[i]))
				}
				for _, e := range plan(tk, i) {
					if m := e.m; ln.Address(&m) {
						ln.Send(e.d, m)
					}
				}
				ln.AddWork(1)
			}
			if awake != nil {
				ln.Awake(awake(tk, w))
			}
		})
		c.Route(tk)
		want.Rounds++
		checkConservation(t, fmt.Sprintf("%s tick %d", name, tk), c, delivered)
	}
	if got := c.Stats(); got != want {
		t.Errorf("%s: stats %+v, want %+v", name, got, want)
	}
	if c.Work() != int64(n*ticks) {
		t.Errorf("%s: work %d, want %d", name, c.Work(), n*ticks)
	}
	return c, want
}

// checkConservation asserts the runtime's first conservation invariant
// after a tick's Route: every message sent has been delivered or is in
// flight on a slot, so Σ Stats.Sent = delivered + Σ slot totals. A message
// to nowhere is Dropped before it is sent and counts on neither side.
func checkConservation(t testing.TB, where string, c *Core, delivered int64) {
	t.Helper()
	inFlight := int64(0)
	for i := range c.slots {
		inFlight += int64(c.slots[i].msgs)
	}
	if sent := c.Stats().Sent; sent != delivered+inFlight {
		t.Fatalf("%s: %d messages sent, %d delivered and %d in flight", where, sent, delivered, inFlight)
	}
}

// frontLoaded returns weights that put the step cuts well before the
// delivery cuts; nothing delivered may notice.
func frontLoaded(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + 8*(n-i))
	}
	return w
}

// TestDeliverMatchesReference drives random traffic — empty ticks, delays
// past the horizon and destinations out of range included — against the
// reference.
func TestDeliverMatchesReference(t *testing.T) {
	const ticks = 24
	for _, n := range []int{1, 7, 40} {
		for _, shards := range []int{1, 2, 3, 7, n} {
			for _, ring := range []int{2, 5, 9} {
				for _, weighted := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/shards=%d/ring=%d/weighted=%v", n, shards, ring, weighted)
					plan := func(tk, i int) []emission {
						if tk%5 == 3 {
							return nil // nobody emits: the slots this tick feeds stay short or empty
						}
						s := rng.New(rng.Derive(uint64(n), uint64(ring), uint64(tk), uint64(i)))
						out := make([]emission, s.Intn(4))
						for k := range out {
							out[k] = emission{
								d: 1 + s.Intn(ring+1), // up to two past the horizon
								m: simnet.Message{To: s.Intn(n+2) - 1, Kind: uint8(s.Intn(3)), A: int32(tk), B: int32(k)},
							}
						}
						return out
					}
					cfg := Config{N: n, Shards: shards, Ring: ring}
					if weighted {
						cfg.Weights = frontLoaded(n)
					}
					_, want := checkAgainstReference(t, name, cfg, ticks, plan)
					if want.Sent == 0 || want.Dropped == 0 || (ring < 9 && want.Clamped == 0) {
						t.Fatalf("%s: sent %d dropped %d clamped %d: nothing tested", name, want.Sent, want.Dropped, want.Clamped)
					}
				}
			}
		}
	}
}

// TestDeliverSwitch holds both sides of the density switch to the
// reference: traffic that every owner must sort densely, traffic light
// enough for each to sort sparsely, traffic that is heavy in the first
// owner's range alone, silent ticks, and, without step weights, lanes that
// report their whole range awake, which makes the next tick dense whatever
// its mail. Every run must cross from dense to sparse and back, and past one
// shard hold a tick on which the owners took different paths.
func TestDeliverSwitch(t *testing.T) {
	const n, ticks = 2000, 30
	plan := func(tk, i int) []emission {
		s := rng.New(rng.Derive(uint64(tk), uint64(i)))
		var k, span int
		switch tk % 6 {
		case 0, 1: // everyone, everywhere: dense
			k, span = 2, n
		case 2: // a few senders: sparse
			if i%97 == 0 {
				k, span = 1+s.Intn(3), n
			}
		case 3: // the same into 40 peers, several messages each
			if i%97 == 0 {
				k, span = 1+s.Intn(3), 40
			}
		case 4: // a fifth of the peers into the first quarter of the ids
			if i%5 == 0 {
				k, span = 1, n/4
			}
		}
		out := make([]emission, k)
		for j := range out {
			out[j] = emission{d: 1 + s.Intn(2), m: simnet.Message{To: s.Intn(span), A: int32(tk), B: int32(j)}}
		}
		return out
	}
	for _, shards := range []int{1, 2, 4} {
		for _, ring := range []int{2, 5} {
			for _, weighted := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/ring=%d/weighted=%v", shards, ring, weighted)
				cfg := Config{N: n, Shards: shards, Ring: ring}
				var awake func(tk, w int) int
				if weighted {
					cfg.Weights = frontLoaded(n)
				} else {
					awake = func(tk, w int) int {
						if tk%7 == 2 {
							return n // reaches every owner's limit
						}
						return 0
					}
				}
				var sparse []int
				checkSwitch(t, name, cfg, ticks, plan, awake, func(k int) { sparse = append(sparse, k) })
				crossed, mixed := 0, false // crossed: 1 after a dense tick, 2 after a sparse one, 3 dense again
				for _, k := range sparse {
					if (crossed%2 == 0) == (k == 0) && (k == 0 || k == shards) {
						crossed++
					}
					mixed = mixed || (k > 0 && k < shards)
				}
				if crossed < 3 || (shards > 1 && !mixed) {
					t.Errorf("%s: sparse owners per tick %v: the run did not cross dense -> sparse -> dense, or no tick mixed the paths", name, sparse)
				}
			}
		}
	}
}

// TestDeliverPageBoundaries holds the reference to the page seams: the first
// peer of every step range emits, per tick and for each of two delays, a
// count that leaves its last page empty, one short, exactly full, one over,
// or several pages long, so owners' lists are of full, partial and single
// pages from different workers, and every slot collects several delays from
// different ticks. One weighting leaves a step range empty. The traffic goes
// to every peer, to the last owner's range alone, or to two peers, which
// leaves most owners of five or eleven shards with nothing to sort.
func TestDeliverPageBoundaries(t *testing.T) {
	const n = 11
	counts := []int{0, 1, PageLen - 1, PageLen, PageLen + 1, 3*PageLen + 7}
	heavyHead := make([]float64, n) // all weight on peer 0: every cut but the last is 1
	heavyHead[0] = 1
	for _, shards := range []int{1, 2, 3, 5, n} {
		for _, ring := range []int{2, 5, 9} {
			for wi, weights := range [][]float64{nil, frontLoaded(n), heavyHead} {
				for _, traffic := range []string{"everyone", "one-owner", "two-peers"} {
					testPageBoundaries(t, fmt.Sprintf("shards=%d/ring=%d/weights=%d/%s", shards, ring, wi, traffic),
						Config{N: n, Shards: shards, Ring: ring, Weights: weights}, counts, traffic, wi == 2 && shards >= 3)
				}
			}
		}
	}
}

// testPageBoundaries is one case of TestDeliverPageBoundaries; emptyRange
// asks it to confirm that the weighting left a step range empty.
func testPageBoundaries(t *testing.T, name string, cfg Config, counts []int, traffic string, emptyRange bool) {
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, ring := probe.Shards(), cfg.Ring
	lo, hi := 0, cfg.N // the destinations: [lo, hi), or lo and hi-1 for two-peers
	switch traffic {
	case "one-owner":
		lo, hi = probe.Part().Range(shards - 1)
	case "two-peers":
		lo, hi = 2, 8
	}
	to := func(x int) int {
		switch {
		case traffic != "two-peers":
			return lo + x%(hi-lo)
		case x%2 == 0:
			return lo
		}
		return hi - 1
	}
	cuts := probe.Cuts()
	if emptyRange && cuts[1] != cuts[2] {
		t.Fatalf("%s: cuts %v leave no step range empty", name, cuts)
	}
	plan := func(tk, i int) []emission {
		w, ok := slices.BinarySearch(cuts, i)
		if !ok {
			return nil // not the first peer of a range
		}
		for w+1 < len(cuts) && cuts[w+1] == i {
			w++ // the last of the ranges starting here is the non-empty one
		}
		var out []emission
		for half, d := range []int{1 + tk%(ring-1), 1 + (tk+2)%(ring-1)} {
			for k := 0; k < counts[(tk+w+3*half)%len(counts)]; k++ {
				out = append(out, emission{d: d, m: simnet.Message{To: to(k*7 + tk + half), Kind: uint8(half), A: int32(tk), B: int32(k)}})
			}
		}
		return out
	}
	c, want := checkAgainstReference(t, name, cfg, 2*len(counts)+ring, plan)
	if made, _ := c.Pages(); want.Sent < int64(len(counts)*PageLen) || made < 4 {
		t.Fatalf("%s: %d messages over %d pages: nothing tested", name, want.Sent, made)
	}
}

// FuzzDeliver drives fuzzed (sender, destination, delay, burst) emissions
// for a few ticks against the reference: data is cut into ticks, and each
// three bytes of a tick are one burst of emissions, long enough to cross
// page seams. Destinations run from -1 to n, Kind over all 256 values, and
// the payload words are pa and pb with the burst's byte offset and the
// emission's index in the burst xored in, so they span the int32 range and
// no two emissions of a tick are equal: the reference then checks that
// Send's packing, the owners' sort and the unpacking of Core.Inbox and
// Lane.Inbox lose nothing. The corpus includes traffic to one owner's range
// alone, to fewer destinations than there are owners, and payload-extremes:
// A = MinInt32, B = MaxInt32 and Kind 255 to peer n-1.
func FuzzDeliver(f *testing.F) {
	f.Add(uint8(6), uint8(1), uint8(0), false, int32(0), int32(0), []byte{0, 1, 0x01, 2, 3, 0x12})
	f.Add(uint8(12), uint8(2), uint8(3), true, int32(0), int32(0), []byte{0, 5, 0x70, 11, 5, 0x71, 3, 200, 0x00, 4, 4, 0xf3, 0, 0, 0x6f, 9, 1, 0x62})
	f.Add(uint8(1), uint8(4), uint8(7), false, int32(0), int32(0), []byte{0, 0, 0xff, 0, 0, 0xfe, 0, 0, 0xf0})
	f.Fuzz(func(t *testing.T, nb, sb, rb uint8, weighted bool, pa, pb int32, data []byte) {
		const ticks = 4
		n, shards, ring := 1+int(nb)%40, 1+int(sb)%6, 2+int(rb)%8
		plans := make([][][]emission, ticks+ring) // the tail drains the ring
		for tk := range plans {
			plans[tk] = make([][]emission, n)
		}
		per := (len(data)/3 + ticks - 1) / ticks
		for b := 0; b+3 <= len(data); b += 3 {
			tk, i, x := b/3/max(per, 1), int(data[b])%n, int(data[b+2])
			for k := 0; k < 1+(x>>4)*37; k++ {
				plans[tk][i] = append(plans[tk][i], emission{
					d: 1 + x%16, // past the horizon of most rings
					m: simnet.Message{To: int(data[b+1])%(n+2) - 1, Kind: uint8(x), A: pa ^ int32(b), B: pb ^ int32(k)},
				})
			}
		}
		cfg := Config{N: n, Shards: shards, Ring: ring}
		if weighted {
			cfg.Weights = frontLoaded(n)
		}
		checkAgainstReference(t, fmt.Sprintf("n=%d/shards=%d/ring=%d/weighted=%v", n, shards, ring, weighted),
			cfg, len(plans), func(tk, i int) []emission { return plans[tk][i] })
	})
}

// TestRecordLayout pins the two message layouts: a Message is 32 bytes,
// its record on a page and in the view 20.
func TestRecordLayout(t *testing.T) {
	if sz := unsafe.Sizeof(simnet.Message{}); sz != 32 {
		t.Errorf("simnet.Message is %d bytes, want 32", sz)
	}
	if sz := unsafe.Sizeof(record{}); sz != 20 || RecordBytes != 20 {
		t.Errorf("a record is %d bytes (RecordBytes %d), want 20", sz, RecordBytes)
	}
}

// TestSlotMessageLimit pins the int32 boundary of a slot's message total,
// which bounds every view offset and owner count: checkTotal admits
// MaxInt32 messages, and Route stops, naming the track and the limit, at the
// first tick that links a slot past it. The slot's count is planted; two
// billion real messages would be 40 GB.
func TestSlotMessageLimit(t *testing.T) {
	checkTotal("test", math.MaxInt32) // the largest slot passes
	c, err := New(Config{N: 4, Shards: 2, Ring: 3, Track: "test"})
	if err != nil {
		t.Fatal(err)
	}
	c.slots[2].msgs = math.MaxInt32
	ln := c.Lane(1)
	ln.Seat(3)
	if m := (simnet.Message{To: 0}); ln.Address(&m) {
		ln.Send(2, m)
	}
	defer func() {
		msg, _ := recover().(string)
		if want := fmt.Sprint(math.MaxInt32); !strings.Contains(msg, want) || !strings.Contains(msg, "test:") {
			t.Errorf("Route stopped with %q, want a message naming the track and the limit %s", msg, want)
		}
	}()
	c.Route(0)
	t.Error("Route linked a slot past the limit")
}

// appendView appends the records the last Deliver put in the view to recs,
// in view order.
func appendView(recs []record, c *Core) []record {
	for j, total := 0, int(c.inOff[c.n]); j < total; j += PageLen {
		recs = append(recs, c.view[j>>pageShift][:min(total-j, PageLen)]...)
	}
	return recs
}

// linkedPages counts the pages on the ring's slots.
func linkedPages(c *Core) int {
	k := 0
	for i := range c.slots {
		for _, own := range c.slots[i].owners {
			k += len(own.pages)
		}
	}
	return k
}

// TestViewPages pins the view's page policy (package comment, "Buffers") on
// three traffic shapes: a ramp of ×1.6 a tick, the shape of a rumor spread
// on a sparse graph, the live-sync workload's repeating totals (0, 120 000,
// 60 000, about 28 600) and flat traffic. After every Deliver the view holds
// ⌈msgs/PageLen⌉ pages that are on no slot, no lane and not in the pool,
// the pool has made no more pages than the peak of linked and view pages
// plus one partly filled page per (lane, delay, owner), and once a shape
// repeats a tick makes no page.
func TestViewPages(t *testing.T) {
	ramp := []int{0}
	for x := 10.0; len(ramp) <= 20; x *= 1.6 {
		ramp = append(ramp, int(x))
	}
	var live, flat []int
	for tk := 0; tk < 12; tk++ {
		live = append(live, []int{0, 120_000, 60_000, 28_600}[tk%4])
		flat = append(flat, min(tk, 1)*5000)
	}
	for _, tc := range []struct {
		name   string
		totals []int
		warm   int // ticks after which no page may be made
	}{{"ramp", ramp, len(ramp)}, {"live-sync", live, 4}, {"flat", flat, 2}} {
		const n, shards, ring = 1000, 2, 2
		c, err := New(Config{N: n, Shards: shards, Ring: ring})
		if err != nil {
			t.Fatal(err)
		}
		peak, warmMade := 0, 0
		for tk, total := range tc.totals {
			linked := linkedPages(c)
			c.Deliver(tk)
			if got := c.View()[n]; int(got) != total {
				t.Fatalf("%s tick %d delivered %d messages, want %d", tc.name, tk, got, total)
			}
			if want := (total + PageLen - 1) / PageLen; len(c.view) != want {
				t.Fatalf("%s tick %d: the view holds %d pages for %d messages, want %d", tc.name, tk, len(c.view), total, want)
			}
			held := map[*record]bool{}
			for _, p := range c.view {
				held[&p[0]] = true
			}
			for i := range c.slots {
				for _, own := range c.slots[i].owners {
					for _, p := range own.pages {
						if held[unsafe.SliceData(p[:PageLen])] {
							t.Fatalf("%s tick %d: a page of the view is on slot %d", tc.name, tk, i)
						}
					}
				}
			}
			for _, p := range c.pool.free {
				if held[unsafe.SliceData(p[:PageLen])] {
					t.Fatalf("%s tick %d: a page of the view is in the pool", tc.name, tk)
				}
			}
			peak = max(peak, linked+len(c.view))
			if tk+1 < len(tc.totals) {
				c.FanOut(func(w int) {
					ln := c.Lane(w)
					ln.Seat(c.Cuts()[w])
					for k := w; k < tc.totals[tk+1]; k += shards {
						ln.Send(1, simnet.Message{To: k % n})
					}
				})
			}
			for w := range c.lanes {
				onLane := slices.Clone(c.lanes[w].open)
				for _, f := range c.lanes[w].full {
					onLane = append(onLane, f.p)
				}
				for _, p := range onLane {
					if p != nil && held[unsafe.SliceData(p[:PageLen])] {
						t.Fatalf("%s tick %d: a page of the view is on lane %d", tc.name, tk, w)
					}
				}
			}
			c.Route(tk)
			peak = max(peak, linkedPages(c)+len(c.view))
			made, _ := c.Pages()
			if limit := peak + shards*shards*(ring-1); made > limit {
				t.Fatalf("%s tick %d: %d pages made, the peak of linked and view pages is %d (limit %d)", tc.name, tk, made, peak, limit)
			}
			if tk+1 == tc.warm {
				warmMade = made
			} else if tk >= tc.warm && made != warmMade {
				t.Fatalf("%s tick %d: a repeated tick made %d pages", tc.name, tk, made-warmMade)
			}
		}
		made, _ := c.Pages()
		t.Logf("%s: %d pages made, peak of linked and view pages %d", tc.name, made, peak)
	}
}

// TestBufferLifetime pins the page policy on both ring shapes in the
// repository, live's two-slot Sync ring and a calendar: a page is on a lane,
// on a slot, held by the delivered view or in the pool and nowhere twice,
// the pool makes no more pages than were ever in flight or in the view plus
// one partly filled page per (lane, delay, owner), a released page is taken
// again, a tick's inboxes survive the tick's Route and the reuse of their
// pages, ScratchBytes is the pages made, the offsets and the view's page
// table and nothing else, and a steady tick allocates nothing.
func TestBufferLifetime(t *testing.T) {
	const n, fan = 600, 6
	const recBytes = int64(unsafe.Sizeof(record{}))
	for _, ring := range []int{2, 5} {
		for _, shards := range []int{1, 2} {
			c, err := New(Config{N: n, Shards: shards, Ring: ring})
			if err != nil {
				t.Fatal(err)
			}
			// Every peer sends fan messages a tick over every delay the ring
			// has: each slot is linked to by ring-1 different ticks. The step
			// allocates nothing itself.
			tk := 0
			cuts := c.Cuts()
			step := func(w int) {
				ln := c.Lane(w)
				for i := cuts[w]; i < cuts[w+1]; i++ {
					ln.Seat(i)
					for k := 0; k < fan; k++ {
						if m := (simnet.Message{To: (i*7 + k*13 + tk) % n, A: int32(tk), B: int32(k)}); ln.Address(&m) {
							ln.Send(1+(i+k)%(ring-1), m)
						}
					}
				}
			}
			var snapshot []record
			delivered := map[*record]bool{} // pages of slots Deliver has gathered
			reused, peak := false, 0
			oneTick := func() {
				for _, own := range c.slots[tk%ring].owners {
					for _, p := range own.pages {
						delivered[unsafe.SliceData(p)] = true
					}
				}
				linked := linkedPages(c)
				c.Deliver(tk)
				peak = max(peak, linked+len(c.view))
				snapshot = appendView(snapshot[:0], c)
				c.FanOut(step)
				c.Route(tk)
				tk++
			}
			for tk < 4*ring {
				oneTick()
				inOff := c.View()
				if !slices.Equal(appendView(nil, c), snapshot) {
					t.Fatalf("ring %d tick %d: Route changed the delivered view", ring, tk-1)
				}
				// Where every page is: once each.
				seen := map[*record]bool{}
				linked := 0
				place := func(where string, p page) {
					if cap(p) != PageLen || seen[unsafe.SliceData(p[:PageLen])] {
						t.Fatalf("ring %d tick %d: a page %s has capacity %d, or is held twice", ring, tk-1, where, cap(p))
					}
					seen[unsafe.SliceData(p[:PageLen])] = true
				}
				if want := (int(inOff[n]) + PageLen - 1) / PageLen; len(c.view) != want {
					t.Fatalf("ring %d tick %d: the view holds %d pages for %d messages, want %d", ring, tk-1, len(c.view), inOff[n], want)
				}
				for _, p := range c.view {
					place("held by the view", p[:])
				}
				for i := range c.slots {
					total := 0
					for o, own := range c.slots[i].owners {
						msgs := 0
						lo, hi := c.Part().Range(o)
						for _, p := range own.pages {
							place("on a slot", p)
							msgs += len(p)
							reused = reused || delivered[unsafe.SliceData(p)]
							if slices.ContainsFunc(p, func(r record) bool { return int(r.to) < lo || int(r.to) >= hi }) {
								t.Fatalf("ring %d tick %d: slot %d files a message outside [%d, %d) under owner %d", ring, tk-1, i, lo, hi, o)
							}
						}
						if msgs != own.msgs {
							t.Fatalf("ring %d tick %d: slot %d owner %d counts %d messages, its pages hold %d", ring, tk-1, i, o, own.msgs, msgs)
						}
						total += msgs
						linked += len(own.pages)
					}
					if total != c.slots[i].msgs {
						t.Fatalf("ring %d tick %d: slot %d counts %d messages, its owners hold %d", ring, tk-1, i, c.slots[i].msgs, total)
					}
				}
				for _, p := range c.pool.free {
					place("in the pool", p)
				}
				for w := range c.lanes {
					if l := c.Lane(w); len(l.full) != 0 || slices.ContainsFunc(l.open, func(p page) bool { return p != nil }) {
						t.Fatalf("ring %d tick %d: lane %d still holds pages after Route", ring, tk-1, w)
					}
				}
				peak = max(peak, linked+len(c.view))
				made, pooled := c.Pages()
				if made != len(seen) || pooled != len(c.pool.free) || made-pooled != linked+len(c.view) {
					t.Fatalf("ring %d tick %d: %d pages made, %d pooled, %d linked, %d in the view, %d found", ring, tk-1, made, pooled, linked, len(c.view), len(seen))
				}
				if limit := peak + shards*shards*(ring-1); made > limit {
					t.Fatalf("ring %d tick %d: %d pages made, at most %d were in flight or in the view (limit %d)", ring, tk-1, made, peak, limit)
				}
				tables := int64(cap(inOff))*4 + int64(cap(c.view))*8
				if got, want := c.ScratchBytes(), int64(made)*PageLen*recBytes+tables; got != want {
					t.Fatalf("ring %d tick %d: ScratchBytes is %d, the %d pages made, the offsets and the page table are %d", ring, tk-1, got, made, want)
				}
			}
			if got := c.View()[n]; int(got) != n*fan || !reused {
				t.Fatalf("ring %d: %d messages delivered a tick, reused=%v: nothing tested", ring, got, reused)
			}
			// Warm: from here a tick allocates nothing on one shard and, past
			// one, only the fan-out's goroutines — a page would be PageLen
			// records.
			made, _ := c.Pages()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const measured = 10
			for range measured {
				oneTick()
			}
			runtime.ReadMemStats(&after)
			if got, limit := (after.TotalAlloc-before.TotalAlloc)/measured, uint64(PageLen*recBytes/4); got > limit {
				t.Errorf("ring %d shards %d: a steady-state tick allocated %d bytes (limit %d)", ring, shards, got, limit)
			}
			if shards == 1 {
				if allocs := testing.AllocsPerRun(10, oneTick); allocs != 0 {
					t.Errorf("ring %d: a steady-state tick made %v allocations, want none", ring, allocs)
				}
			}
			if now, _ := c.Pages(); now != made {
				t.Errorf("ring %d shards %d: steady traffic made %d more pages", ring, shards, now-made)
			}
		}
	}
}

// TestLaneIsolation pins the padding: a lane is a whole number of cache
// lines, and whatever the arrays' alignment at least one full line separates
// the last byte worker w writes from the first byte of worker w+1's lane,
// and worker w's (delay × owner) row of open-page headers, which Send writes
// on every message, from worker w+1's. Send files a message under header
// delay × shards + owner of its own row.
func TestLaneIsolation(t *testing.T) {
	if sz := unsafe.Sizeof(Lane{}); sz%CacheLine != 0 {
		t.Errorf("Lane is %d bytes, not a multiple of the %d-byte cache line", sz, CacheLine)
	}
	for _, ring := range []int{2, 3, 9} {
		for _, shards := range []int{2, 3, 4} {
			c, err := New(Config{N: 64, Shards: shards, Ring: ring})
			if err != nil {
				t.Fatal(err)
			}
			row := ring * shards
			for w := 0; w+1 < shards; w++ {
				stateEnd := uintptr(unsafe.Pointer(c.Lane(w))) + unsafe.Sizeof(laneState{})
				next := uintptr(unsafe.Pointer(c.Lane(w + 1)))
				if next < stateEnd+CacheLine {
					t.Errorf("lane %d's state ends at %#x, lane %d starts at %#x: less than a %d-byte line apart", w, stateEnd, w+1, next, CacheLine)
				}
				open, nextOpen := c.Lane(w).open, c.Lane(w+1).open
				if len(open) != row || cap(open) != row {
					t.Fatalf("ring %d shards %d: lane %d has %d open-page headers (capacity %d), want %d", ring, shards, w, len(open), cap(open), row)
				}
				openEnd := uintptr(unsafe.Pointer(&open[row-1])) + unsafe.Sizeof(page{})
				if first := uintptr(unsafe.Pointer(&nextOpen[0])); first < openEnd+CacheLine {
					t.Errorf("ring %d shards %d: lane %d's open pages end at %#x, lane %d's start at %#x: less than a %d-byte line apart", ring, shards, w, openEnd, w+1, first, CacheLine)
				}
			}
			ln := c.Lane(shards - 1)
			for to := 0; to < 64; to++ {
				if m := (simnet.Message{To: to}); ln.Address(&m) {
					ln.Send(ring-1, m)
				}
				k := (ring-1)*shards + c.Part().Owner(to)
				if p := ln.open[k]; len(p) == 0 || int(p[len(p)-1].to) != to {
					t.Fatalf("ring %d shards %d: message to %d is not last under header %d", ring, shards, to, k)
				}
			}
		}
	}
}
