package shardrt

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	for _, cfg := range []Config{
		{N: 0, Ring: 2},
		{N: -3, Ring: 2},
		{N: 4, Ring: 2, Shards: -1},
		{N: 4, Ring: 1},
		{N: 4, Ring: MaxRing + 1},
		{N: 4, Ring: math.MinInt},       // a MaxDelay()+1 that wrapped
		{N: math.MaxInt32 + 1, Ring: 2}, // rejected before the n-sized makes
	} {
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

// TestDeliverMatchesReference drives random traffic — empty ticks, delays
// past the horizon and destinations out of range included — and checks every
// delivered inbox against the definition: the messages due this tick, in
// (tick sent, sender, emission) order, stably sorted by destination.
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
								m: simnet.Message{To: s.Intn(n+2) - 1, Kind: uint8(s.Intn(3)), A: int64(tk), B: int64(k)},
							}
						}
						return out
					}
					cfg := Config{N: n, Shards: shards, Ring: ring}
					if weighted {
						// Front-loaded weights: step cuts differ from the delivery
						// cuts, and nothing below may notice.
						cfg.Weights = make([]float64, n)
						for i := range cfg.Weights {
							cfg.Weights[i] = float64(1 + 8*(n-i))
						}
					}
					c, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					due := make([][]simnet.Message, ticks+ring)
					var want simnet.Stats
					for tk := 0; tk < ticks; tk++ {
						c.Deliver(tk)
						_, inOff := c.View()
						if inOff[0] != 0 || int(inOff[n]) != len(due[tk]) {
							t.Fatalf("%s tick %d: offsets run %d..%d over a slot of %d", name, tk, inOff[0], inOff[n], len(due[tk]))
						}
						for i := 0; i < n; i++ {
							if inOff[i] > inOff[i+1] {
								t.Fatalf("%s tick %d: inOff not monotone at peer %d", name, tk, i)
							}
							var ref []simnet.Message
							for _, m := range due[tk] {
								if m.To == i {
									ref = append(ref, m)
								}
							}
							if got := c.Inbox(i); !slices.Equal(got, ref) {
								t.Fatalf("%s tick %d peer %d: inbox %v, want %v", name, tk, i, got, ref)
							}
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
								for _, e := range plan(tk, i) {
									if m := e.m; ln.Address(&m) {
										ln.Send(e.d, m)
									}
								}
								ln.AddWork(1)
							}
						})
						c.Route(tk)
						want.Rounds++
					}
					if got := c.Stats(); got != want {
						t.Errorf("%s: stats %+v, want %+v", name, got, want)
					}
					if want.Sent == 0 || want.Dropped == 0 || (ring < 9 && want.Clamped == 0) {
						t.Fatalf("%s: sent %d dropped %d clamped %d: nothing tested", name, want.Sent, want.Dropped, want.Clamped)
					}
					if c.Work() != int64(n*ticks) {
						t.Errorf("%s: work %d, want %d", name, c.Work(), n*ticks)
					}
				}
			}
		}
	}
}

// TestBufferLifetime pins the buffer policy on both ring shapes in the
// repository, live's two-slot Sync ring and a calendar: the ring and the
// free list never hold more buffers than the ring has slots, the delivered
// view is nobody's slot, a tick's inboxes survive the tick's Route, a parked
// buffer shows in ScratchBytes, and steady traffic allocates no buffer.
func TestBufferLifetime(t *testing.T) {
	const n, fan = 600, 6
	const msgBytes = int64(unsafe.Sizeof(simnet.Message{}))
	for _, ring := range []int{2, 5} {
		for _, shards := range []int{1, 2} {
			c, err := New(Config{N: n, Shards: shards, Ring: ring})
			if err != nil {
				t.Fatal(err)
			}
			// Every peer sends fan messages a tick over every delay the ring
			// has: each slot is filled by ring-1 different ticks, so slots
			// also grow while non-empty. The step allocates nothing itself.
			tk := 0
			cuts := c.Cuts()
			step := func(w int) {
				ln := c.Lane(w)
				for i := cuts[w]; i < cuts[w+1]; i++ {
					ln.Seat(i)
					for k := 0; k < fan; k++ {
						if m := (simnet.Message{To: (i*7 + k*13 + tk) % n, A: int64(tk), B: int64(k)}); ln.Address(&m) {
							ln.Send(1+(i+k)%(ring-1), m)
						}
					}
				}
			}
			var snapshot []simnet.Message
			parked := false
			oneTick := func() {
				c.Deliver(tk)
				sorted, inOff := c.View()
				snapshot = append(snapshot[:0], sorted...)
				if slots, free := c.Buffers(); len(free) > 0 {
					// The gathered slot's buffer is parked until Route: held
					// memory that ScratchBytes must not lose sight of.
					parked = true
					held := int64(cap(sorted))*(msgBytes+4) + int64(cap(inOff))*4 // the view, its index column, the offsets
					for _, s := range slots {
						held += int64(cap(s)) * msgBytes
					}
					var parkedBytes int64
					for _, s := range free {
						parkedBytes += int64(cap(s)) * msgBytes
					}
					if got := c.ScratchBytes() - held; got != parkedBytes || parkedBytes == 0 {
						t.Fatalf("ring %d tick %d: ScratchBytes counts %d bytes beyond the ring and the view, the free list holds %d", ring, tk, got, parkedBytes)
					}
				}
				c.FanOut(step)
				c.Route(tk)
				tk++
			}
			for tk < 4*ring {
				oneTick()
				sorted, _ := c.View()
				if !slices.Equal(sorted, snapshot) {
					t.Fatalf("ring %d tick %d: Route changed the delivered view", ring, tk-1)
				}
				slots, free := c.Buffers()
				seen := map[*simnet.Message]bool{unsafe.SliceData(sorted): true}
				buffers := 0
				for _, buf := range slices.Concat(slots, free) {
					if cap(buf) == 0 {
						continue
					}
					buffers++
					if seen[unsafe.SliceData(buf)] {
						t.Fatalf("ring %d tick %d: a buffer is held twice, or by a slot and the delivered view", ring, tk-1)
					}
					seen[unsafe.SliceData(buf)] = true
				}
				if buffers > ring {
					t.Fatalf("ring %d tick %d: %d buffers in the ring and the free list", ring, tk-1, buffers)
				}
			}
			if sorted, _ := c.View(); len(sorted) != n*fan || !parked {
				t.Fatalf("ring %d: %d messages delivered a tick, parked=%v: nothing tested", ring, len(sorted), parked)
			}
			// Warm: from here a tick allocates its phase closures (and, past
			// one shard, the fan-out's goroutines) and no buffer — one would
			// be at least a slot's n*fan messages.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const measured = 10
			for range measured {
				oneTick()
			}
			runtime.ReadMemStats(&after)
			if got, limit := (after.TotalAlloc-before.TotalAlloc)/measured, uint64(n*fan*msgBytes/64); got > limit {
				t.Errorf("ring %d shards %d: a steady-state tick allocated %d bytes (limit %d)", ring, shards, got, limit)
			}
			if shards == 1 {
				if allocs := testing.AllocsPerRun(10, oneTick); allocs > 3 {
					t.Errorf("ring %d: a steady-state tick made %v allocations, want the three phase closures of Deliver and Route", ring, allocs)
				}
			}
		}
	}
}

// TestLaneIsolation pins the padding: a lane is a whole number of cache
// lines, and whatever the array's alignment at least one full line separates
// the last byte worker w writes from the first byte of worker w+1's lane.
func TestLaneIsolation(t *testing.T) {
	if sz := unsafe.Sizeof(Lane{}); sz%CacheLine != 0 {
		t.Errorf("Lane is %d bytes, not a multiple of the %d-byte cache line", sz, CacheLine)
	}
	c, err := New(Config{N: 64, Shards: 4, Ring: 2})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w+1 < c.Shards(); w++ {
		stateEnd := uintptr(unsafe.Pointer(c.Lane(w))) + unsafe.Sizeof(laneState{})
		next := uintptr(unsafe.Pointer(c.Lane(w + 1)))
		if next < stateEnd+CacheLine {
			t.Errorf("lane %d's state ends at %#x, lane %d starts at %#x: less than a %d-byte line apart", w, stateEnd, w+1, next, CacheLine)
		}
	}
}
