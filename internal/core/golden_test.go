package core

// Golden pins for the serial reference round: the FNV-1a hashes below were
// produced by the pre-radix engine (per-worker length-n count arrays,
// commit 35adb4e) on the exact configuration replayed here. They freeze the
// serial round's output bit-for-bit — Date order included — so any rewrite
// of the scatter/exchange/sort passes that changes a single bucket's layout
// fails loudly. Seeded rounds are pinned against the reference algorithm
// (TestArrangeMatchesReference) and, through whole runs, by the root
// seedcompat pins.

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
)

// hashRound folds a RoundResult — counters, the full date sequence, and the
// per-node load vectors — into one order-sensitive hash.
func hashRound(res RoundResult, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wr(res.OffersSent)
	wr(res.RequestsSent)
	wr(len(res.Dates))
	for _, d := range res.Dates {
		wr(d.Sender)
		wr(d.Receiver)
	}
	out, in := res.PerNode(n)
	for _, c := range out {
		wr(c)
	}
	for _, c := range in {
		wr(c)
	}
	return h.Sum64()
}

func TestEngineGoldenSerial(t *testing.T) {
	// Three consecutive serial-stream rounds at n=1000, b=2.
	want := []uint64{0x6420e5323018ee4d, 0x33c6b6739a16387, 0x54e282f165b8cd37}
	const n, seed = 1000, 12345
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	svc := mustService(t, bandwidth.Homogeneous(n, 2), sel)
	s := rng.New(seed)
	for r, w := range want {
		if got := hashRound(svc.RunRound(s), n); got != w {
			t.Fatalf("serial round %d: hash %#x, want %#x (pre-radix engine output changed)", r, got, w)
		}
	}
}
