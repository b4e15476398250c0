package coding

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bandwidth"
	"repro/internal/rng"
)

// Order-invariance and robustness properties of the incremental decoder.

func TestDecodeOrderInvariance(t *testing.T) {
	// Feeding the same packet multiset in any order yields the same decoded
	// message (Gaussian elimination is order-invariant in its result).
	s := rng.New(1)
	const blocks, size = 6, 16
	data := randomBlocks(s, blocks, size)
	src, _ := Source(data)

	// Collect more packets than needed.
	var packets []Packet
	for i := 0; i < blocks+4; i++ {
		pkt, _ := src.Emit(s)
		packets = append(packets, pkt)
	}

	decodeIn := func(order []int) *Decoder {
		d, _ := NewDecoder(blocks, size)
		for _, idx := range order {
			if _, err := d.AddPacket(packets[idx].clone()); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	forward := make([]int, len(packets))
	backward := make([]int, len(packets))
	for i := range forward {
		forward[i] = i
		backward[i] = len(packets) - 1 - i
	}
	shuffled := append([]int(nil), forward...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}

	for _, order := range [][]int{forward, backward, shuffled} {
		d := decodeIn(order)
		if !d.Decoded() {
			t.Fatalf("order %v did not decode", order)
		}
		for b := range data {
			got, err := d.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[b]) {
				t.Fatalf("order %v: block %d corrupted", order, b)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Packet{Coeffs: []byte{1, 2}, Payload: []byte{3, 4}}
	c := p.clone()
	c.Coeffs[0] = 9
	c.Payload[0] = 9
	if p.Coeffs[0] != 1 || p.Payload[0] != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestDecoderRREFInvariantProperty(t *testing.T) {
	// Property: after any sequence of packet insertions, the decoder's rank
	// equals the number of stored rows, rank never exceeds blocks, and
	// every accepted innovative packet raises rank by exactly one.
	err := quick.Check(func(seed uint64, nPackets uint8) bool {
		s := rng.New(seed)
		const blocks, size = 5, 8
		data := randomBlocks(s, blocks, size)
		src, err := Source(data)
		if err != nil {
			return false
		}
		d, err := NewDecoder(blocks, size)
		if err != nil {
			return false
		}
		prev := 0
		for i := 0; i < int(nPackets%24); i++ {
			pkt, ok := src.Emit(s)
			if !ok {
				return false
			}
			innovative, err := d.AddPacket(pkt)
			if err != nil {
				return false
			}
			if innovative && d.rank() != prev+1 {
				return false
			}
			if !innovative && d.rank() != prev {
				return false
			}
			prev = d.rank()
			if d.rank() > blocks {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialRankEmitStillUseful(t *testing.T) {
	// A relay with partial rank emits packets that are innovative to an
	// empty decoder with overwhelming probability.
	s := rng.New(2)
	const blocks, size = 8, 8
	data := randomBlocks(s, blocks, size)
	src, _ := Source(data)
	relay, _ := NewDecoder(blocks, size)
	for i := 0; i < 3; i++ { // rank 3 relay (whp)
		pkt, _ := src.Emit(s)
		if _, err := relay.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if relay.rank() == 0 {
		t.Fatal("relay rank 0 after 3 packets")
	}
	sink, _ := NewDecoder(blocks, size)
	innovativeCount := 0
	for i := 0; i < relay.rank(); i++ {
		pkt, ok := relay.Emit(s)
		if !ok {
			t.Fatal("relay cannot emit")
		}
		innovative, err := sink.AddPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if innovative {
			innovativeCount++
		}
	}
	// Over GF(256), rank(relay) emissions are full-rank whp; tolerate one
	// dependence.
	if innovativeCount < relay.rank()-1 {
		t.Fatalf("only %d of %d relay emissions innovative", innovativeCount, relay.rank())
	}
	if sink.rank() > relay.rank() {
		t.Fatal("sink rank exceeds relay span")
	}
}

func TestMongerWithHeterogeneousProfile(t *testing.T) {
	// Rich nodes move more packets per round; mongering must still verify
	// end-to-end.
	s := rng.New(3)
	prof := heterogeneousProfile(30)
	res, err := runMonger(MongerConfig{
		N: 30, Blocks: 6, BlockSize: 16, Profile: prof, PayloadSeed: 4,
	}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("heterogeneous mongering incomplete after %d rounds", res.Rounds)
	}
}

func TestMongerProfileMismatch(t *testing.T) {
	s := rng.New(4)
	prof := heterogeneousProfile(10)
	if _, err := runMonger(MongerConfig{N: 20, Blocks: 2, BlockSize: 4, Profile: prof}, s, nil, nil); err == nil {
		t.Fatal("accepted profile/N mismatch")
	}
}

// heterogeneousProfile builds a small two-class profile for mongering tests.
func heterogeneousProfile(n int) bandwidth.Profile {
	in := make([]int, n)
	out := make([]int, n)
	for i := range in {
		b := 1
		if i%5 == 0 {
			b = 3
		}
		in[i] = b
		out[i] = b
	}
	return bandwidth.Profile{In: in, Out: out}
}
