package coding

import (
	"bytes"
	"testing"

	"repro/internal/rng"
	"repro/internal/run"
)

func randomBlocks(s *rng.Stream, b, size int) [][]byte {
	blocks := make([][]byte, b)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		for j := range blocks[i] {
			blocks[i][j] = byte(s.Intn(256))
		}
	}
	return blocks
}

func TestDecoderValidation(t *testing.T) {
	if _, err := NewDecoder(0, 8); err == nil {
		t.Error("accepted zero blocks")
	}
	if _, err := NewDecoder(4, 0); err == nil {
		t.Error("accepted zero block size")
	}
	d, _ := NewDecoder(4, 8)
	if _, err := d.AddPacket(Packet{Coeffs: make([]byte, 3), Payload: make([]byte, 8)}); err == nil {
		t.Error("accepted short coefficient vector")
	}
	if _, err := d.AddPacket(Packet{Coeffs: make([]byte, 4), Payload: make([]byte, 5)}); err == nil {
		t.Error("accepted wrong payload size")
	}
	if _, err := d.Block(0); err == nil {
		t.Error("decoded before full rank")
	}
}

func TestSourceHasFullRank(t *testing.T) {
	s := rng.New(1)
	blocks := randomBlocks(s, 5, 16)
	src, err := Source(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Decoded() || src.Rank() != 5 {
		t.Fatalf("source rank %d", src.Rank())
	}
	for i := range blocks {
		got, err := src.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blocks[i]) {
			t.Fatalf("source block %d corrupted", i)
		}
	}
}

func TestSourceValidation(t *testing.T) {
	if _, err := Source(nil); err == nil {
		t.Error("accepted empty block list")
	}
	if _, err := Source([][]byte{{}}); err == nil {
		t.Error("accepted empty block")
	}
	if _, err := Source([][]byte{{1, 2}, {3}}); err == nil {
		t.Error("accepted ragged blocks")
	}
}

func TestDirectTransferDecodes(t *testing.T) {
	// Receiving B random coded packets from the source decodes the message
	// with overwhelming probability over GF(256).
	s := rng.New(2)
	blocks := randomBlocks(s, 8, 32)
	src, _ := Source(blocks)
	dst, _ := NewDecoder(8, 32)
	sent := 0
	for !dst.Decoded() {
		pkt, ok := src.Emit(s)
		if !ok {
			t.Fatal("source cannot emit")
		}
		if _, err := dst.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
		sent++
		if sent > 20 {
			t.Fatalf("needed %d packets for 8 blocks; dependence rate absurd", sent)
		}
	}
	for i := range blocks {
		got, _ := dst.Block(i)
		if !bytes.Equal(got, blocks[i]) {
			t.Fatalf("block %d decoded incorrectly", i)
		}
	}
}

func TestRelayedRecodingDecodes(t *testing.T) {
	// source -> relay -> sink, with the relay recoding from a partial span:
	// the core property that makes mongering work without coordination.
	s := rng.New(3)
	blocks := randomBlocks(s, 6, 24)
	src, _ := Source(blocks)
	relay, _ := NewDecoder(6, 24)
	sink, _ := NewDecoder(6, 24)
	guard := 0
	for !sink.Decoded() {
		if pkt, ok := src.Emit(s); ok {
			if _, err := relay.AddPacket(pkt); err != nil {
				t.Fatal(err)
			}
		}
		if pkt, ok := relay.Emit(s); ok {
			if _, err := sink.AddPacket(pkt); err != nil {
				t.Fatal(err)
			}
		}
		guard++
		if guard > 100 {
			t.Fatalf("sink stuck at rank %d of 6", sink.Rank())
		}
	}
	for i := range blocks {
		got, _ := sink.Block(i)
		if !bytes.Equal(got, blocks[i]) {
			t.Fatalf("relayed block %d corrupted", i)
		}
	}
}

func TestNonInnovativePacketsRejected(t *testing.T) {
	s := rng.New(4)
	blocks := randomBlocks(s, 4, 8)
	src, _ := Source(blocks)
	dst, _ := NewDecoder(4, 8)
	pkt, _ := src.Emit(s)
	saved := pkt.Clone()
	if innovative, _ := dst.AddPacket(pkt); !innovative {
		t.Fatal("first packet must be innovative")
	}
	if innovative, _ := dst.AddPacket(saved); innovative {
		t.Fatal("identical packet counted as innovative")
	}
	if dst.Rank() != 1 {
		t.Fatalf("rank %d after duplicate", dst.Rank())
	}
}

func TestZeroPacketNotInnovative(t *testing.T) {
	dst, _ := NewDecoder(3, 4)
	innovative, err := dst.AddPacket(Packet{Coeffs: make([]byte, 3), Payload: make([]byte, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if innovative {
		t.Fatal("all-zero packet counted as innovative")
	}
}

func TestEmitFromEmptySpan(t *testing.T) {
	d, _ := NewDecoder(3, 4)
	if _, ok := d.Emit(rng.New(5)); ok {
		t.Fatal("empty decoder emitted a packet")
	}
}

func TestEmitNeverZero(t *testing.T) {
	// Emit guards against the all-zero combination, so every transmission
	// from a non-empty span carries information.
	s := rng.New(6)
	blocks := randomBlocks(s, 2, 4)
	src, _ := Source(blocks)
	for i := 0; i < 2000; i++ {
		pkt, ok := src.Emit(s)
		if !ok {
			t.Fatal("source must emit")
		}
		zero := true
		for _, c := range pkt.Coeffs {
			if c != 0 {
				zero = false
				break
			}
		}
		if zero {
			t.Fatal("emitted the zero combination")
		}
	}
}

func TestRankNeverExceedsBlocks(t *testing.T) {
	s := rng.New(7)
	blocks := randomBlocks(s, 5, 8)
	src, _ := Source(blocks)
	dst, _ := NewDecoder(5, 8)
	for i := 0; i < 50; i++ {
		pkt, _ := src.Emit(s)
		if _, err := dst.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
		if dst.Rank() > 5 {
			t.Fatalf("rank %d exceeds block count", dst.Rank())
		}
	}
}

func TestRunMongerValidation(t *testing.T) {
	s := rng.New(8)
	if _, err := runMonger(MongerConfig{N: 1, Blocks: 2, BlockSize: 4}, s, nil, nil); err == nil {
		t.Error("accepted n = 1")
	}
	if _, err := runMonger(MongerConfig{N: 4, Blocks: 0, BlockSize: 4}, s, nil, nil); err == nil {
		t.Error("accepted zero blocks")
	}
	if _, err := runMonger(MongerConfig{N: 4, Blocks: 2, BlockSize: 4, Source: 9}, s, nil, nil); err == nil {
		t.Error("accepted bad source")
	}
}

func TestRunMongerCompletes(t *testing.T) {
	s := rng.New(9)
	res, err := runMonger(MongerConfig{N: 40, Blocks: 8, BlockSize: 16, PayloadSeed: 1}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("mongering incomplete after %d rounds", res.Rounds)
	}
	// Each node receives at most one packet per round (unit bandwidth), so
	// at least Blocks rounds are information-theoretically necessary.
	if res.Rounds < 8 {
		t.Fatalf("completed in %d rounds, impossible for 8 blocks at unit bandwidth", res.Rounds)
	}
	last := res.History[len(res.History)-1]
	if last != 40 {
		t.Fatalf("final decoded count %d", last)
	}
	if sent := run.SumSent(res.SentHistory); int64(res.Innovative) > sent {
		t.Fatalf("innovative %d > sent %d", res.Innovative, sent)
	}
}

func TestRunMongerRoundsNearOptimal(t *testing.T) {
	// Network coding should finish in about Blocks + O(log n) rounds; allow
	// a factor ~4 of the information-theoretic bound.
	s := rng.New(10)
	const n, blocks = 60, 12
	res, err := runMonger(MongerConfig{N: n, Blocks: blocks, BlockSize: 8, PayloadSeed: 2}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	bound := 4 * (blocks + 12) // 12 ~ 2 log2 n
	if res.Rounds > bound {
		t.Fatalf("took %d rounds, loose bound %d", res.Rounds, bound)
	}
}

func TestRunMongerDecodedHistoryMonotone(t *testing.T) {
	s := rng.New(11)
	res, err := runMonger(MongerConfig{N: 30, Blocks: 4, BlockSize: 8}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, c := range res.History {
		if c < prev {
			t.Fatalf("decoded count dropped at round %d", i+1)
		}
		prev = c
	}
}

func TestRunMongerRespectsMaxRounds(t *testing.T) {
	s := rng.New(12)
	res, err := runMonger(MongerConfig{N: 100, Blocks: 32, BlockSize: 8, MaxRounds: 3}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rounds > 3 {
		t.Fatalf("cap violated: %+v", res)
	}
}
