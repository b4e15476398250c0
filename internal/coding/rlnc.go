package coding

import (
	"fmt"

	"repro/internal/rng"
)

// Packet is one coded transmission: Payload = sum_i Coeffs[i] * block_i.
type Packet struct {
	Coeffs  []byte
	Payload []byte
}

// Decoder accumulates coded packets for a B-block message and maintains
// them in reduced row echelon form, so decoding is incremental: each
// innovative packet raises the rank by one, and at rank B the stored
// payloads are exactly the source blocks.
type Decoder struct {
	blocks    int
	blockSize int
	rows      []Packet // RREF rows ordered by pivot column
	pivots    []int    // pivots[r] = pivot column of rows[r]
}

// NewDecoder creates a decoder for a message of `blocks` blocks of
// `blockSize` bytes each.
func NewDecoder(blocks, blockSize int) (*Decoder, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("coding: decoder needs blocks > 0, got %d", blocks)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("coding: decoder needs blockSize > 0, got %d", blockSize)
	}
	return &Decoder{blocks: blocks, blockSize: blockSize}, nil
}

// Decoded reports whether the full message can be reconstructed.
func (d *Decoder) Decoded() bool { return len(d.rows) == d.blocks }

// AddPacket folds one packet into the decoder. It returns true when the
// packet was innovative (increased the rank). The packet is consumed: its
// backing arrays may be modified.
func (d *Decoder) AddPacket(p Packet) (bool, error) {
	if len(p.Coeffs) != d.blocks {
		return false, fmt.Errorf("coding: packet has %d coefficients, want %d", len(p.Coeffs), d.blocks)
	}
	if len(p.Payload) != d.blockSize {
		return false, fmt.Errorf("coding: packet payload %d bytes, want %d", len(p.Payload), d.blockSize)
	}
	// Reduce the incoming packet by existing pivots.
	for r, piv := range d.pivots {
		if c := p.Coeffs[piv]; c != 0 {
			mulSlice(p.Coeffs, d.rows[r].Coeffs, c)
			mulSlice(p.Payload, d.rows[r].Payload, c)
		}
	}
	// Find its leading coefficient.
	lead := -1
	for i, c := range p.Coeffs {
		if c != 0 {
			lead = i
			break
		}
	}
	if lead == -1 {
		return false, nil // linearly dependent: not innovative
	}
	// Normalize so the pivot is 1.
	inv := Inv(p.Coeffs[lead])
	scaleSlice(p.Coeffs, inv)
	scaleSlice(p.Payload, inv)
	// Eliminate the new pivot from existing rows (keep full RREF).
	for r := range d.rows {
		if c := d.rows[r].Coeffs[lead]; c != 0 {
			mulSlice(d.rows[r].Coeffs, p.Coeffs, c)
			mulSlice(d.rows[r].Payload, p.Payload, c)
		}
	}
	// Insert in pivot order.
	at := len(d.pivots)
	for i, piv := range d.pivots {
		if lead < piv {
			at = i
			break
		}
	}
	d.rows = append(d.rows, Packet{})
	copy(d.rows[at+1:], d.rows[at:])
	d.rows[at] = p
	d.pivots = append(d.pivots, 0)
	copy(d.pivots[at+1:], d.pivots[at:])
	d.pivots[at] = lead
	return true, nil
}

// Block returns decoded block i; it requires Decoded() == true. The
// returned slice aliases decoder state and must not be modified.
func (d *Decoder) Block(i int) ([]byte, error) {
	if !d.Decoded() {
		return nil, fmt.Errorf("coding: rank %d of %d, cannot decode yet", len(d.rows), d.blocks)
	}
	if i < 0 || i >= d.blocks {
		return nil, fmt.Errorf("coding: block %d out of range [0,%d)", i, d.blocks)
	}
	// In full RREF with rank == blocks, row r has pivot column r.
	return d.rows[i].Payload, nil
}

// Emit produces a fresh uniformly random recombination of everything this
// decoder has received, or ok == false when the span is empty. This is what
// a node transmits on an arranged date.
func (d *Decoder) Emit(s *rng.Stream) (Packet, bool) {
	if len(d.rows) == 0 {
		return Packet{}, false
	}
	out := Packet{
		Coeffs:  make([]byte, d.blocks),
		Payload: make([]byte, d.blockSize),
	}
	allZero := true
	coefs := make([]byte, len(d.rows))
	for i := range coefs {
		coefs[i] = byte(s.Intn(256))
		if coefs[i] != 0 {
			allZero = false
		}
	}
	if allZero {
		// A zero combination carries nothing; flip one coefficient so the
		// transmission is never wasted.
		coefs[s.Intn(len(coefs))] = byte(1 + s.Intn(255))
	}
	for r := range d.rows {
		mulSlice(out.Coeffs, d.rows[r].Coeffs, coefs[r])
		mulSlice(out.Payload, d.rows[r].Payload, coefs[r])
	}
	return out, true
}

// Source builds the decoder state of the original source node: rank B with
// the identity coefficient matrix over the given blocks. Blocks must all
// have the same positive length; they are copied.
func Source(blocks [][]byte) (*Decoder, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("coding: source needs at least one block")
	}
	size := len(blocks[0])
	if size == 0 {
		return nil, fmt.Errorf("coding: blocks must be non-empty")
	}
	d, err := NewDecoder(len(blocks), size)
	if err != nil {
		return nil, err
	}
	for i, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("coding: block %d has %d bytes, want %d", i, len(b), size)
		}
		coeffs := make([]byte, len(blocks))
		coeffs[i] = 1
		if _, err := d.AddPacket(Packet{Coeffs: coeffs, Payload: append([]byte(nil), b...)}); err != nil {
			return nil, err
		}
	}
	return d, nil
}
