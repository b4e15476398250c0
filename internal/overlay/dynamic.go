package overlay

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// DynamicRing maintains a DHT whose membership churns: stable node ids map
// to ring positions, nodes may leave, and ids may rejoin at fresh random
// positions (modeling a departed peer replaced by a new one). The induced
// selection distribution changes with every membership event — which the
// dating service tolerates by design, since it only requires a common
// distribution within each round, not across rounds.
type DynamicRing struct {
	pos     []uint64 // by node id; valid only while present
	present []bool
	nAlive  int

	// Lazily rebuilt view over the present nodes.
	ring  *Ring
	ids   []int // rank -> node id
	dirty bool
}

// NewDynamicRing places n nodes (ids 0..n-1) at random positions.
func NewDynamicRing(n int, s *rng.Stream) (*DynamicRing, error) {
	if n <= 0 {
		return nil, fmt.Errorf("overlay: dynamic ring needs n > 0, got %d", n)
	}
	d := &DynamicRing{
		pos:     make([]uint64, n),
		present: make([]bool, n),
		nAlive:  n,
		dirty:   true,
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		d.present[i] = true
		for {
			p := s.Uint64()
			if !seen[p] {
				seen[p] = true
				d.pos[i] = p
				break
			}
		}
	}
	return d, nil
}

// N returns the id space size (present or not).
func (d *DynamicRing) N() int { return len(d.pos) }

// AliveCount returns how many ids are currently present.
func (d *DynamicRing) AliveCount() int { return d.nAlive }

// Present reports whether id is currently on the ring.
func (d *DynamicRing) Present(id int) bool {
	return id >= 0 && id < len(d.pos) && d.present[id]
}

// Leave removes id from the ring; its arc is absorbed by its successor.
// The last present node cannot leave.
func (d *DynamicRing) Leave(id int) error {
	if id < 0 || id >= len(d.pos) || !d.present[id] {
		return fmt.Errorf("overlay: id %d not present", id)
	}
	if d.nAlive == 1 {
		return fmt.Errorf("overlay: cannot remove the last node")
	}
	d.present[id] = false
	d.nAlive--
	d.dirty = true
	return nil
}

// Rejoin places id back on the ring at a fresh random position, as a brand
// new peer would join.
func (d *DynamicRing) Rejoin(id int, s *rng.Stream) error {
	if id < 0 || id >= len(d.pos) {
		return fmt.Errorf("overlay: id %d out of range", id)
	}
	if d.present[id] {
		return fmt.Errorf("overlay: id %d already present", id)
	}
	for {
		p := s.Uint64()
		collision := false
		for j, q := range d.pos {
			if d.present[j] && q == p {
				collision = true
				break
			}
		}
		if !collision {
			d.pos[id] = p
			break
		}
	}
	d.present[id] = true
	d.nAlive++
	d.dirty = true
	return nil
}

// Replace atomically swaps id's position for a fresh one (leave + rejoin),
// modeling a peer that departs and is replaced by a new arrival.
func (d *DynamicRing) Replace(id int, s *rng.Stream) error {
	if err := d.Leave(id); err != nil {
		return err
	}
	return d.Rejoin(id, s)
}

// rebuild refreshes the sorted view. The new ring builds its finger tables
// only if a routing query against Snapshot asks for them.
func (d *DynamicRing) rebuild() error {
	if !d.dirty {
		return nil
	}
	type pair struct {
		pos uint64
		id  int
	}
	pairs := make([]pair, 0, d.nAlive)
	for id, ok := range d.present {
		if ok {
			pairs = append(pairs, pair{d.pos[id], id})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].pos < pairs[j].pos })
	positions := make([]uint64, len(pairs))
	d.ids = make([]int, len(pairs))
	for i, p := range pairs {
		positions[i] = p.pos
		d.ids[i] = p.id
	}
	ring, err := RingFromPositions(positions)
	if err != nil {
		return err
	}
	d.ring = ring
	d.dirty = false
	return nil
}

// PickOwnerID samples the current selection distribution and returns the
// *node id* (not rank) responsible for a uniform random point.
func (d *DynamicRing) PickOwnerID(s *rng.Stream) (int, error) {
	if err := d.rebuild(); err != nil {
		return 0, err
	}
	return d.ids[d.ring.Owner(s.Uint64())], nil
}

// Snapshot returns the current static ring view and the rank-to-id mapping.
// The returned values are invalidated by the next membership change.
func (d *DynamicRing) Snapshot() (*Ring, []int, error) {
	if err := d.rebuild(); err != nil {
		return nil, nil, err
	}
	return d.ring, d.ids, nil
}
