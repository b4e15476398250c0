package coding

import (
	"bytes"
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
)

// MongerConfig parameterizes a rumor mongering run: broadcasting a B-block
// message from one source to all n nodes, using the dating service to
// arrange who sends to whom in each round and network coding to make every
// transmission useful.
type MongerConfig struct {
	N         int
	Blocks    int
	BlockSize int
	Source    int
	// Profile defaults to homogeneous unit bandwidth; Selector to uniform.
	Profile   bandwidth.Profile
	Selector  core.Selector
	MaxRounds int
	// Seed for the message content (the "movie" being distributed).
	PayloadSeed uint64
}

// MongerResult reports a mongering run: History is the fully decoded node
// count after each round, SentHistory the coded packets transmitted per
// round.
type MongerResult struct {
	run.Stepped
	Innovative int // packets that increased some node's rank
}

// Protocol implements run.Spec.
func (c MongerConfig) Protocol() string { return "monger" }

// Execute implements run.Spec: the run stream derives from the root seed
// under DomainMonger, every dating round draws its workers from the shared
// budget and an observer gets a "monger" track. Trajectory is the
// fully-decoded node history; Detail the full MongerResult.
func (c MongerConfig) Execute(o *run.Options) (run.Report, error) {
	res, err := runMonger(c, run.StreamFor(o.Seed, run.DomainMonger), o.Budget, o.Obs.Track("monger", 1))
	if err != nil {
		return run.Report{}, err
	}
	return res.Report(res, nil), nil
}

// runMonger is the body of MongerConfig.Execute: it runs the protocol on
// run.Flat (s, b and tr are Flat's), each date's sender emitting a
// coded packet drawn off s after the round's seed, in date order, and
// verifies every node's decoded message before declaring completion.
func runMonger(cfg MongerConfig, s *rng.Stream, b *par.Budget, tr *obs.Track) (MongerResult, error) {
	if cfg.N <= 1 {
		return MongerResult{}, fmt.Errorf("coding: mongering needs n > 1, got %d", cfg.N)
	}
	if cfg.Source < 0 || cfg.Source >= cfg.N {
		return MongerResult{}, fmt.Errorf("coding: source %d out of range", cfg.Source)
	}
	if cfg.Blocks <= 0 || cfg.BlockSize <= 0 {
		return MongerResult{}, fmt.Errorf("coding: need positive Blocks and BlockSize")
	}

	// Generate the message.
	payloadRng := rng.New(cfg.PayloadSeed)
	blocks := make([][]byte, cfg.Blocks)
	for i := range blocks {
		blocks[i] = make([]byte, cfg.BlockSize)
		for j := range blocks[i] {
			blocks[i][j] = byte(payloadRng.Intn(256))
		}
	}

	// Per-node decoders; the source starts with full rank.
	nodes := make([]*Decoder, cfg.N)
	var err error
	for i := range nodes {
		if i == cfg.Source {
			nodes[i], err = Source(blocks)
		} else {
			nodes[i], err = NewDecoder(cfg.Blocks, cfg.BlockSize)
		}
		if err != nil {
			return MongerResult{}, err
		}
	}

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8 * (cfg.Blocks + 64)
	}

	// A round's packets, reused: all are emitted from the start-of-round
	// spans before any is delivered, so a packet relayed within the same
	// round cannot leapfrog (synchronous model).
	type delivery struct {
		to  int32
		pkt Packet
	}
	var mail []delivery
	var res MongerResult
	decoded := 1 // the source; a node decodes on its last innovative packet
	f := &run.Flat{N: cfg.N, Limit: maxRounds, Profile: cfg.Profile, Selector: cfg.Selector,
		Dates: func(_ int, dates []core.Date) error {
			mail = mail[:0]
			for _, d := range dates {
				if pkt, ok := nodes[d.Sender].Emit(s); ok {
					mail = append(mail, delivery{to: d.Receiver, pkt: pkt})
				}
			}
			for _, m := range mail {
				innovative, err := nodes[m.to].AddPacket(m.pkt)
				if err != nil {
					return err
				}
				if innovative {
					res.Innovative++
					if nodes[m.to].Decoded() {
						decoded++
					}
				}
			}
			return nil
		},
		End: func(int) (int, int, bool) { return decoded, len(mail), decoded == cfg.N },
	}
	fr, err := f.Drive(s, b, tr)
	if err != nil {
		return MongerResult{}, err
	}
	res.Stepped = fr.Stepped

	if res.Completed {
		// End-to-end integrity: every node must hold the exact message.
		for i, nd := range nodes {
			for b := range blocks {
				got, err := nd.Block(b)
				if err != nil {
					return MongerResult{}, fmt.Errorf("coding: node %d block %d: %v", i, b, err)
				}
				if !bytes.Equal(got, blocks[b]) {
					return MongerResult{}, fmt.Errorf("coding: node %d decoded block %d incorrectly", i, b)
				}
			}
		}
	}
	return res, nil
}
