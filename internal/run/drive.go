package run

import (
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Stepped is what every protocol reports about its rounds, embedded in its
// result.
type Stepped struct {
	// Rounds is the number of rounds executed: dating rounds, or calendar
	// buckets for async.
	Rounds int
	// Completed reports whether the protocol reached its goal within its
	// round cap (fixed-length protocols complete on their last round).
	Completed bool
	// History is the protocol's progress count after each round: informed
	// peers, known (node, rumor) pairs, decoded nodes, placed replicas,
	// completed dates or decided peers.
	History []int
	// SentHistory is the number of messages (or dates) moved per round.
	SentHistory []int
}

// Drive is the one round loop of every protocol. It calls round(1),
// round(2), ... until a round reports done, limit rounds have run or a round
// fails, records each round's progress and sent count, and publishes tr's
// spans after every round (tr may be nil).
func Drive(limit int, tr *obs.Track, round func(r int) (sent, progress int, done bool, err error)) (Stepped, error) {
	var res Stepped
	for r := 1; r <= limit; r++ {
		sent, progress, done, err := round(r)
		if err != nil {
			return res, err
		}
		res.Rounds = r
		res.History = append(res.History, progress)
		res.SentHistory = append(res.SentHistory, sent)
		tr.Barrier()
		if done {
			res.Completed = true
			break
		}
	}
	return res, nil
}

// Report maps a driven result onto the unified report, with detail as its
// Detail. Messages is the sum of SentHistory, unless traffic — the counters
// of the message engine the protocol ran on — is given: then Messages,
// Dropped and Clamped are the engine's.
func (s Stepped) Report(detail any, traffic *simnet.Stats) Report {
	rep := Report{
		Rounds:     s.Rounds,
		Completed:  s.Completed,
		Trajectory: s.History,
		Sent:       s.SentHistory,
		Messages:   SumSent(s.SentHistory),
		Detail:     detail,
	}
	if traffic != nil {
		rep.Messages, rep.Dropped, rep.Clamped = traffic.Sent, traffic.Dropped, traffic.Clamped
	}
	return rep
}

// SumSent totals a per-round message history.
func SumSent(sent []int) int64 {
	var total int64
	for _, v := range sent {
		total += int64(v)
	}
	return total
}
