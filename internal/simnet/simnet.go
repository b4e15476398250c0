// Package simnet holds the message model every protocol of this repository
// speaks — Message and the Stats traffic counters — and Live, the
// sequential engine the test suites use as a differential oracle: peers
// stepped one after another, one mailbox per peer, messages routed in peer
// order.
//
// Production runs use the sharded runtimes of internal/live and
// internal/async instead: they execute the same step functions over the
// same Message/Stats types with a fixed worker pool, flat reusable buffers
// and a pluggable network model, and are bit-identical across shard counts.
//
// Payloads are two int32 words (enough for "the address of your date" plus a
// tag — the paper stresses that control messages are tiny, about one IP
// address each). int32 is enough because every payload the protocols send is
// a peer id, a state byte, a variant or a consensus stamp, and peer ids are
// bounded by n <= MaxInt32: the sharded runtimes reject a larger n.
package simnet

// Message is a unit protocol message: 32 bytes.
type Message struct {
	From, To int
	Kind     uint8
	A, B     int32
}

// Stats aggregates traffic counters for an engine run.
type Stats struct {
	Sent    int64 // messages accepted for delivery
	Dropped int64 // messages the network lost or sent to an invalid peer
	Rounds  int64 // rounds (or calendar buckets) executed
	// Clamped counts messages whose planned delay exceeded the engine's
	// schedulable horizon and was clamped to it: a NetModel.Plan result
	// beyond MaxDelay() on the sharded runtime, or a float boundary-noise
	// clamp on the async calendar. The messages are still delivered (at the
	// horizon), but a nonzero count flags a model whose Plan and MaxDelay
	// disagree. Round-synchronous engines never clamp.
	Clamped int64
	ByKind  [256]int64 // sent messages per Kind
}
