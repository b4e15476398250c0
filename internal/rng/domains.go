package rng

// Domain allocation registry.
//
// Every package that derives stream families from a root seed does so with
// Derive(seed, domain, coords...); the domain tag keeps the families of
// different subsystems disjoint even when they share a root seed. Tags are
// allocated once, here, so a new subsystem can pick a fresh range without
// grepping the tree. This list is the source of truth; the annotated table
// — owner package and coordinate meaning for every tag — lives in
// docs/DETERMINISM.md and MUST be updated together with this list:
//
//	0x01–0x02   core.Arranger / seeded Service rounds (per-node scatter,
//	            per-rendezvous match)
//	0x11–0x61   sim harness repetition jobs (figure1: 0x11–0x13, figure2:
//	            0x21, multirumor: 0x31, loads: 0x41, dynamic: 0x51,
//	            storage: 0x61)
//	0x71        sim async experiment inputs (heterogeneous Zipf profiles)
//	0x81        sim topology experiment jobs
//	0x82        sim consensus experiment jobs
//	0x91–0x94   live runtime (peer streams, net streams, churn hash, ring
//	            embedding)
//	0xA1–0xA9   run protocol seeds (rumor, multi, live, monger, storage,
//	            handshake, async, topology, consensus)
//	0xB1        async runtime firing streams (DomainAsyncFire)
//	0xC1        graph generators (DomainGraph)
//	0xD1        gossip consensus seed-placement geometry
//
// Most tags stay unexported inside their owning package (they are an
// implementation detail of that package's determinism story); the constants
// below are the ones shared across packages.
const (
	// DomainAsyncFire seeds the streams of the async runtime's clocks: peer
	// i's stream k, seeded Derive(runtimeSeed, DomainAsyncFire, i, k), holds
	// the protocol randomness of firing k-1 (none for k = 0) and then the
	// gap that schedules firing k. Deriving per (peer, firing-index) —
	// rather than per peer — is what makes the async runtime bit-identical
	// for every shard count: no shard ever needs another shard's generator
	// position to reproduce an event.
	DomainAsyncFire uint64 = 0xB1

	// DomainGraph seeds the topology generators of internal/graph: a
	// generator derives its stream Derive(seed, DomainGraph, tag, params...)
	// where tag identifies the generator family, so a graph is a pure
	// function of (seed, parameters) — bit-identical wherever it is built,
	// at every worker count (the generator goldens pin this).
	DomainGraph uint64 = 0xC1
)
