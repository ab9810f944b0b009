// Package repro is a from-scratch reproduction of "Partitioned Data
// Security on Outsourced Sensitive and Non-sensitive Data" (Mehrotra,
// Sharma, Ullman, Mishra — ICDE 2019): the query binning (QB) technique for
// executing selection queries over a relation split into an encrypted
// sensitive partition and a clear-text non-sensitive partition, both hosted
// by one untrusted cloud, without the joint processing leaking which
// encrypted tuple corresponds to which plaintext one.
//
// The top-level package is the public API: a Client that partitions,
// outsources and queries a relation through QB over a pluggable
// cryptographic technique. The building blocks live under internal/ and
// are re-exported here as type aliases where downstream code needs them.
// README.md covers the paper's claims, the quickstarts and the technique
// matrix; docs/ARCHITECTURE.md has the layer diagram, the concurrency
// model and the batched-search flow; docs/BENCHMARKS.md records the bench
// methodology and numbers.
//
// Quick start:
//
//	rel := repro.NewRelation(repro.MustSchema("Employee",
//		repro.Column{Name: "EId", Kind: repro.KindString},
//		repro.Column{Name: "Dept", Kind: repro.KindString},
//	))
//	rel.MustInsert(repro.Str("E101"), repro.Str("Defense"))
//	rel.MustInsert(repro.Str("E259"), repro.Str("Design"))
//
//	client, err := repro.NewClient(repro.Config{
//		MasterKey: []byte("32-byte master secret ........."),
//		Attr:      "EId",
//	})
//	// handle err
//	err = client.Outsource(rel, func(t repro.Tuple) bool {
//		return t.Values[1].Str() == "Defense" // row-level sensitivity
//	})
//	// handle err
//	tuples, err := client.Query(repro.Str("E101"))
//
// Batches of selections execute as one unit, with per-query results and
// the cloud's adversarial-view log identical to looping Query
// sequentially. The encrypted side of the whole batch goes to the
// technique in a single batched search, so scan-shaped techniques pull
// their attribute column / scan their table once per batch instead of
// once per query, while the plaintext bin fetches fan out over a bounded
// worker pool (see ExampleClient_QueryBatch):
//
//	answers, err := client.QueryBatch([]repro.Value{
//		repro.Str("E101"), repro.Str("E259"),
//	})
//	// answers[0] and answers[1] line up with the two query values.
//
//	for res := range client.QueryAsync(queries) { // streaming variant
//		// res.Index, res.Tuples, res.Err arrive in completion order.
//	}
//
// The cloud can run as a separate process (cmd/qbcloud) reached over a
// multiplexed wire protocol: requests carry IDs, so a batch keeps many
// calls in flight on one connection and the server dispatches them
// concurrently, and a batched query pays a single round trip for the
// whole batch's encrypted bin fetches.
//
// One qbcloud hosts any number of relations: Config.Store selects the
// cloud-side namespace (its own clear-text store, encrypted store and
// address space; empty means "default"), so several tenants share one
// server without sharing state. The protocol is versioned — a connection
// opens with a handshake, and generation skew fails with an explicit
// version-mismatch error rather than corrupted frames:
//
//	remote, err := repro.NewClient(repro.Config{
//		MasterKey: key,
//		Attr:      "EId",
//		CloudAddr: "cloud-host:7040", // a running qbcloud process
//		Store:     "hr",              // namespace on the shared cloud
//	})
//
// Namespaces are also what let a vertical client (NewVerticalClient —
// column-level sensitivity on top of row-level) run remotely: its two
// differently keyed sub-clients share one transport but live in the
// Store and Store+"/columns" namespaces, so their ciphertexts never
// interleave in one store.
//
// Every query is rewritten by Algorithm 2 into one sensitive bin (sent
// encrypted) and one non-sensitive bin (sent in clear-text), so the cloud's
// view never pins the queried value down to fewer than a bin's worth of
// candidates, and fake-tuple padding keeps every sensitive retrieval the
// same size.
package repro
