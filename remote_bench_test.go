package repro

import (
	"fmt"
	mrand "math/rand/v2"
	"net"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/technique"
	"repro/internal/wire"
	"repro/internal/workload"
)

// remoteBenchOwner builds an owner whose clear-text AND encrypted stores
// live behind the given wire backend; cached attaches the owner-side
// version cache (the library default against a remote cloud).
func remoteBenchOwner(b *testing.B, ds *workload.Dataset, backend wire.Backend, cached bool) *owner.Owner {
	b.Helper()
	tech, err := technique.NewNoIndOn(crypto.DeriveKeys([]byte("bench-remote")), backend)
	if err != nil {
		b.Fatal(err)
	}
	if cached {
		tech.SetCache(technique.NewCache(0))
	}
	o := owner.New(tech, workload.Attr)
	o.SetCloudBackend(backend)
	opts := core.Options{Rand: mrand.New(mrand.NewPCG(1, 2))}
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, opts); err != nil {
		b.Fatal(err)
	}
	if err := backend.Flush(); err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkRemoteQueryBatch is the remote-batching headline: a
// 256-selection batch against a cloud reached over the multiplexed wire
// protocol, sequential vs QueryBatch at 1, 4 and GOMAXPROCS workers, on
// both an in-memory net.Pipe transport and real TCP loopback. QueryBatch
// pays one opEncAttrColumn and one opEncFetchBatch round trip for the
// whole batch where the sequential loop pays one pair per query, so the
// batched sub-benchmarks win even on a single CPU; extra workers
// additionally parallelise the plaintext fetches against the server-side
// dispatch pool on multi-core. Every arm runs over one multiplexed
// connection. Before/after numbers live in docs/BENCHMARKS.md.
//
// The owner-side version cache runs in its library-default state (on):
// after the first pull, each sequential query revalidates the decrypted
// column with a constant-size conditional round trip instead of re-pulling
// it, which is where the sequential series' jump in the tracked
// BENCH_remote.json comes from. The sequential-nocache sub-benchmark keeps
// the pre-cache per-query-pull profile measurable on a separate cloud.
func BenchmarkRemoteQueryBatch(b *testing.B) {
	ds := benchDataset(b, 2_000, 0.3)
	queries := workload.QueryStream(ds, workload.QuerySpec{Queries: 64, Seed: 9})
	const batch = 256
	ws := slices.Repeat(queries, batch/len(queries))

	sweep := func(b *testing.B, mk func(b *testing.B) wire.Backend) {
		b.Helper()
		qps := func(b *testing.B) {
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		}
		sequential := func(b *testing.B, o *owner.Owner) {
			for i := 0; i < b.N; i++ {
				for _, w := range ws {
					if _, _, err := o.Query(w); err != nil {
						b.Fatal(err)
					}
				}
				o.Server().ResetViews()
			}
			qps(b)
		}

		backend := mk(b)
		o := remoteBenchOwner(b, ds, backend, true)
		b.Run("sequential", func(b *testing.B) { sequential(b, o) })
		workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
		slices.Sort(workerCounts)
		for _, workers := range slices.Compact(workerCounts) {
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := o.QueryBatch(ws, workers); err != nil {
						b.Fatal(err)
					}
					o.Server().ResetViews()
				}
				qps(b)
			})
		}
		if err := backend.Err(); err != nil {
			b.Fatal(err)
		}

		// Control arm on a fresh cloud: the uncached per-query column pull.
		ncBackend := mk(b)
		nc := remoteBenchOwner(b, ds, ncBackend, false)
		b.Run("sequential-nocache", func(b *testing.B) { sequential(b, nc) })
		if err := ncBackend.Err(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("pipe", func(b *testing.B) {
		sweep(b, func(b *testing.B) wire.Backend {
			cend, send := net.Pipe()
			go wire.NewCloud().ServeConn(send)
			c := wire.NewClient(cend)
			b.Cleanup(func() { c.Close() })
			return c.Store("")
		})
	})

	b.Run("tcp-loopback", func(b *testing.B) {
		sweep(b, func(b *testing.B) wire.Backend {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { lis.Close() })
			go func() { _ = wire.NewCloud().Serve(lis) }()
			c, err := wire.Dial(lis.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			return c.Store("")
		})
	})
}
