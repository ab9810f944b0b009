package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
)

// BenchmarkReconnectResync measures one full reconnect cycle — kill every
// connection, redial, handshake + liveness probe, re-Load the mirrored
// clear-text relation, opEncLen resync — plus the first op through the
// recovered transport, per iteration, across plain-partition sizes. It is
// the price a Config.Reconnect client pays per transport failure.
func BenchmarkReconnectResync(b *testing.B) {
	for _, tuples := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("plainTuples=%d", tuples), func(b *testing.B) {
			cl := NewCloud()
			srv := newChaosServer(b, cl)
			rs := reconnStoreFor(b, srv)
			if err := rs.Load(testRelation(tuples), "K"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				rs.Add([]byte{byte(i)}, nil, nil)
			}
			if err := rs.Flush(); err != nil {
				b.Fatal(err)
			}
			if _, err := rs.Fetch([]int{0}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.kill()
				srv.restart(b, cl)
				if _, err := rs.Fetch([]int{i % 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTwoTenantContention measures tenant B's query latency through a
// shared connection while tenant A saturates it with slow ops, with and
// without the per-store admission bound. A's slowness is a deterministic
// 1ms stall injected via the dispatch hook rather than a real CPU burn:
// on this single-CPU benchmark host a genuine burn would drown the
// admission effect in processor scarcity (which no admission policy can
// fix), while the stall isolates exactly what -store-workers governs —
// who holds the per-connection execution slots. Without the bound A's
// in-flight ops occupy every slot and B queues behind them; with it A's
// surplus waits on its own namespace semaphore, holding no slot, and B's
// latency drops to its own cost.
func BenchmarkTwoTenantContention(b *testing.B) {
	for _, storeWorkers := range []int{0, 1} {
		b.Run(fmt.Sprintf("storeWorkers=%d", storeWorkers), func(b *testing.B) {
			cl := NewCloud()
			cl.SetConnWorkers(4)
			cl.SetStoreWorkers(storeWorkers)
			cl.testHookDispatch = func(o op, store string) {
				if store == "tenant-a" && o == opEncLen {
					time.Sleep(time.Millisecond)
				}
			}
			srv := newChaosServer(b, cl)
			c, err := Dial(srv.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			a, tb := c.WithStore("tenant-a"), c.WithStore("tenant-b")
			rel := relation.New(relation.MustSchema("T",
				relation.Column{Name: "K", Kind: relation.KindInt},
			))
			for i := 0; i < 64; i++ {
				rel.MustInsert(relation.Int(int64(i % 8)))
			}
			if err := tb.Load(rel, "K"); err != nil {
				b.Fatal(err)
			}

			// Tenant A: 8 concurrent stalled ops in a tight loop.
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						a.Len()
					}
				}()
			}
			defer func() { stop.Store(true); wg.Wait() }()
			time.Sleep(20 * time.Millisecond) // let the flood saturate admission

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := tb.Search([]relation.Value{relation.Int(int64(i % 8))}); len(got) != 8 {
					b.Fatalf("Search = %d tuples, want 8", len(got))
				}
			}
		})
	}
}
