package wire

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/technique"
)

// TestEncFetchBatchOverWire: the batched read op returns one row set per
// address list — including empty lists — in a single round trip, and
// rejects out-of-range addresses as a per-op logical error.
func TestEncFetchBatchOverWire(t *testing.T) {
	c := startCloud(t).WithStore(DefaultStore)
	for i := 0; i < 5; i++ {
		c.Add([]byte{byte(10 + i)}, []byte{byte(20 + i)}, nil)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	batches, err := c.FetchBatch([][]int{{0, 2}, {}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("got %d row sets, want 3", len(batches))
	}
	want := []struct {
		set, idx, addr int
		tupleCT        byte
	}{
		{0, 0, 0, 10}, {0, 1, 2, 12}, {2, 0, 4, 14}, {2, 1, 0, 10},
	}
	for _, f := range want {
		r := batches[f.set][f.idx]
		if r.Addr != f.addr || r.TupleCT[0] != f.tupleCT {
			t.Errorf("batches[%d][%d] = addr %d ct %v, want addr %d ct [%d]",
				f.set, f.idx, r.Addr, r.TupleCT, f.addr, f.tupleCT)
		}
	}
	if len(batches[1]) != 0 {
		t.Errorf("empty address list returned %d rows", len(batches[1]))
	}

	if _, err := c.FetchBatch([][]int{{0}, {99}}); err == nil {
		t.Fatal("out-of-range batched fetch accepted")
	}
	if c.Err() != nil {
		t.Fatalf("logical fetch error poisoned the connection: %v", c.Err())
	}
}

// TestSearchBatchOverWire is the remote-backend equivalence property at
// the technique level: NoInd running over a wire client must
// return the same payloads and access patterns from SearchBatch as from a
// sequential Search loop, with the whole batch's bin fetches served by the
// one batched round trip.
func TestSearchBatchOverWire(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		backend := startCloud(t).WithStore(DefaultStore)
		tech, err := technique.NewNoIndOn(crypto.DeriveKeys([]byte("wire batch")), backend)
		if err != nil {
			t.Fatal(err)
		}
		var rows []technique.Row
		for v := 0; v < 8; v++ {
			for i := 0; i <= v; i++ {
				rows = append(rows, technique.Row{
					Payload: []byte(fmt.Sprintf("v=%d#%d", v, i)),
					Attr:    relation.Int(int64(v)),
				})
			}
		}
		if _, err := tech.Outsource(rows); err != nil {
			t.Fatal(err)
		}
		if err := backend.Flush(); err != nil {
			t.Fatal(err)
		}

		queries := [][]relation.Value{
			{relation.Int(3), relation.Int(5)},
			{relation.Int(0)},
			{relation.Int(99)},
			{relation.Int(5)},
		}
		seq := make([][][]byte, len(queries))
		seqStats := make([]*technique.Stats, len(queries))
		for i, q := range queries {
			seq[i], seqStats[i], err = tech.Search(q)
			if err != nil {
				t.Fatal(err)
			}
		}
		batch, agg, err := tech.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if !reflect.DeepEqual(batch[i], seq[i]) {
				t.Errorf("query %d: batch payloads %q != sequential %q", i, batch[i], seq[i])
			}
			if !reflect.DeepEqual(agg.PerQuery[i].ReturnedAddrs, seqStats[i].ReturnedAddrs) {
				t.Errorf("query %d: batch addrs %v != sequential %v",
					i, agg.PerQuery[i].ReturnedAddrs, seqStats[i].ReturnedAddrs)
			}
		}
		if err := backend.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
