package technique

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// BenchmarkNoIndSearchCached measures the owner side of a warm cached
// NoInd point search: a 20,000-row column over 400 values, queried one
// 20-value bin per op, with the column, the posting map and every payload
// already cached. Each op is one not-modified revalidation against the
// in-process store, the match, and the payload gather — no decryption.
func BenchmarkNoIndSearchCached(b *testing.B) {
	const rows, values, binSize = 20000, 400, 20
	ni, err := NewNoInd(testKeys())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Row, rows)
	for i := range batch {
		v := (i * 7919) % values // spread each value across the column
		batch[i] = Row{Payload: []byte(fmt.Sprintf("row %05d of value %03d", i, v)), Attr: relation.Int(int64(v))}
	}
	if _, err := ni.Outsource(batch); err != nil {
		b.Fatal(err)
	}
	ni.SetCache(NewCache(0))
	bins := make([][]relation.Value, values/binSize)
	for v := 0; v < values; v++ {
		bins[v%len(bins)] = append(bins[v%len(bins)], relation.Int(int64(v)))
	}
	for _, q := range bins { // warm: column, postings, payloads
		if _, _, err := ni.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, _, err := ni.Search(bins[i%len(bins)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
