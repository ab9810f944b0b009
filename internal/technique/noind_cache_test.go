package technique

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// TestNoIndCacheBudgetKeepsAnswers: a cached NoInd answers every Search
// and SearchBatch exactly like an uncached one over the same store, before
// and after more rows are appended, whatever the cache's byte budget — from
// one that holds everything to one that evicts every segment after each
// store — and the cache never holds more than its budget.
func TestNoIndCacheBudgetKeepsAnswers(t *testing.T) {
	queries := [][]relation.Value{
		{relation.Int(3), relation.Int(5)},
		{relation.Int(0)},
		{relation.Int(99)},
		{relation.Int(5)},
		{relation.Int(7), relation.Int(1)},
	}
	for _, budget := range []int{DefaultCacheBytes, 2 << 10, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			store := storage.NewEncryptedStore()
			ref, err := NewNoIndOn(testKeys(), store)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := NewNoIndOn(testKeys(), store)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewCache(budget)
			cached.SetCache(cache)

			next := 0
			write := func(n int) {
				t.Helper()
				var rows []Row
				for i := 0; i < n; i++ {
					v := next % 8
					rows = append(rows, Row{Payload: []byte(fmt.Sprintf("v=%d#%d", v, next)), Attr: relation.Int(int64(v))})
					next++
				}
				if _, err := ref.Outsource(rows); err != nil {
					t.Fatal(err)
				}
			}
			check := func(round int) {
				t.Helper()
				for i, q := range queries {
					want, _, err := ref.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := cached.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("round %d query %d: cached %q != uncached %q", round, i, got, want)
					}
				}
				want, _, err := ref.SearchBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := cached.SearchBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("round %d: cached batch %q != uncached %q", round, got, want)
				}
				if st := cache.Stats(); st.Bytes > st.MaxBytes {
					t.Errorf("round %d: cache holds %d bytes over its %d budget", round, st.Bytes, st.MaxBytes)
				}
			}

			write(40)
			check(0)
			check(1) // served from the cache where the budget allows
			write(9) // the next pulls are tail deltas
			check(2)
			if st := cache.Stats(); budget == DefaultCacheBytes && st.Hits == 0 {
				t.Errorf("unbounded cache never hit: %+v", st)
			}
		})
	}
}
