package technique

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// TestNoIndCacheBudgetKeepsAnswers: a cached NoInd answers every Search
// and SearchBatch exactly like an uncached one over the same store —
// Search's ReturnedAddrs in the same order too — before and after more
// rows are appended, whatever the cache's byte budget: from one that holds
// the column and its postings, through one that holds the column but drops
// the postings (2 KiB), to one that evicts every segment after each store,
// so the cached search scans its snapshot. Predicates include repeated and
// absent values. The cache never holds more than its budget.
func TestNoIndCacheBudgetKeepsAnswers(t *testing.T) {
	queries := [][]relation.Value{
		{relation.Int(3), relation.Int(5)},
		{relation.Int(5), relation.Int(3)},
		{relation.Int(0)},
		{relation.Int(99)},
		{relation.Int(5)},
		{relation.Int(7), relation.Int(1)},
		{relation.Int(6), relation.Int(6), relation.Int(2), relation.Int(6)},
		{relation.Int(4), relation.Int(99), relation.Int(0)},
		{},
	}
	for _, budget := range []int{DefaultCacheBytes, 2 << 10, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			ref, cached, cache := noindPair(t, storage.NewEncryptedStore(), budget)

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
				for _, q := range queries {
					sameSearch(t, fmt.Sprintf("round %d", round), ref, cached, q)
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
			write(1)
			check(3)
			if st := cache.Stats(); budget == DefaultCacheBytes && st.Hits == 0 {
				t.Errorf("unbounded cache never hit: %+v", st)
			}
		})
	}
}

// rebuiltStore lets a test swap the store behind a technique for a fresh
// one — a new epoch, as after a snapshot restore — without rebuilding the
// technique or its cache.
type rebuiltStore struct{ *storage.EncryptedStore }

// noindPair builds an uncached reference NoInd and a cached one over the
// same store; writes go through the reference.
func noindPair(t testing.TB, store EncStore, budget int) (ref, cached *NoInd, cache *Cache) {
	t.Helper()
	ref, err := NewNoIndOn(testKeys(), store)
	if err != nil {
		t.Fatal(err)
	}
	cached, err = NewNoIndOn(testKeys(), store)
	if err != nil {
		t.Fatal(err)
	}
	cache = NewCache(budget)
	cached.SetCache(cache)
	return ref, cached, cache
}

// sameSearch requires the cached technique to answer q exactly like the
// uncached one: the same payloads and the same ReturnedAddrs in the same
// order, which is the access pattern the cloud sees fetched.
func sameSearch(t *testing.T, label string, ref, cached *NoInd, q []relation.Value) {
	t.Helper()
	want, wantSt, err := ref.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := cached.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %v: cached payloads %q != uncached %q", label, q, got, want)
	}
	if !reflect.DeepEqual(gotSt.ReturnedAddrs, wantSt.ReturnedAddrs) {
		t.Errorf("%s %v: cached ReturnedAddrs %v != uncached %v", label, q, gotSt.ReturnedAddrs, wantSt.ReturnedAddrs)
	}
}

// TestNoIndCachedSearchAcrossEpochChange: when the store is rebuilt (a new
// epoch) with the same length but other values at each address, postings
// indexed for the old epoch must not answer: the cached search still
// matches the scan.
func TestNoIndCachedSearchAcrossEpochChange(t *testing.T) {
	fill := func(ni *NoInd, vals []int) {
		t.Helper()
		var rows []Row
		for i, v := range vals {
			rows = append(rows, Row{Payload: []byte(fmt.Sprintf("v=%d#%d", v, i)), Attr: relation.Int(int64(v))})
		}
		if _, err := ni.Outsource(rows); err != nil {
			t.Fatal(err)
		}
	}
	store := &rebuiltStore{storage.NewEncryptedStore()}
	ref, cached, _ := noindPair(t, store, DefaultCacheBytes)
	q := []relation.Value{relation.Int(1), relation.Int(2)}

	fill(ref, []int{1, 2, 3, 1, 2, 3, 1, 2, 3})
	sameSearch(t, "first epoch", ref, cached, q)
	store.EncryptedStore = storage.NewEncryptedStore()
	fill(ref, []int{3, 3, 1, 3, 3, 2, 3, 3, 3})
	sameSearch(t, "rebuilt", ref, cached, q)
	fill(ref, []int{2, 1})
	sameSearch(t, "rebuilt, appended", ref, cached, q)
}

// TestCachePostings covers the posting segment directly: its lookups
// follow column order and stop at the caller's snapshot length, its bytes
// count against the budget, and every way the cache can stop holding the
// caller's column answers ok=false, so the caller scans its snapshot.
func TestCachePostings(t *testing.T) {
	col := func(vals ...int64) ([]relation.Value, []int) {
		vs := make([]relation.Value, len(vals))
		as := make([]int, len(vals))
		for i, v := range vals {
			vs[i], as[i] = relation.Int(v), i
		}
		return vs, as
	}
	a := storage.EncVersion{Epoch: 7, N: 4}
	pred := []relation.Value{relation.Int(2), relation.Int(1), relation.Int(2), relation.Int(9)}

	c := NewCache(0)
	vals, addrs := col(1, 2, 3, 2)
	c.colStore(a, vals, addrs, 100)
	before := c.Stats().Bytes
	if idx, ok := c.colMatch(a.Epoch, 4, pred); !ok || !reflect.DeepEqual(idx, []int32{0, 1, 3}) {
		t.Fatalf("colMatch = %v, %v; want [0 1 3], true", idx, ok)
	}
	if grew := c.Stats().Bytes - before; grew < 4*len(vals) {
		t.Errorf("postings over %d rows added %d accounted bytes", len(vals), grew)
	}

	// A longer column of the same epoch extends the postings; a caller
	// holding the shorter snapshot still gets only its own rows.
	vals, addrs = col(1, 2, 3, 2, 2, 1)
	c.colStore(storage.EncVersion{Epoch: 7, N: 6}, vals, addrs, 150)
	if idx, ok := c.colMatch(a.Epoch, 4, pred); !ok || !reflect.DeepEqual(idx, []int32{0, 1, 3}) {
		t.Errorf("snapshot of 4 after extension: colMatch = %v, %v; want [0 1 3], true", idx, ok)
	}
	if idx, ok := c.colMatch(a.Epoch, 6, pred); !ok || !reflect.DeepEqual(idx, []int32{0, 1, 3, 4, 5}) {
		t.Errorf("snapshot of 6: colMatch = %v, %v; want [0 1 3 4 5], true", idx, ok)
	}
	if idx, ok := c.colMatch(a.Epoch, 6, []relation.Value{relation.Int(9)}); !ok || len(idx) != 0 {
		t.Errorf("absent value: colMatch = %v, %v; want [], true", idx, ok)
	}
	if _, ok := c.colMatch(a.Epoch, 7, pred); ok {
		t.Error("a snapshot longer than the cached column was answered from postings")
	}

	// Another epoch's column replaces this one: the old epoch's caller
	// falls back, and the new epoch's postings start from scratch.
	vals, addrs = col(3, 3, 3, 3, 3, 3)
	c.colStore(storage.EncVersion{Epoch: 8, N: 6}, vals, addrs, 150)
	if _, ok := c.colMatch(a.Epoch, 4, pred); ok {
		t.Error("a replaced epoch's caller was answered from postings")
	}
	if idx, ok := c.colMatch(8, 6, pred); !ok || len(idx) != 0 {
		t.Errorf("new epoch: colMatch = %v, %v; want [], true", idx, ok)
	}

	// A budget that holds the column but not the postings beside it
	// keeps the column and falls back to scanning it.
	small := NewCache(120)
	vals, addrs = col(1, 2, 3, 2)
	small.colStore(a, vals, addrs, 100)
	if _, ok := small.colMatch(a.Epoch, 4, pred); ok {
		t.Error("postings over budget were used")
	}
	if st := small.Stats(); st.Bytes != 100 {
		t.Errorf("over-budget postings left the cache at %d bytes, want the column's 100", st.Bytes)
	}
	if ver, v, _, _ := small.colSnapshot(); ver != a || len(v) != 4 {
		t.Errorf("over-budget postings evicted the column: %v, %d rows", ver, len(v))
	}

	// A budget that cannot hold the column evicts it: no postings either.
	tiny := NewCache(1)
	tiny.colStore(a, vals, addrs, 100)
	if _, ok := tiny.colMatch(a.Epoch, 4, pred); ok {
		t.Error("an evicted column was answered from postings")
	}
}

// TestNoIndCachedSearchUnderConcurrentWrites runs cached point searches on
// several goroutines while writes extend the column (and with it the
// posting map). Every search must return a consistent answer — ascending
// addresses, only matching rows — and a search issued after a write must
// see it. Run under -race it also checks the posting segment's locking.
func TestNoIndCachedSearchUnderConcurrentWrites(t *testing.T) {
	store := storage.NewEncryptedStore()
	ref, cached, _ := noindPair(t, store, 0)
	pred := []relation.Value{relation.Int(1), relation.Int(2)}
	const writes = 300

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, st, err := cached.Search(pred)
				if err != nil {
					t.Error(err)
					return
				}
				if !sort.IntsAreSorted(st.ReturnedAddrs) || len(got) != len(st.ReturnedAddrs) {
					t.Errorf("inconsistent answer: %d payloads at %v", len(got), st.ReturnedAddrs)
					return
				}
				for _, p := range got {
					if !bytes.HasPrefix(p, []byte("v=1#")) && !bytes.HasPrefix(p, []byte("v=2#")) {
						t.Errorf("non-matching payload %q", p)
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	matches := 0
	for i := 0; i < writes; i++ {
		v := i % 3
		if v != 0 {
			matches++
		}
		if _, err := ref.Outsource([]Row{{Payload: []byte(fmt.Sprintf("v=%d#%d", v, i)), Attr: relation.Int(int64(v))}}); err != nil {
			t.Fatal(err)
		}
		got, _, err := cached.Search(pred)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != matches {
			t.Fatalf("after write %d: search returned %d payloads, want %d", i, len(got), matches)
		}
	}
	sameSearch(t, "after the writes", ref, cached, pred)
}
