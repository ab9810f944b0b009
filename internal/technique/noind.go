package technique

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
)

// NoInd is the search procedure the paper implemented on the two commercial
// non-deterministically encrypted databases ("systems A and B", §V-B):
// since the cloud cannot search non-deterministic ciphertexts, the owner
// (round 1) retrieves the encrypted searching-attribute column, decrypts it
// locally, finds the addresses matching the |SB| predicates, and (round 2)
// fetches the full tuples at those addresses.
//
// NoInd keeps no mutable owner-side state of its own: concurrent searches
// are safe because the cipher is stateless, the store synchronises
// internally, and the optional Cache synchronises internally too.
type NoInd struct {
	keys  *crypto.KeySet
	prob  *crypto.Probabilistic
	store EncStore

	// cache/vstore are set together by SetCache when the store supports
	// version counters: searches then revalidate the cached decrypted
	// column instead of re-pulling it, and reuse cached payload
	// decryptions. Both stay nil for the classic stateless behaviour.
	cache  *Cache
	vstore VersionedEncStore
}

// NewNoInd builds the technique over the derived key set.
func NewNoInd(keys *crypto.KeySet) (*NoInd, error) {
	return NewNoIndOn(keys, storage.NewEncryptedStore())
}

// NewNoIndOn builds the technique over an explicit store (e.g. a remote
// cloud's).
func NewNoIndOn(keys *crypto.KeySet, store EncStore) (*NoInd, error) {
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return nil, fmt.Errorf("technique: noind: %w", err)
	}
	return &NoInd{keys: keys, prob: prob, store: store}, nil
}

// Name implements Technique.
func (n *NoInd) Name() string { return "NoInd" }

// Indexable implements Technique.
func (n *NoInd) Indexable() bool { return false }

// StoredRows implements Technique.
func (n *NoInd) StoredRows() int { return n.store.Len() }

// Store exposes the cloud-side encrypted store for the adversary model.
func (n *NoInd) Store() EncStore { return n.store }

// SetCache attaches (or, with nil, detaches) an owner-side version cache.
// It takes effect only when the underlying store supports version counters
// (VersionedEncStore — the in-process store and every wire backend do) and
// must be called before the technique is shared across goroutines.
func (n *NoInd) SetCache(c *Cache) {
	if vs, ok := n.store.(VersionedEncStore); ok && c != nil {
		n.cache, n.vstore = c, vs
		return
	}
	n.cache, n.vstore = nil, nil
}

// cachedColumn returns the decrypted attribute column via the cache: the
// cached prefix is revalidated by one conditional round trip, only the
// appended tail (or, on a miss, the whole column) is transferred and
// decrypted, and the extended column is published back. The returned
// slices are shared read-only; epoch identifies the store instance the
// column (and any payload reuse) is consistent with.
func (n *NoInd) cachedColumn(st *Stats) (vals []relation.Value, addrs []int, epoch uint64, err error) {
	ver, vals, addrs, ctBytes := n.cache.colSnapshot()
	rows, cur, delta, err := n.vstore.AttrColumnSince(ver, len(vals))
	if err != nil {
		return nil, nil, 0, err
	}
	if delta {
		st.CacheHits++
		st.CacheBytesSaved += ctBytes
		n.cache.recordHit(ctBytes)
	} else {
		vals, addrs, ctBytes = nil, nil, 0
		st.CacheMisses++
		n.cache.recordMiss()
	}
	st.TuplesScanned += len(rows)
	st.TuplesTransferred += len(rows)
	if len(rows) == 0 {
		return vals, addrs, cur.Epoch, nil
	}
	nv := make([]relation.Value, len(vals), len(vals)+len(rows))
	copy(nv, vals)
	na := make([]int, len(addrs), len(addrs)+len(rows))
	copy(na, addrs)
	var scratch []byte
	for _, row := range rows {
		st.BytesTransferred += len(row.AttrCT)
		ctBytes += len(row.AttrCT)
		pt, err := n.prob.DecryptAppend(scratch[:0], row.AttrCT)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("technique: noind attr decrypt addr %d: %w", row.Addr, err)
		}
		scratch = pt
		st.EncOps++
		v, _, err := relation.DecodeValue(pt)
		if err != nil {
			return nil, nil, 0, err
		}
		nv = append(nv, v)
		na = append(na, row.Addr)
	}
	n.cache.colStore(cur, nv, na, ctBytes)
	return nv, na, cur.Epoch, nil
}

// fetchPayloads serves round 2 through the payload cache: only addresses
// without a cached decryption are fetched (no round trip at all when every
// address is cached), fresh decryptions are cached for the next query, and
// the results come back in addrs order — exactly what the uncached Fetch
// path returns.
func (n *NoInd) fetchPayloads(st *Stats, epoch uint64, addrs []int) ([][]byte, error) {
	found, ctSaved := n.cache.payloadGet(epoch, addrs)
	if ctSaved > 0 {
		st.CacheBytesSaved += ctSaved
		n.cache.recordSaved(ctSaved)
	}
	missing := addrs
	if len(found) > 0 {
		missing = make([]int, 0, len(addrs)-len(found))
		for _, a := range addrs {
			if _, ok := found[a]; !ok {
				missing = append(missing, a)
			}
		}
	}
	var rows []storage.EncRow
	if len(missing) > 0 {
		var err error
		rows, err = n.store.Fetch(missing)
		if err != nil {
			return nil, err
		}
	}
	payloads := make([][]byte, 0, len(addrs))
	next := 0
	for _, a := range addrs {
		if pt, ok := found[a]; ok {
			payloads = append(payloads, pt)
			continue
		}
		if next >= len(rows) {
			return nil, fmt.Errorf("technique: noind fetch returned %d rows for %d addresses", len(rows), len(missing))
		}
		r := rows[next]
		next++
		pt, err := n.prob.Decrypt(r.TupleCT)
		if err != nil {
			return nil, fmt.Errorf("technique: noind tuple decrypt addr %d: %w", r.Addr, err)
		}
		st.EncOps++
		st.TuplesTransferred++
		st.BytesTransferred += len(r.TupleCT)
		n.cache.payloadPut(epoch, r.Addr, pt, len(r.TupleCT))
		payloads = append(payloads, pt)
	}
	return payloads, nil
}

// searchCached is Search with the version cache engaged: round 1 shrinks
// to a conditional column pull (a constant-size not-modified answer in the
// steady state), the matching rows come from the cache's posting map
// (|SB| lookups instead of a pass over the column), and round 2 only
// fetches addresses whose decryptions are not already cached. Results and
// ReturnedAddrs — order included — are identical to the uncached path;
// the cloud-observed accesses are a subset of it.
func (n *NoInd) searchCached(values []relation.Value) ([][]byte, *Stats, error) {
	st := &Stats{Rounds: 2}
	vals, colAddrs, epoch, err := n.cachedColumn(st)
	if err != nil {
		return nil, nil, err
	}
	var addrs []int
	if idx, ok := n.cache.colMatch(epoch, len(vals), values); ok {
		if len(idx) > 0 {
			addrs = make([]int, len(idx))
			for j, i := range idx {
				addrs[j] = colAddrs[i]
			}
		}
	} else {
		// The cache cannot match for this snapshot (its column was
		// evicted or replaced, or the postings did not fit the budget):
		// scan the snapshot held here.
		want := make(map[relation.Value]bool, len(values))
		for _, v := range values {
			want[v] = true
		}
		for i, v := range vals {
			if want[v] {
				addrs = append(addrs, colAddrs[i])
			}
		}
	}
	payloads, err := n.fetchPayloads(st, epoch, addrs)
	if err != nil {
		return nil, nil, err
	}
	st.ReturnedAddrs = addrs
	return payloads, st, nil
}

// Outsource implements Technique: both the attribute cell and the full
// tuple are probabilistically encrypted, so equal values are
// indistinguishable at rest.
func (n *NoInd) Outsource(rows []Row) (*Stats, error) {
	st := &Stats{Rounds: 1}
	for _, r := range rows {
		attrCT, err := n.prob.Encrypt(r.Attr.Encode())
		if err != nil {
			return nil, err
		}
		tupleCT, err := n.prob.Encrypt(r.Payload)
		if err != nil {
			return nil, err
		}
		n.store.Add(tupleCT, attrCT, nil)
		st.EncOps += 2
		st.TuplesTransferred++
		st.BytesTransferred += len(attrCT) + len(tupleCT)
	}
	return st, nil
}

// Search implements Technique.
func (n *NoInd) Search(values []relation.Value) ([][]byte, *Stats, error) {
	if n.cache != nil {
		return n.searchCached(values)
	}
	st := &Stats{Rounds: 2}
	// Values are comparable, so the predicate set is keyed by the value
	// itself — no per-row Key() string materialisation in the scan below.
	want := make(map[relation.Value]bool, len(values))
	for _, v := range values {
		want[v] = true
	}

	// Round 1: pull the encrypted attribute column and match locally. The
	// decrypted cell only lives for one iteration, so one scratch buffer
	// serves the whole scan.
	col := n.store.AttrColumn()
	st.TuplesScanned += len(col)
	st.TuplesTransferred += len(col)
	var addrs []int
	var scratch []byte
	for _, row := range col {
		st.BytesTransferred += len(row.AttrCT)
		pt, err := n.prob.DecryptAppend(scratch[:0], row.AttrCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: noind attr decrypt addr %d: %w", row.Addr, err)
		}
		scratch = pt
		st.EncOps++
		v, _, err := relation.DecodeValue(pt)
		if err != nil {
			return nil, nil, err
		}
		if want[v] {
			addrs = append(addrs, row.Addr)
		}
	}

	// Round 2: fetch the matching tuples by address.
	rows, err := n.store.Fetch(addrs)
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, 0, len(rows))
	for _, r := range rows {
		pt, err := n.prob.Decrypt(r.TupleCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: noind tuple decrypt addr %d: %w", r.Addr, err)
		}
		st.EncOps++
		st.TuplesTransferred++
		st.BytesTransferred += len(r.TupleCT)
		payloads = append(payloads, pt)
	}
	st.ReturnedAddrs = addrs
	return payloads, st, nil
}

// planBatch is the bin-sharing plan both SearchBatch paths follow, and it
// gives every query its PerQuery stats. Queries carrying the same
// predicate slice are the same bin retrieval (Bins.Retrieve hands out one
// shared value slice per bin): each distinct slice is matched and fetched
// once and its rows shared. rep[i] is the lowest query index with the same
// backing slice as query i. wantedBy inverts the representatives'
// predicates — value -> the representative queries wanting it — so a
// column pass costs one lookup per row, not one per (row, query); Values
// are comparable, so no Key() string is ever materialised.
func planBatch(queries [][]relation.Value, agg *Stats) (rep []int, wantedBy map[relation.Value][]int) {
	rep = make([]int, len(queries))
	firstFor := make(map[*relation.Value]int, len(queries))
	for i, q := range queries {
		rep[i] = i
		if len(q) == 0 {
			continue
		}
		if j, ok := firstFor[&q[0]]; ok {
			rep[i] = j
		} else {
			firstFor[&q[0]] = i
		}
	}
	wantedBy = make(map[relation.Value][]int)
	for i, q := range queries {
		agg.PerQuery[i] = &Stats{Rounds: 2}
		if rep[i] != i {
			continue
		}
		for _, v := range q {
			if qs := wantedBy[v]; len(qs) == 0 || qs[len(qs)-1] != i {
				wantedBy[v] = append(qs, i)
			}
		}
	}
	return rep, wantedBy
}

// SearchBatch implements Technique with real cross-query sharing: the
// encrypted attribute column is pulled and decrypted once for the whole
// batch (the redundant per-query pull is exactly what batching amortises),
// each query's matching addresses are found in that single pass, and the
// matched tuples come back in one batched fetch round trip when the store
// supports it. A tuple matched by several queries is decrypted once.
// Shared work — the column scan and each distinct tuple decryption — is
// counted once in the batch-level Stats; PerQuery[i] carries query i's
// access pattern and result transfers.
func (n *NoInd) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	if n.cache != nil {
		return n.searchBatchCached(queries)
	}
	nq := len(queries)
	agg := &Stats{Rounds: 2, PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	if nq == 0 {
		return out, agg, nil
	}
	rep, wantedBy := planBatch(queries, agg)

	// Round 1, shared: one column pull and one decryption pass serve
	// every query in the batch. The decrypted cell only lives for one
	// iteration, so one scratch buffer serves the whole scan.
	col := n.store.AttrColumn()
	agg.TuplesScanned = len(col)
	agg.TuplesTransferred = len(col)
	addrs := make([][]int, nq)
	var scratch []byte
	for _, row := range col {
		agg.BytesTransferred += len(row.AttrCT)
		pt, err := n.prob.DecryptAppend(scratch[:0], row.AttrCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: noind attr decrypt addr %d: %w", row.Addr, err)
		}
		scratch = pt
		agg.EncOps++
		v, _, err := relation.DecodeValue(pt)
		if err != nil {
			return nil, nil, err
		}
		for _, qi := range wantedBy[v] {
			addrs[qi] = append(addrs[qi], row.Addr)
		}
	}

	// Round 2, batched: one round trip fetches every representative
	// query's matches (duplicate bin retrievals ride along as empty
	// address lists and share the representative's decrypted payloads and
	// transfer accounting).
	rowBatches, err := fetchBatch(n.store, addrs)
	if err != nil {
		return nil, nil, err
	}
	opened := make(map[int][]byte)
	for qi, rows := range rowBatches {
		per := agg.PerQuery[qi]
		if r := rep[qi]; r != qi {
			repPer := agg.PerQuery[r]
			per.TuplesTransferred = repPer.TuplesTransferred
			per.BytesTransferred = repPer.BytesTransferred
			per.ReturnedAddrs = repPer.ReturnedAddrs
			out[qi] = out[r]
			agg.TuplesTransferred += per.TuplesTransferred
			agg.BytesTransferred += per.BytesTransferred
			continue
		}
		payloads := make([][]byte, 0, len(rows))
		for _, r := range rows {
			pt, ok := opened[r.Addr]
			if !ok {
				pt, err = n.prob.Decrypt(r.TupleCT)
				if err != nil {
					return nil, nil, fmt.Errorf("technique: noind tuple decrypt addr %d: %w", r.Addr, err)
				}
				agg.EncOps++ // shared: repeated across queries, opened once
				opened[r.Addr] = pt
			}
			per.TuplesTransferred++
			per.BytesTransferred += len(r.TupleCT)
			payloads = append(payloads, pt)
		}
		per.ReturnedAddrs = addrs[qi]
		out[qi] = payloads
		agg.TuplesTransferred += per.TuplesTransferred
		agg.BytesTransferred += per.BytesTransferred
	}
	return out, agg, nil
}

// searchBatchCached is SearchBatch with the version cache engaged: the
// shared column pull becomes one conditional round trip, and round 2
// fetches only the batch-wide union of addresses whose decryptions are not
// already cached — at most one fetch round trip per batch, none in the
// steady state. Results and per-query access patterns are identical to the
// uncached batch; the cloud-observed accesses are a subset of it.
func (n *NoInd) searchBatchCached(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	nq := len(queries)
	agg := &Stats{Rounds: 2, PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	if nq == 0 {
		return out, agg, nil
	}
	rep, wantedBy := planBatch(queries, agg)

	// Round 1, shared and cached: one conditional pull revalidates the
	// decrypted column for the whole batch.
	vals, colAddrs, epoch, err := n.cachedColumn(agg)
	if err != nil {
		return nil, nil, err
	}
	addrs := make([][]int, nq)
	for i, v := range vals {
		for _, qi := range wantedBy[v] {
			addrs[qi] = append(addrs[qi], colAddrs[i])
		}
	}

	// Round 2: fetch the batch-wide union of uncached addresses in one
	// round trip (an address matched by several queries is fetched and
	// decrypted once, like the uncached path's opened map).
	var need []int
	seen := make(map[int]bool)
	for qi := range queries {
		if rep[qi] != qi {
			continue
		}
		for _, a := range addrs[qi] {
			if !seen[a] {
				seen[a] = true
				need = append(need, a)
			}
		}
	}
	found, ctSaved := n.cache.payloadGet(epoch, need)
	if ctSaved > 0 {
		agg.CacheBytesSaved += ctSaved
		n.cache.recordSaved(ctSaved)
	}
	missing := need
	if len(found) > 0 {
		missing = make([]int, 0, len(need)-len(found))
		for _, a := range need {
			if _, ok := found[a]; !ok {
				missing = append(missing, a)
			}
		}
	}
	var rows []storage.EncRow
	if len(missing) > 0 {
		rows, err = n.store.Fetch(missing)
		if err != nil {
			return nil, nil, err
		}
	}
	opened := make(map[int][]byte, len(need))
	ctLen := make(map[int]int, len(rows))
	for a, pt := range found {
		opened[a] = pt
	}
	for _, r := range rows {
		pt, err := n.prob.Decrypt(r.TupleCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: noind tuple decrypt addr %d: %w", r.Addr, err)
		}
		agg.EncOps++ // shared: repeated across queries, opened once
		opened[r.Addr] = pt
		ctLen[r.Addr] = len(r.TupleCT)
		n.cache.payloadPut(epoch, r.Addr, pt, len(r.TupleCT))
	}

	for qi := range queries {
		per := agg.PerQuery[qi]
		if r := rep[qi]; r != qi {
			repPer := agg.PerQuery[r]
			per.TuplesTransferred = repPer.TuplesTransferred
			per.BytesTransferred = repPer.BytesTransferred
			per.ReturnedAddrs = repPer.ReturnedAddrs
			out[qi] = out[r]
			agg.TuplesTransferred += per.TuplesTransferred
			agg.BytesTransferred += per.BytesTransferred
			continue
		}
		payloads := make([][]byte, 0, len(addrs[qi]))
		for _, a := range addrs[qi] {
			pt, ok := opened[a]
			if !ok {
				return nil, nil, fmt.Errorf("technique: noind batch missing fetched addr %d", a)
			}
			if cl := ctLen[a]; cl > 0 {
				per.TuplesTransferred++
				per.BytesTransferred += cl
			}
			payloads = append(payloads, pt)
		}
		per.ReturnedAddrs = addrs[qi]
		out[qi] = payloads
		agg.TuplesTransferred += per.TuplesTransferred
		agg.BytesTransferred += per.BytesTransferred
	}
	return out, agg, nil
}
