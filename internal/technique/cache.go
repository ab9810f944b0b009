package technique

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/storage"
)

// DefaultCacheBytes is the byte budget a Cache gets when the caller does
// not pick one. It bounds the accounted size of every segment together
// (column ciphertext bytes, payload plaintexts, token memos, Shamir
// digests), so one owner process holds at most this much cached state per
// store regardless of how large the outsourced relation grows.
const DefaultCacheBytes = 64 << 20

// Cache is the owner-side cross-query cache that kills the per-query
// column pull. It holds, per technique family:
//
//   - the decrypted searchable-attribute column (NoInd), revalidated each
//     query by the store's version counter (VersionedEncStore) — a tiny
//     not-modified round trip replaces the full column transfer — and,
//     beside it, a value -> column-index posting map, so a point search
//     costs its bin's matches instead of a pass over the whole column;
//   - decrypted tuple payloads by cloud address, valid for one store epoch
//     (addresses are stable within an epoch: the store is append-only and
//     Compact preserves addressing);
//   - DetIndex token→address memos, valid at one exact version;
//   - ShamirScan reconstructed digests (in-process append-only columns).
//
// Safety: every segment is revalidated against the store before use — the
// cache never turns a stale answer into a fresh-looking one. A version
// epoch changes whenever a store is rebuilt (restore from snapshot, drop
// and re-create), so state that silently lost writes can never match a
// held version. Within an epoch, "not modified" answers are produced
// under the store's publish-then-bump ordering, so a confirmed version is
// never fresher than the data it vouches for.
//
// A Cache is safe for concurrent use: readers snapshot a segment under the
// mutex, do their round trips and decryption unlocked, and store the
// extended segment back last-writer-wins. Cached slices and payloads are
// shared read-only; callers must not mutate what they get back (the
// technique API already hands decrypted payloads out as owner-owned
// read-only data — SearchBatch shares one decryption across queries the
// same way).
type Cache struct {
	mu       sync.Mutex
	maxBytes int

	// Column segment: decrypted attribute values aligned with their cloud
	// addresses, consistent with ver. ctBytes is the summed ciphertext size
	// of the cached cells — the wire bytes a revalidation avoids.
	colVer   storage.EncVersion
	colVals  []relation.Value
	colAddrs []int
	colCT    int

	// Posting segment: decrypted value -> ascending indices into colVals,
	// covering colVals[:postN]. It is derived from the column segment,
	// valid for colVer's epoch (the column is append-only within an
	// epoch), built on the first lookup and extended from the column's
	// tail on later ones. postBytes counts the index slices' capacity plus
	// a per-key overhead. postSkip records that the postings did not fit
	// the budget beside the column: lookups then fall back to a scan until
	// the column is replaced or evicted.
	post      map[relation.Value][]int32
	postN     int
	postBytes int
	postSkip  bool

	// Payload segment: cloud address -> decrypted tuple payload, valid for
	// payEpoch only. FIFO-evicted under the byte budget.
	payEpoch uint64
	pay      map[int]payEntry
	payOrder []int
	payBytes int

	// Memo segment (DetIndex): deterministic token -> matching addresses,
	// valid at exactly memoVer (any write may change a token's posting
	// list, so memos cannot survive a version bump).
	memoVer   storage.EncVersion
	memo      map[string][]int
	memoBytes int

	// Shamir segment: reconstructed attribute digests for the first
	// len(shamir) rows of an append-only share column set.
	shamir []uint64

	hits       atomic.Uint64
	misses     atomic.Uint64
	bytesSaved atomic.Uint64
}

type payEntry struct {
	pt []byte
	// ctLen is the ciphertext size the cached decryption avoids
	// re-transferring.
	ctLen int
}

// NewCache builds a cache with the given byte budget; maxBytes <= 0 means
// DefaultCacheBytes.
func NewCache(maxBytes int) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{maxBytes: maxBytes, pay: make(map[int]payEntry), memo: make(map[string][]int)}
}

// CacheStats is a point-in-time snapshot of a Cache's cumulative effect.
type CacheStats struct {
	// Hits / Misses count query-level revalidations: a hit confirmed (or
	// delta-extended) cached state, a miss re-pulled from scratch.
	Hits, Misses uint64
	// BytesSaved estimates the wire bytes hits avoided transferring.
	BytesSaved uint64
	// Bytes is the currently accounted size of all segments.
	Bytes int
	// MaxBytes is the configured budget.
	MaxBytes int
}

// Stats snapshots the cache's counters and current footprint.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	bytes := c.bytesLocked()
	max := c.maxBytes
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		BytesSaved: c.bytesSaved.Load(),
		Bytes:      bytes,
		MaxBytes:   max,
	}
}

// recordHit and recordMiss fold one query's outcome into the cumulative
// counters (the per-query Stats carry the same numbers for reports).
func (c *Cache) recordHit(bytesSaved int) {
	c.hits.Add(1)
	if bytesSaved > 0 {
		c.bytesSaved.Add(uint64(bytesSaved))
	}
}

func (c *Cache) recordMiss() { c.misses.Add(1) }

// recordSaved adds avoided wire bytes without counting a hit — used for
// payload reuse, which rides along with whichever column/memo outcome the
// query already recorded.
func (c *Cache) recordSaved(n int) {
	if n > 0 {
		c.bytesSaved.Add(uint64(n))
	}
}

func (c *Cache) bytesLocked() int {
	return c.colCT + c.postBytes + c.payBytes + c.memoBytes + 8*len(c.shamir)
}

// rebalanceLocked enforces the byte budget: payload entries go first
// (FIFO — they are per-address and individually droppable), then the memo
// map, then the postings (recomputable from the column, so they go before
// it), then the column. The Shamir segment is bounded at store time.
func (c *Cache) rebalanceLocked() {
	for c.bytesLocked() > c.maxBytes && len(c.payOrder) > 0 {
		addr := c.payOrder[0]
		c.payOrder = c.payOrder[1:]
		if e, ok := c.pay[addr]; ok {
			c.payBytes -= len(e.pt) + payEntryOverhead
			delete(c.pay, addr)
		}
	}
	if c.bytesLocked() > c.maxBytes && c.memoBytes > 0 {
		c.memo = make(map[string][]int)
		c.memoBytes = 0
	}
	if c.bytesLocked() > c.maxBytes && c.post != nil {
		c.dropPostLocked()
		c.postSkip = true
	}
	if c.bytesLocked() > c.maxBytes && c.colCT > 0 {
		c.colVer, c.colVals, c.colAddrs, c.colCT = storage.EncVersion{}, nil, nil, 0
		c.dropPostLocked()
	}
}

// dropPostLocked empties the posting segment and clears postSkip, so the
// next lookup rebuilds it from whatever column is cached by then.
func (c *Cache) dropPostLocked() {
	c.post, c.postN, c.postBytes, c.postSkip = nil, 0, 0, false
}

// payEntryOverhead approximates the map/bookkeeping cost of one payload
// entry on top of the plaintext bytes.
const payEntryOverhead = 48

// --- column segment ------------------------------------------------------

// colSnapshot returns the cached decrypted column: the version it is
// consistent with, the values aligned with their addresses, and the summed
// ciphertext bytes the cache stands in for. The slices are shared
// read-only.
func (c *Cache) colSnapshot() (ver storage.EncVersion, vals []relation.Value, addrs []int, ctBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.colVer, c.colVals, c.colAddrs, c.colCT
}

// colStore publishes an extended (or replaced) column, last-writer-wins:
// a column for a different epoch always replaces, within an epoch the
// longer column wins (the store is append-only within an epoch, so longer
// means strictly more information).
func (c *Cache) colStore(ver storage.EncVersion, vals []relation.Value, addrs []int, ctBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ver.Epoch == c.colVer.Epoch && len(vals) < len(c.colVals) {
		return
	}
	if ver.Epoch != c.colVer.Epoch {
		c.dropPostLocked()
	}
	c.colVer, c.colVals, c.colAddrs, c.colCT = ver, vals, addrs, ctBytes
	c.rebalanceLocked()
}

// postKeyOverhead approximates the map cost of one posting key (the Value,
// the slice header and bucket bookkeeping) on top of its index slice; the
// key's string bytes are shared with the cached column.
const postKeyOverhead = 64

// colMatch returns, in ascending order and without repeats, the indices
// below n of the cached column of the given epoch whose value is one of
// values — the rows a scan of that column's first n cells would match.
// ok is false when the cache no longer holds that column (evicted, or
// replaced by another epoch's) or when its postings do not fit the
// budget; the caller then scans the snapshot it holds. Within an epoch
// the store is append-only, so any cached column of that epoch at least n
// long agrees with the caller's snapshot on its first n cells.
func (c *Cache) colMatch(epoch uint64, n int, values []relation.Value) (idx []int32, ok bool) {
	c.mu.Lock()
	if c.colVer.Epoch != epoch || len(c.colVals) < n || !c.postingsLocked() {
		c.mu.Unlock()
		return nil, false
	}
	total := 0
	for _, v := range values {
		total += len(c.post[v])
	}
	if total > 0 {
		idx = make([]int32, 0, total)
		for _, v := range values {
			idx = append(idx, c.post[v]...)
		}
	}
	c.mu.Unlock()

	// Distinct values have disjoint postings, so repeats come only from
	// repeated predicate values; sorting restores column order.
	slices.Sort(idx)
	idx = slices.Compact(idx)
	k, _ := slices.BinarySearch(idx, int32(n))
	return idx[:k], true
}

// postingsLocked brings the posting segment up to the cached column's
// length, building it on first use and indexing only the appended tail
// afterwards, and reports whether it is usable (it fit the budget).
func (c *Cache) postingsLocked() bool {
	if c.postSkip {
		return false
	}
	if c.postN == len(c.colVals) && c.post != nil {
		return true
	}
	if c.post == nil { // postN and postBytes are zero with it
		c.post = make(map[relation.Value][]int32)
	}
	for i := c.postN; i < len(c.colVals); i++ {
		v := c.colVals[i]
		p, seen := c.post[v]
		if !seen {
			c.postBytes += postKeyOverhead
		}
		c.postBytes -= 4 * cap(p)
		p = append(p, int32(i))
		c.postBytes += 4 * cap(p)
		c.post[v] = p
	}
	c.postN = len(c.colVals)
	c.rebalanceLocked()
	return c.post != nil
}

// --- payload segment -----------------------------------------------------

// payloadGet returns the cached decryptions among addrs that are valid for
// the given store epoch, plus the summed ciphertext bytes those hits avoid
// transferring. A mismatched epoch empties the segment: a reborn store may
// have reassigned addresses.
func (c *Cache) payloadGet(epoch uint64, addrs []int) (found map[int][]byte, ctSaved int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.payEpoch != epoch {
		c.pay = make(map[int]payEntry)
		c.payOrder = nil
		c.payBytes = 0
		c.payEpoch = epoch
		return nil, 0
	}
	for _, a := range addrs {
		if e, ok := c.pay[a]; ok {
			if found == nil {
				found = make(map[int][]byte)
			}
			found[a] = e.pt
			ctSaved += e.ctLen
		}
	}
	return found, ctSaved
}

// payloadPut caches one address's decrypted payload for the given epoch.
func (c *Cache) payloadPut(epoch uint64, addr int, pt []byte, ctLen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.payEpoch != epoch {
		c.pay = make(map[int]payEntry)
		c.payOrder = nil
		c.payBytes = 0
		c.payEpoch = epoch
	}
	if _, ok := c.pay[addr]; ok {
		return
	}
	c.pay[addr] = payEntry{pt: pt, ctLen: ctLen}
	c.payOrder = append(c.payOrder, addr)
	c.payBytes += len(pt) + payEntryOverhead
	c.rebalanceLocked()
}

// --- memo segment --------------------------------------------------------

// memoGet returns the memoised address list for a deterministic token,
// valid only if the cache's memo version is exactly cur. ok distinguishes
// a memoised empty posting list from a memo miss.
func (c *Cache) memoGet(cur storage.EncVersion, token string) (addrs []int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memoVer != cur {
		return nil, false
	}
	addrs, ok = c.memo[token]
	return addrs, ok
}

// memoPut memoises one token's posting list at version cur. A version
// change flushes the whole segment first: any write may have changed any
// posting list.
func (c *Cache) memoPut(cur storage.EncVersion, token string, addrs []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memoVer != cur {
		c.memo = make(map[string][]int)
		c.memoBytes = 0
		c.memoVer = cur
	}
	if _, ok := c.memo[token]; ok {
		return
	}
	c.memo[token] = addrs
	c.memoBytes += len(token) + 8*len(addrs) + payEntryOverhead
	c.rebalanceLocked()
}

// --- shamir segment ------------------------------------------------------

// shamirSnapshot returns the cached digest prefix (shared read-only).
func (c *Cache) shamirSnapshot() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shamir
}

// shamirStore publishes a longer digest prefix. The prefix is truncated to
// whatever fits in the remaining byte budget (digests are recomputable, so
// capping the cache merely costs future reconstructions).
func (c *Cache) shamirStore(d []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(d) <= len(c.shamir) {
		return
	}
	if room := (c.maxBytes - (c.bytesLocked() - 8*len(c.shamir))) / 8; len(d) > room {
		if room <= len(c.shamir) {
			return
		}
		d = d[:room]
	}
	c.shamir = d
}
