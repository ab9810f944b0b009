package main

import (
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/wire"
)

// techTotals are technique.Stats counters summed over calls.
type techTotals struct {
	encOps, hits, misses, bytesSaved int
}

// techCounts totals the technique.Stats the traced stack's searches and
// uploads returned.
type techCounts struct {
	mu sync.Mutex
	t  techTotals
}

func (c *techCounts) add(st *technique.Stats) {
	if st == nil {
		return
	}
	c.mu.Lock()
	c.t.encOps += st.EncOps
	c.t.hits += st.CacheHits
	c.t.misses += st.CacheMisses
	c.t.bytesSaved += st.CacheBytesSaved
	c.mu.Unlock()
}

func (c *techCounts) get() techTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// tracedTech times every call at the technique.Technique interface.
type tracedTech struct {
	technique.Technique
	rec    *recorder
	counts techCounts
}

func (t *tracedTech) Outsource(rows []technique.Row) (*technique.Stats, error) {
	defer t.rec.begin(levelTech, levelOwner, "technique.outsource")()
	st, err := t.Technique.Outsource(rows)
	t.counts.add(st)
	return st, err
}

func (t *tracedTech) Search(values []relation.Value) ([][]byte, *technique.Stats, error) {
	defer t.rec.begin(levelTech, levelOwner, "technique.search")()
	out, st, err := t.Technique.Search(values)
	t.counts.add(st)
	return out, st, err
}

func (t *tracedTech) SearchBatch(queries [][]relation.Value) ([][][]byte, *technique.Stats, error) {
	defer t.rec.begin(levelTech, levelOwner, "technique.search_batch")()
	out, st, err := t.Technique.SearchBatch(queries)
	t.counts.add(st)
	return out, st, err
}

func (t *tracedTech) StoredRows() int {
	defer t.rec.begin(levelTech, levelOwner, "technique.stored_rows")()
	return t.Technique.StoredRows()
}

// tracedBackend times every call at the wire.Backend interface that can
// reach the network. Clear-text calls are the owner's children,
// encrypted-store calls the technique's.
type tracedBackend struct {
	wire.Backend
	rec *recorder
}

var _ wire.Backend = (*tracedBackend)(nil)

func (b *tracedBackend) plain(name string) func() {
	return b.rec.begin(levelWire, levelOwner, name)
}

func (b *tracedBackend) enc(name string) func() {
	return b.rec.begin(levelWire, levelTech, name)
}

func (b *tracedBackend) Load(rns *relation.Relation, attr string) error {
	defer b.plain("wire.load")()
	return b.Backend.Load(rns, attr)
}

func (b *tracedBackend) Search(values []relation.Value) []relation.Tuple {
	defer b.plain("wire.plain_search")()
	return b.Backend.Search(values)
}

func (b *tracedBackend) SearchRange(lo, hi relation.Value) []relation.Tuple {
	defer b.plain("wire.plain_search_range")()
	return b.Backend.SearchRange(lo, hi)
}

func (b *tracedBackend) Insert(t relation.Tuple) error {
	defer b.plain("wire.plain_insert")()
	return b.Backend.Insert(t)
}

func (b *tracedBackend) Add(tupleCT, attrCT, token []byte) int {
	defer b.enc("wire.add")()
	return b.Backend.Add(tupleCT, attrCT, token)
}

func (b *tracedBackend) Len() int {
	defer b.enc("wire.len")()
	return b.Backend.Len()
}

func (b *tracedBackend) AttrColumn() []storage.EncRow {
	defer b.enc("wire.attr_column")()
	return b.Backend.AttrColumn()
}

func (b *tracedBackend) Fetch(addrs []int) ([]storage.EncRow, error) {
	defer b.enc("wire.fetch")()
	return b.Backend.Fetch(addrs)
}

func (b *tracedBackend) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	defer b.enc("wire.fetch_batch")()
	return b.Backend.FetchBatch(addrBatches)
}

func (b *tracedBackend) LookupToken(tok []byte) []int {
	defer b.enc("wire.lookup_token")()
	return b.Backend.LookupToken(tok)
}

func (b *tracedBackend) Rows() []storage.EncRow {
	defer b.enc("wire.rows")()
	return b.Backend.Rows()
}

func (b *tracedBackend) EncVersion() (storage.EncVersion, error) {
	defer b.enc("wire.enc_version")()
	return b.Backend.EncVersion()
}

func (b *tracedBackend) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	defer b.enc("wire.attr_column_since")()
	return b.Backend.AttrColumnSince(v, have)
}

func (b *tracedBackend) RowsSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	defer b.enc("wire.rows_since")()
	return b.Backend.RowsSince(v, have)
}

func (b *tracedBackend) Flush() error {
	defer b.enc("wire.flush")()
	return b.Backend.Flush()
}

func (b *tracedBackend) Ping() error {
	defer b.enc("wire.ping")()
	return b.Backend.Ping()
}

// countingConn counts the bytes a client connection moves both ways.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
