package wire

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
)

// Backend is the owner-side view of a remote cloud namespace:
// cloud.PlainBackend plus technique.BatchEncStore (the encrypted store
// including the batched read path) plus the lifecycle and error surface.
// Transports hand it out per namespace: *StoreClient over one connection,
// *ReconnStore over a reconnecting one (and ring.ReplicatedStore over a
// replicated ring), so callers pick the transport without changing
// anything else.
type Backend interface {
	cloud.PlainBackend
	technique.BatchEncStore
	technique.VersionedEncStore

	// Lifecycle and errors.
	Ping() error
	Flush() error
	Err() error
	LogicalErr() error
	LogicalErrCount() uint64
	Close() error

	// SetAdminToken attaches the namespace's control-plane owner token
	// (see OwnerToken): writes carry it so the first write claims the
	// namespace for the owner.
	SetAdminToken(tok []byte)
}

// Transport is a shared connection to one cloud from which per-namespace
// Backend views are derived. It is what a process serving several
// relations holds once and shares.
type Transport interface {
	// Store returns the Backend view of the named namespace ("" selects
	// DefaultStore). The same name always yields the same view.
	Store(name string) Backend
	// Ping checks liveness (performing the handshake if needed).
	Ping() error
	// Close tears down the transport and every view derived from it.
	Close() error
}

var (
	_ Backend   = (*StoreClient)(nil)
	_ Transport = (*Client)(nil)
)

// Client is the owner-side connection to a remote cloud. One connection
// serves any number of namespaces: WithStore returns a per-namespace view
// implementing cloud.PlainBackend for the clear-text partition and
// technique.BatchEncStore for the encrypted partition, so the standard
// owner and techniques work over the network unchanged.
//
// The connection is multiplexed: every request carries an ID, a writer
// goroutine frames requests in submission order, and a reader goroutine
// routes each response back to its caller, so any number of calls can be
// in flight at once without head-of-line blocking. The batch query engine
// therefore gains real cloud-side parallelism through a remote backend,
// and the server runs each connection's ops on a bounded worker pool.
//
// The first round trip performs the protocol handshake (opHello): a
// server that cannot echo ProtocolVersion poisons the client with an
// explicit version-mismatch error, so generation skew fails at the first
// call instead of corrupting frames.
//
// Error semantics: only transport failures are sticky. The first one
// poisons the client — every in-flight and subsequent call fails with the
// same cause, exposed by Err(). Server-side logical errors (e.g. a Search
// before any Load) are per-call: methods with an error return surface
// them directly, and interface methods without one (Search, Len, ...)
// return zero values and record the error for LogicalErr(). Callers doing
// anything important should check Err() and LogicalErr() after a batch of
// operations.
//
// Client is safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader // readLoop's buffered view of conn

	// Persistent gob codecs: wired directly to the transport during the
	// handshake (the v2 wire image), then fed one frame body at a time
	// once framed. The source implements io.ByteReader, so gob consumes
	// exactly one self-delimited message per Decode and its stream state
	// survives inside discrete frames.
	gobIn  *gobSource
	gobOut *gobSink
	enc    *gob.Encoder // owned by writeLoop
	dec    *gob.Decoder // owned by readLoop

	// framed flips after a successful v3 hello: set by readLoop before
	// the hello response is delivered (the hello is the only op in
	// flight until ensureHello returns, so no send can race the switch),
	// read by writeLoop before framing each request.
	framed atomic.Bool

	// readBuf is readLoop's frame scratch, grown to the largest frame
	// seen and reused; decoded frames are arena-copied out of it.
	readBuf []byte

	// sendq feeds the writer goroutine; dead is closed on the first
	// transport failure so blocked callers are released.
	sendq chan *request
	dead  chan struct{}

	mu       sync.Mutex
	err      error  // sticky transport error
	logical  error  // last per-op error from a void method
	logicalN uint64 // times logical was recorded (monotonic)
	nextID   uint64
	inflight map[uint64]chan *response

	// helloOnce runs the version handshake before the first real op;
	// helloErr is its sticky outcome.
	helloOnce sync.Once
	helloErr  error

	// storeMu guards the per-namespace view registry.
	storeMu sync.Mutex
	stores  map[string]*StoreClient
}

// Dial connects to a remote cloud at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. net.Pipe in tests) and
// starts its writer and reader goroutines.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		br:       bufio.NewReader(conn),
		sendq:    make(chan *request),
		dead:     make(chan struct{}),
		inflight: make(map[uint64]chan *response),
		stores:   make(map[string]*StoreClient),
	}
	c.gobIn = &gobSource{direct: c.br}
	c.gobOut = &gobSink{direct: conn}
	c.enc = gob.NewEncoder(c.gobOut)
	c.dec = gob.NewDecoder(c.gobIn)
	c.start()
	return c
}

// WithStore returns the view of the named server-side namespace ("" means
// DefaultStore). Views share the connection, its multiplexing and its
// error state, but each has its own upload buffer and address arithmetic,
// so differently keyed relations can ride one transport without
// interleaving. The same name always yields the same view.
func (c *Client) WithStore(name string) *StoreClient {
	name = storeName(name)
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if s, ok := c.stores[name]; ok {
		return s
	}
	s := &StoreClient{c: c, store: name}
	c.stores[name] = s
	return s
}

// Store implements Transport: the Backend view of one namespace.
func (c *Client) Store(name string) Backend { return c.WithStore(name) }

// Close closes the connection and releases every in-flight call: they
// and all later calls fail with a client-closed error. An explicit Close
// is a clean shutdown, not a transport failure, so it does not surface
// through Err.
func (c *Client) Close() error {
	return c.shutdown(errClientClosed)
}

// Err returns the sticky transport error, if any. Logical (server-side)
// errors never poison the client (see LogicalErr), and an explicit Close
// is not a failure.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == errClientClosed {
		return nil
	}
	return c.err
}

// LogicalErr returns the most recent error reported by an interface
// method that cannot return one (Search, Len, ...): usually a server-side
// logical error, but also transport failures and use-after-close those
// methods swallowed into zero values. A logical error never poisons the
// connection, so this is a per-op record: later successful calls do not
// clear it, later failing calls overwrite it. The record is shared by
// every store view on the connection.
func (c *Client) LogicalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logical
}

// LogicalErrCount reports how many times a void interface method has
// recorded an error. Callers bracketing a batch of operations (e.g. one
// query) snapshot it before and compare after: a changed count means some
// op in the window failed silently — without the races of a shared
// take-and-clear slot under concurrent batches.
func (c *Client) LogicalErrCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logicalN
}

// noteLogical records a per-op error from a void interface method.
// Transport failures and use-after-close are recorded too — they are
// what the method's zero-value return just swallowed — so windows
// bracketed by LogicalErrCount observe them even when Err() alone would
// not surface them (a clean close).
func (c *Client) noteLogical(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logical = err
	c.logicalN++
}

// Ping checks liveness (and, on first use, performs the handshake).
func (c *Client) Ping() error {
	_, err := c.roundTrip(&request{Op: opPing})
	return err
}

// --- StoreClient --------------------------------------------------------

// StoreClient is one namespace's view of a shared connection. It
// implements the full Backend surface — cloud.PlainBackend plus
// technique.BatchEncStore — scoped to its store: every request it frames
// carries the store name, and it owns the namespace's upload buffer and
// client-side address arithmetic. Transport state (multiplexing, sticky
// errors, the logical-error record) is shared with the connection.
//
// StoreClient is safe for concurrent use.
type StoreClient struct {
	c     *Client
	store string

	// adminMu guards adminToken: the namespace's control-plane owner
	// token, attached to write requests so the first write claims the
	// namespace (see SetAdminToken).
	adminMu    sync.Mutex
	adminToken []byte

	// bufMu guards the encrypted-upload buffer. It is held across the
	// flush round trip so the buffer and serverLen stay consistent with
	// the server.
	bufMu   sync.Mutex
	pending []EncUpload
	// serverLen tracks the server-side row count of this namespace after
	// the last acknowledged flush, so Add can assign addresses without a
	// round trip. It is synced from the server on first use (lenSynced),
	// so a fresh client attaching to an already-populated store does not
	// hand out addresses that collide with existing rows.
	serverLen int
	lenSynced bool

	// plainMu guards the clear-text partition's length mirror, held
	// across the insert round trip so concurrent Inserts CAS against
	// consecutive lengths instead of racing each other. Lock order:
	// plainMu before bufMu (Insert holds plainMu while call() flushes).
	plainMu     sync.Mutex
	plainLen    int
	plainSynced bool
}

// StoreName returns the namespace this view addresses.
func (s *StoreClient) StoreName() string { return s.store }

// SetAdminToken attaches the namespace's owner token (see OwnerToken) to
// this view: every write request carries it, so the first write registers
// the caller as the namespace's owner and the matching admin ops (stats,
// drop, compact) become available to whoever holds the master key. A nil
// token leaves the namespace unclaimed — and its admin ops permanently
// refused until a tokened writer claims it.
func (s *StoreClient) SetAdminToken(tok []byte) {
	s.adminMu.Lock()
	s.adminToken = cloneBytes(tok)
	s.adminMu.Unlock()
}

// ownerToken returns the view's owner token (nil when unset).
func (s *StoreClient) ownerToken() []byte {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	return s.adminToken
}

// call flushes buffered uploads and performs one round trip, stamping the
// request with the view's namespace.
func (s *StoreClient) call(req *request) (*response, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	req.Store = s.store
	return s.c.roundTrip(req)
}

// Ping checks liveness of the shared connection.
func (s *StoreClient) Ping() error { return s.c.Ping() }

// Err returns the shared connection's sticky transport error.
func (s *StoreClient) Err() error { return s.c.Err() }

// LogicalErr returns the shared connection's per-op error record.
func (s *StoreClient) LogicalErr() error { return s.c.LogicalErr() }

// LogicalErrCount returns the shared connection's per-op error count.
func (s *StoreClient) LogicalErrCount() uint64 { return s.c.LogicalErrCount() }

// Close closes the SHARED connection: every view on it dies with it. A
// caller owning several views (e.g. a vertical client's two namespaces)
// should close once, through whichever handle it keeps.
func (s *StoreClient) Close() error { return s.c.Close() }

// --- cloud.PlainBackend -----------------------------------------------

// Load implements cloud.PlainBackend: ships the non-sensitive relation to
// the view's namespace in clear-text.
func (s *StoreClient) Load(rns *relation.Relation, attr string) error {
	resp, err := s.call(&request{
		Op:         opPlainLoad,
		Schema:     rns.Schema,
		Tuples:     rns.Tuples,
		Attr:       attr,
		AdminToken: s.ownerToken(),
	})
	if err != nil {
		return err
	}
	s.plainMu.Lock()
	s.plainLen = resp.N
	s.plainSynced = true
	s.plainMu.Unlock()
	return nil
}

// searchErr is Search with the error surfaced (retrying wrappers need it;
// the interface method swallows it into noteLogical).
func (s *StoreClient) searchErr(values []relation.Value) ([]relation.Tuple, error) {
	resp, err := s.call(&request{Op: opPlainSearch, Values: values})
	if err != nil {
		return nil, err
	}
	return resp.Tuples, nil
}

// Search implements cloud.PlainBackend.
func (s *StoreClient) Search(values []relation.Value) []relation.Tuple {
	ts, err := s.searchErr(values)
	if err != nil {
		s.c.noteLogical(err)
		return nil
	}
	return ts
}

// searchRangeErr is SearchRange with the error surfaced.
func (s *StoreClient) searchRangeErr(lo, hi relation.Value) ([]relation.Tuple, error) {
	resp, err := s.call(&request{Op: opPlainSearchRange, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return resp.Tuples, nil
}

// SearchRange implements cloud.PlainBackend.
func (s *StoreClient) SearchRange(lo, hi relation.Value) []relation.Tuple {
	ts, err := s.searchRangeErr(lo, hi)
	if err != nil {
		s.c.noteLogical(err)
		return nil
	}
	return ts
}

// Insert implements cloud.PlainBackend. Inserts are conditional on the
// relation's tuple count (protocol v6): the view mirrors the count —
// seeded by Load, lazily probed via opStoreInfo otherwise, advanced per
// acknowledged insert — and the server applies the insert only if it
// still matches, so an insert racing an anti-entropy restore of the same
// replica cannot land twice. A stale-write refusal (IsStaleWrite) drops
// the mirror; the next insert re-probes before writing.
func (s *StoreClient) Insert(t relation.Tuple) error {
	s.plainMu.Lock()
	defer s.plainMu.Unlock()
	if !s.plainSynced {
		resp, err := s.call(&request{Op: opStoreInfo})
		if err != nil {
			return err
		}
		if resp.Info.PlainTuples < 0 {
			return fmt.Errorf("wire: insert: no relation loaded in store %q", storeName(s.store))
		}
		s.plainLen = resp.Info.PlainTuples
		s.plainSynced = true
	}
	_, err := s.call(&request{Op: opPlainInsert, Tuple: t, AdminToken: s.ownerToken(), Have: s.plainLen})
	if err != nil {
		if s.c.stickyErr() == nil && IsStaleWrite(err) {
			s.plainSynced = false
		}
		return err
	}
	s.plainLen++
	return nil
}

// --- technique.EncStore -------------------------------------------------

// Add implements technique.EncStore. Uploads are buffered; they are
// flushed automatically before any read operation, or explicitly with
// Flush. The returned address is computed client-side (the server assigns
// addresses sequentially in upload order, per namespace).
func (s *StoreClient) Add(tupleCT, attrCT, token []byte) int {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if s.c.stickyErr() != nil {
		return -1
	}
	if !s.lenSynced {
		resp, err := s.c.roundTrip(&request{Op: opEncLen, Store: s.store})
		if err != nil {
			s.c.noteLogical(err)
			return -1
		}
		s.serverLen = resp.N
		s.lenSynced = true
	}
	addr := s.serverLen + len(s.pending)
	s.pending = append(s.pending, EncUpload{
		TupleCT: cloneBytes(tupleCT), AttrCT: cloneBytes(attrCT), Token: cloneBytes(token),
	})
	return addr
}

// Flush uploads any pending encrypted rows. On failure the rows stay
// buffered — their addresses were already handed out by Add, so dropping
// them would silently corrupt the technique's index — and a later Flush
// retries them.
func (s *StoreClient) Flush() error {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	// Surface the sticky error even with nothing buffered: after a
	// transport failure Add buffers nothing, so an empty-pending nil here
	// would let an Outsource over a dead connection report success.
	if err := s.c.stickyErr(); err != nil {
		return err
	}
	if len(s.pending) == 0 {
		return nil
	}
	batch := s.pending
	// The batch is conditional on the row count its addresses were
	// assigned at (protocol v6): pending is never non-empty without a
	// synced length (Add probes before buffering, seed records one), and
	// the server applies the batch only if the store still holds exactly
	// serverLen rows. A flush racing an anti-entropy repair of this
	// replica — which can append these very rows, copied from a peer that
	// acked them — is refused instead of doubling the tail.
	have := s.serverLen
	if !s.lenSynced {
		have = -1
	}
	resp, err := s.c.roundTrip(&request{Op: opEncAddBatch, Store: s.store, Batch: batch, AdminToken: s.ownerToken(), Have: have})
	if err != nil {
		if s.c.stickyErr() == nil && IsStaleWrite(err) {
			// Nothing was applied, but the base address moved: the buffered
			// rows' handed-out addresses can only ever be honoured at the
			// probed base, so retrying is pointless. Drop them and the
			// length mirror — in a ring this replica is quarantined on the
			// error and anti-entropy re-materialises the rows from a
			// replica that acked; readmission's ResyncLen would refuse
			// while they were retained.
			s.pending = nil
			s.lenSynced = false
			s.serverLen = 0
			return fmt.Errorf("wire: flush: store %q: %w", storeName(s.store), err)
		}
		// Keep the batch buffered for retry: its addresses were already
		// handed out by Add, so dropping the rows would silently corrupt
		// the technique's index. If the server rejected the batch
		// logically the connection is still healthy; confirm via opEncLen
		// that nothing was applied, in which case the retained addresses
		// are still the ones a retry will materialise. A shifted length
		// means the batch was partially applied and the handed-out
		// addresses can no longer be honoured — no retry can fix that, so
		// fail the client loudly rather than let every later Fetch return
		// the wrong row.
		if s.c.stickyErr() == nil {
			if lenResp, lerr := s.c.roundTrip(&request{Op: opEncLen, Store: s.store}); lerr == nil {
				if s.lenSynced && lenResp.N != s.serverLen {
					s.c.fail(fmt.Errorf(
						"wire: flush: store %q length %d after rejected batch, expected %d: batch partially applied, handed-out addresses lost (%w)",
						s.store, lenResp.N, s.serverLen, err))
					return err
				}
				s.serverLen = lenResp.N
				s.lenSynced = true
			}
		}
		return err
	}
	// bufMu is held across the whole round trip and Add requires it too,
	// so pending cannot have grown since batch was taken.
	s.pending = nil
	s.serverLen += resp.N
	return nil
}

// takeRetained extracts the view's retained upload state so a reconnecting
// wrapper can replay it on a fresh connection. It is only meaningful on a
// poisoned connection: the sticky error (checked under the same bufMu)
// guarantees no concurrent Add can buffer after the harvest.
func (s *StoreClient) takeRetained() (pending []EncUpload, serverLen int, synced bool) {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	pending = s.pending
	s.pending = nil
	return pending, s.serverLen, s.lenSynced
}

// seed installs upload state harvested from a dead connection's view of
// the same namespace: the retained rows keep the addresses Add already
// handed out, and serverLen anchors them to the server-side row count the
// reconnect resync verified.
func (s *StoreClient) seed(pending []EncUpload, serverLen int) {
	s.bufMu.Lock()
	s.pending = pending
	s.serverLen = serverLen
	s.lenSynced = true
	s.bufMu.Unlock()
}

// ResyncLen drops the view's cached server-length arithmetic — the
// encrypted row count AND the clear-text tuple count — so the next Add or
// Insert re-reads the server's. A ring client readmitting a repaired
// replica uses it: anti-entropy appended rows (or restored tuples)
// server-side that this view never saw, so its cached lengths would hand
// out colliding addresses or fail every insert's CAS. It refuses while
// uploads are retained — those rows carry already-handed-out addresses
// that resyncing would orphan.
func (s *StoreClient) ResyncLen() error {
	s.plainMu.Lock()
	defer s.plainMu.Unlock()
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if len(s.pending) > 0 {
		return fmt.Errorf("wire: resync len: store %q holds %d retained uploads whose addresses were already handed out", s.store, len(s.pending))
	}
	s.lenSynced = false
	s.serverLen = 0
	s.plainSynced = false
	s.plainLen = 0
	return nil
}

// lenErr is Len with the error surfaced.
func (s *StoreClient) lenErr() (int, error) {
	resp, err := s.call(&request{Op: opEncLen})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Len implements technique.EncStore.
func (s *StoreClient) Len() int {
	n, err := s.lenErr()
	if err != nil {
		s.c.noteLogical(err)
		return 0
	}
	return n
}

// attrColumnErr is AttrColumn with the error surfaced.
func (s *StoreClient) attrColumnErr() ([]storage.EncRow, error) {
	resp, err := s.call(&request{Op: opEncAttrColumn})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// AttrColumn implements technique.EncStore.
func (s *StoreClient) AttrColumn() []storage.EncRow {
	rows, err := s.attrColumnErr()
	if err != nil {
		s.c.noteLogical(err)
		return nil
	}
	return rows
}

// Fetch implements technique.EncStore.
func (s *StoreClient) Fetch(addrs []int) ([]storage.EncRow, error) {
	resp, err := s.call(&request{Op: opEncFetch, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// FetchBatch implements technique.BatchEncStore: a single round trip
// returns the rows for every address list, so a batched search pays one
// network latency for the whole batch's bin fetches instead of one per
// query.
func (s *StoreClient) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	resp, err := s.call(&request{Op: opEncFetchBatch, AddrBatches: addrBatches})
	if err != nil {
		return nil, err
	}
	return resp.RowBatches, nil
}

// lookupTokenErr is LookupToken with the error surfaced.
func (s *StoreClient) lookupTokenErr(tok []byte) ([]int, error) {
	resp, err := s.call(&request{Op: opEncLookupToken, Token: tok})
	if err != nil {
		return nil, err
	}
	return resp.Addrs, nil
}

// LookupToken implements technique.EncStore.
func (s *StoreClient) LookupToken(tok []byte) []int {
	addrs, err := s.lookupTokenErr(tok)
	if err != nil {
		s.c.noteLogical(err)
		return nil
	}
	return addrs
}

// rowsErr is Rows with the error surfaced.
func (s *StoreClient) rowsErr() ([]storage.EncRow, error) {
	resp, err := s.call(&request{Op: opEncRows})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Rows implements technique.EncStore.
func (s *StoreClient) Rows() []storage.EncRow {
	rows, err := s.rowsErr()
	if err != nil {
		s.c.noteLogical(err)
		return nil
	}
	return rows
}

// --- technique.VersionedEncStore ----------------------------------------

// EncVersion implements technique.VersionedEncStore: the namespace's
// current version in one tiny round trip.
func (s *StoreClient) EncVersion() (storage.EncVersion, error) {
	resp, err := s.call(&request{Op: opEncVersion})
	if err != nil {
		return storage.EncVersion{}, err
	}
	return storage.EncVersion{Epoch: resp.VerEpoch, N: resp.VerN}, nil
}

// AttrColumnSince implements technique.VersionedEncStore: the conditional
// column pull. When the cache version v still matches the namespace's
// epoch, the response carries only the rows past have (delta=true; empty
// on a clean hit — a not-modified frame of a few bytes instead of the
// whole column); otherwise the full column comes back with delta=false.
func (s *StoreClient) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	resp, err := s.call(&request{Op: opEncAttrColumnIf, CondEpoch: v.Epoch, CondN: v.N, Have: have})
	if err != nil {
		return nil, storage.EncVersion{}, false, err
	}
	return resp.Rows, storage.EncVersion{Epoch: resp.VerEpoch, N: resp.VerN}, resp.Delta, nil
}

// RowsSince implements technique.VersionedEncStore: the conditional full-
// row pull, same delta contract as AttrColumnSince.
func (s *StoreClient) RowsSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	resp, err := s.call(&request{Op: opEncRowsIf, CondEpoch: v.Epoch, CondN: v.N, Have: have})
	if err != nil {
		return nil, storage.EncVersion{}, false, err
	}
	return resp.Rows, storage.EncVersion{Epoch: resp.VerEpoch, N: resp.VerN}, resp.Delta, nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
