package wire

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
)

// This file turns sticky transport poison into transparent retry. A plain
// *Client is poisoned forever by its first transport failure — correct for
// a single connection, fatal for a long-running owner process whose cloud
// restarts or whose network blips. A Reconnector wraps the dial, watches
// for poison, and rebuilds an equivalent connection underneath the same
// Backend views:
//
//  1. redial with capped exponential backoff,
//  2. re-run the opHello handshake and probe liveness with opPing,
//  3. re-Load each namespace's cached clear-text relation (the cloud may
//     have restarted from a snapshot that predates recent plain writes —
//     re-loading makes the plain partition exactly the owner's copy),
//  4. resync each namespace's encrypted row count via opEncLen and
//     reconcile it against the acknowledged count plus the retained
//     upload buffer (which survives failed flushes by design), then
//  5. replay the retained uploads whose flush never got an acknowledgment.
//
// The opEncLen arithmetic makes flush replay exactly-once: a batch whose
// acknowledgment was lost in the crash is detected as already applied
// (server count == acknowledged + retained) and not replayed; a batch the
// server never saw is replayed at the exact addresses Add handed out
// (server count == acknowledged). Any other count is unreconcilable —
// handed-out addresses can no longer be honoured — and fails the
// Reconnector permanently rather than silently serving wrong rows.

// errReconnClosed is the sticky error after an explicit Close.
var errReconnClosed = errors.New("wire: reconnector closed")

// ReconnectOptions tunes the redial loop. The zero value selects the
// defaults: 10 attempts per reconnect cycle, 25ms initial backoff doubling
// up to a 1s cap.
type ReconnectOptions struct {
	// MaxRetries bounds dial attempts per reconnect cycle (and retry
	// cycles per operation); <= 0 selects 10.
	MaxRetries int
	// BaseDelay is the backoff before the second attempt; <= 0 selects
	// 25ms. Doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 selects 1s.
	MaxDelay time.Duration
	// Clock supplies time to the backoff loop; nil selects the real
	// clock. Tests inject a fake so backoff coverage does not sleep.
	Clock Clock
}

func (o ReconnectOptions) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return 10
}

func (o ReconnectOptions) baseDelay() time.Duration {
	if o.BaseDelay > 0 {
		return o.BaseDelay
	}
	return 25 * time.Millisecond
}

func (o ReconnectOptions) maxDelay() time.Duration {
	if o.MaxDelay > 0 {
		return o.MaxDelay
	}
	return time.Second
}

func (o ReconnectOptions) clock() Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return realClock{}
}

// Reconnector is a Transport over a dial function instead of a single
// connection: per-namespace views (Store/WithStore) survive connection
// death, reconnecting and replaying under the callers' feet. Operations in
// flight during a failure block until the reconnect cycle completes and
// then retry; only an exhausted redial loop, an unreconcilable resync, or
// an explicit Close fails them.
//
// Reconnector is safe for concurrent use.
type Reconnector struct {
	dial func() (*Client, error)
	opts ReconnectOptions

	mu           sync.Mutex
	cond         *sync.Cond
	cur          *Client // current connection; nil before the first op
	reconnecting bool
	closed       bool
	permErr      error         // unrecoverable failure, sticky
	closedCh     chan struct{} // closed by Close: aborts backoff sleeps

	// The reconnector owns the logical-error record (the per-connection
	// records die with their connections, which would reset the monotonic
	// count callers bracket with).
	logMu    sync.Mutex
	logical  error
	logicalN uint64

	storeMu sync.Mutex
	stores  map[string]*ReconnStore
}

var (
	_ Backend   = (*ReconnStore)(nil)
	_ Transport = (*Reconnector)(nil)
)

// NewReconnector wraps a dial function (lazy: the first operation
// connects). Tests hand it net.Pipe factories; production uses
// DialReconnect.
func NewReconnector(dial func() (*Client, error), opts ReconnectOptions) *Reconnector {
	rc := &Reconnector{
		dial:     dial,
		opts:     opts,
		closedCh: make(chan struct{}),
		stores:   make(map[string]*ReconnStore),
	}
	rc.cond = sync.NewCond(&rc.mu)
	return rc
}

// DialReconnect returns a reconnecting transport to the cloud at addr. The
// first connection is established eagerly so a misconfigured address fails
// fast at construction rather than at the first query.
func DialReconnect(addr string, opts ReconnectOptions) (*Reconnector, error) {
	rc := NewReconnector(func() (*Client, error) { return Dial(addr) }, opts)
	c, err := rc.dial()
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	rc.cur = c
	rc.mu.Unlock()
	return rc, nil
}

// WithStore returns the reconnect-surviving view of the named namespace
// ("" means DefaultStore). The same name always yields the same view.
func (rc *Reconnector) WithStore(name string) *ReconnStore {
	name = storeName(name)
	rc.storeMu.Lock()
	defer rc.storeMu.Unlock()
	if s, ok := rc.stores[name]; ok {
		return s
	}
	s := &ReconnStore{rc: rc, name: name}
	rc.stores[name] = s
	return s
}

// Store implements Transport.
func (rc *Reconnector) Store(name string) Backend { return rc.WithStore(name) }

// storeList snapshots the registered namespace views.
func (rc *Reconnector) storeList() []*ReconnStore {
	rc.storeMu.Lock()
	defer rc.storeMu.Unlock()
	out := make([]*ReconnStore, 0, len(rc.stores))
	for _, s := range rc.stores {
		out = append(out, s)
	}
	return out
}

// Close tears the transport down for good: the current connection dies,
// blocked reconnect sleeps abort, and every later operation fails with a
// closed error. Like Client.Close, a clean close is not a failure: Err
// stays nil.
func (rc *Reconnector) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	close(rc.closedCh)
	cur := rc.cur
	rc.cond.Broadcast()
	rc.mu.Unlock()
	if cur != nil {
		return cur.Close()
	}
	return nil
}

// Err reports the sticky unrecoverable error, if any: redial exhaustion or
// an unreconcilable resync. Transient transport failures never surface
// here — they are the Reconnector's job — and neither does a clean Close.
func (rc *Reconnector) Err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.permErr
}

// noteLogical records a per-op error a void interface method swallowed —
// the reconnector-level counterpart of Client.noteLogical, surviving the
// connections whose own records die with them.
func (rc *Reconnector) noteLogical(err error) {
	rc.logMu.Lock()
	rc.logical = err
	rc.logicalN++
	rc.logMu.Unlock()
}

// LogicalErr returns the most recent error recorded by a void interface
// method, across all connection generations.
func (rc *Reconnector) LogicalErr() error {
	rc.logMu.Lock()
	defer rc.logMu.Unlock()
	return rc.logical
}

// LogicalErrCount reports how many times a void interface method has
// recorded an error; monotonic across reconnects, so bracketed windows
// stay sound.
func (rc *Reconnector) LogicalErrCount() uint64 {
	rc.logMu.Lock()
	defer rc.logMu.Unlock()
	return rc.logicalN
}

// Ping checks that a live, handshaken connection exists — dialing one if
// needed — and probes it.
func (rc *Reconnector) Ping() error {
	var lastErr error
	for i := 0; i < rc.opts.maxRetries(); i++ {
		c, err := rc.acquire()
		if err != nil {
			return err
		}
		if err := c.Ping(); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// acquire returns a healthy connection, running (or waiting on) a
// reconnect cycle when the current one is poisoned. It fails only on
// Close or a permanent error.
func (rc *Reconnector) acquire() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for {
		switch {
		case rc.closed:
			return nil, errReconnClosed
		case rc.permErr != nil:
			return nil, rc.permErr
		case rc.cur != nil && rc.cur.stickyErr() == nil:
			return rc.cur, nil
		case rc.reconnecting:
			rc.cond.Wait()
		default:
			rc.reconnecting = true
			old := rc.cur
			rc.mu.Unlock()
			next, err := rc.reconnect(old)
			rc.mu.Lock()
			rc.reconnecting = false
			switch {
			case err != nil:
				if !rc.closed && !errors.Is(err, errReconnClosed) {
					rc.permErr = err
				}
			case rc.closed:
				// Close won the race with the cycle: the fresh connection
				// must not outlive the transport it was dialed for.
				next.Close()
			default:
				rc.cur = next
			}
			rc.cond.Broadcast()
		}
	}
}

// retained is one namespace's harvested upload state.
type retained struct {
	pending   []EncUpload
	serverLen int
	synced    bool
}

// reconnect runs one full cycle: harvest retained state from the dead
// connection, then redial with capped exponential backoff until a
// connection passes the handshake, the liveness probe and the per-
// namespace restore. Transient failures consume attempts; an
// unreconcilable restore aborts the cycle with a permanent error.
func (rc *Reconnector) reconnect(old *Client) (*Client, error) {
	views := rc.storeList()
	kept := make(map[string]retained, len(views))
	if old != nil {
		old.Close()
		for _, rs := range views {
			p, l, synced := old.WithStore(rs.name).takeRetained()
			kept[rs.name] = retained{pending: p, serverLen: l, synced: synced}
		}
	}

	// Jittered capped exponential backoff: each sleep is drawn uniformly
	// from [delay/2, delay], so N clients orphaned by one node crash
	// spread their redials across half a backoff window instead of
	// hammering the restarted node in lockstep. The generator is seeded
	// from the injected clock, never the wall clock, so tests driving a
	// fake clock get a deterministic schedule to assert bounds against.
	delay := rc.opts.baseDelay()
	seed := uint64(rc.opts.clock().Now().UnixNano())
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	var lastErr error
	for attempt := 0; attempt < rc.opts.maxRetries(); attempt++ {
		if attempt > 0 {
			sleep := delay
			if half := int64(delay / 2); half > 0 {
				sleep = delay/2 + time.Duration(rng.Int64N(half+1))
			}
			select {
			case <-rc.opts.clock().After(sleep):
			case <-rc.closedCh:
				return nil, errReconnClosed
			}
			delay *= 2
			if delay > rc.opts.maxDelay() {
				delay = rc.opts.maxDelay()
			}
		}
		c, err := rc.dial()
		if err != nil {
			lastErr = err
			continue
		}
		// Handshake + post-redial liveness probe in one round trip.
		if err := c.Ping(); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		permanent, transient := rc.restore(c, views, kept)
		if permanent != nil {
			c.Close()
			return nil, permanent
		}
		if transient != nil {
			c.Close()
			lastErr = transient
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("wire: reconnect: gave up after %d attempts: %w", rc.opts.maxRetries(), lastErr)
}

// restore rebuilds every registered namespace on a fresh connection:
// re-Load the cached clear-text relation, reconcile the encrypted row
// count, replay retained uploads. A transport failure mid-restore is
// transient (the cycle redials); an unreconcilable count or a logically
// rejected replay is permanent. Restore is idempotent across attempts: a
// replay that was applied before the cycle's next failure is detected as
// applied by the count arithmetic and not replayed twice.
func (rc *Reconnector) restore(c *Client, views []*ReconnStore, kept map[string]retained) (permanent, transient error) {
	classify := func(name, what string, err error) (permanent, transient error) {
		if c.stickyErr() != nil {
			return nil, err
		}
		return fmt.Errorf("wire: reconnect: store %q: %s: %w", name, what, err), nil
	}
	for _, rs := range views {
		sc := c.WithStore(rs.name)
		sc.SetAdminToken(rs.ownerToken())
		if rel, attr := rs.cachedLoad(); rel != nil {
			if err := sc.Load(rel, attr); err != nil {
				return classify(rs.name, "re-load", err)
			}
			rs.bumpLoadGen()
		}
		k := kept[rs.name]
		if !k.synced && len(k.pending) == 0 {
			continue
		}
		n, err := sc.lenErr()
		if err != nil {
			return classify(rs.name, "resync", err)
		}
		switch {
		case n == k.serverLen:
			// The server is exactly where the last acknowledged flush left
			// it: retained uploads replay at the addresses Add handed out.
			sc.seed(k.pending, k.serverLen)
			if len(k.pending) > 0 {
				if err := sc.Flush(); err != nil {
					if IsStaleWrite(err) && c.stickyErr() == nil {
						// The count moved between the probe and the replay —
						// in a ring, anti-entropy copying this very batch
						// from a replica that acked it before the crash. Only
						// an exact batch-already-present count reconciles;
						// Flush already dropped the retained rows either way.
						if n2, err2 := sc.lenErr(); err2 != nil {
							return classify(rs.name, "re-probing after stale replay", err2)
						} else if n2 == k.serverLen+len(k.pending) {
							sc.seed(nil, n2)
							continue
						}
						return fmt.Errorf("wire: reconnect: store %q: retained uploads lost to a concurrent write: %w", rs.name, err), nil
					}
					return classify(rs.name, "replaying retained uploads", err)
				}
			}
		case len(k.pending) > 0 && n == k.serverLen+len(k.pending):
			// The batch was applied but its acknowledgment died with the
			// connection; replaying would double every row.
			sc.seed(nil, n)
		case len(k.pending) == 0 && n > k.serverLen:
			// Rows appended by another writer; ours are all accounted for.
			sc.seed(nil, n)
		default:
			return fmt.Errorf(
				"wire: reconnect: store %q: server has %d encrypted rows, cannot reconcile with %d acknowledged + %d retained (handed-out addresses lost)",
				rs.name, n, k.serverLen, len(k.pending)), nil
		}
	}
	return nil, nil
}

// --- ReconnStore ---------------------------------------------------------

// ReconnStore is one namespace's reconnect-surviving Backend view. It
// caches what a reconnect must replay — the owner token, the clear-text
// relation last shipped with Load plus every Insert since (the price of
// transparent retry is an owner-side mirror of the plain partition) — and
// retries each operation through fresh connections until it succeeds,
// fails logically, or the Reconnector fails permanently.
type ReconnStore struct {
	rc   *Reconnector
	name string

	mu         sync.Mutex
	adminToken []byte
	rel        *relation.Relation // clear-text mirror; nil before Load
	attr       string
	// loadGen counts restore() re-Loads of the mirror. Load and Insert
	// sample it around their round trip: a changed generation means a
	// reconnect re-shipped the mirror mid-call, so the server's plain
	// partition was rebuilt from a mirror that predates the call — the op
	// must re-run to converge rather than commit a mirror the server no
	// longer matches.
	loadGen uint64
}

// StoreName returns the namespace this view addresses.
func (rs *ReconnStore) StoreName() string { return rs.name }

// SetAdminToken attaches the namespace's owner token; it is re-stamped on
// every connection generation.
func (rs *ReconnStore) SetAdminToken(tok []byte) {
	rs.mu.Lock()
	rs.adminToken = cloneBytes(tok)
	rs.mu.Unlock()
}

func (rs *ReconnStore) ownerToken() []byte {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.adminToken
}

// cachedLoad returns the mirrored clear-text relation (nil before Load).
func (rs *ReconnStore) cachedLoad() (*relation.Relation, string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.rel, rs.attr
}

// bumpLoadGen records that a reconnect cycle re-shipped the mirror.
func (rs *ReconnStore) bumpLoadGen() {
	rs.mu.Lock()
	rs.loadGen++
	rs.mu.Unlock()
}

// withConn runs f against the current connection's view of this
// namespace, reconnecting and retrying on transport failure. Logical
// errors return immediately; transport errors retry up to MaxRetries
// reconnect cycles (each cycle itself backing off through MaxRetries
// dials).
func (rs *ReconnStore) withConn(f func(sc *StoreClient) error) error {
	var lastErr error
	for i := 0; i < rs.rc.opts.maxRetries(); i++ {
		c, err := rs.rc.acquire()
		if err != nil {
			return err
		}
		sc := c.WithStore(rs.name)
		sc.SetAdminToken(rs.ownerToken())
		if err := f(sc); err == nil {
			return nil
		} else if c.stickyErr() == nil {
			return err // server-side logical error: retrying cannot help
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// ResyncLen drops the current connection's cached server-length
// arithmetic for this namespace (see StoreClient.ResyncLen); ring clients
// call it when readmitting a repaired replica to the write set.
func (rs *ReconnStore) ResyncLen() error {
	return rs.withConn(func(sc *StoreClient) error { return sc.ResyncLen() })
}

// Info probes the namespace's replica state — existence, row counts, the
// encrypted store's version — on the current connection. Ring clients use
// it as the readmission parity probe: unlike Len it covers the clear-text
// partition too, so a replica whose plain tuples still lag repair is not
// readmitted on encrypted parity alone.
func (rs *ReconnStore) Info() (StoreInfo, error) {
	var info StoreInfo
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		info, err = sc.c.StoreInfo(rs.name)
		return err
	})
	return info, err
}

// Ping probes the current connection (dialing one if needed).
func (rs *ReconnStore) Ping() error { return rs.rc.Ping() }

// Err reports the shared Reconnector's sticky unrecoverable error.
func (rs *ReconnStore) Err() error { return rs.rc.Err() }

// LogicalErr returns the shared reconnect-surviving per-op error record.
func (rs *ReconnStore) LogicalErr() error { return rs.rc.LogicalErr() }

// LogicalErrCount returns the shared monotonic per-op error count.
func (rs *ReconnStore) LogicalErrCount() uint64 { return rs.rc.LogicalErrCount() }

// Close closes the SHARED Reconnector: every view dies with it.
func (rs *ReconnStore) Close() error { return rs.rc.Close() }

// --- cloud.PlainBackend --------------------------------------------------

// Load ships the clear-text partition and mirrors it owner-side, so a
// reconnect can rebuild a cloud that restarted from a stale (or no)
// snapshot. The mirror is committed only once the cloud has accepted the
// relation — a logically rejected Load must not become the relation every
// future reconnect replays (and fails on, permanently) — and only if no
// reconnect re-shipped the previous mirror mid-call, in which case the
// server was just rebuilt from the old relation and the new one is
// shipped again.
func (rs *ReconnStore) Load(rel *relation.Relation, attr string) error {
	clone := rel.Clone()
	var lastErr error
	for i := 0; i < rs.rc.opts.maxRetries(); i++ {
		c, err := rs.rc.acquire()
		if err != nil {
			return err
		}
		rs.mu.Lock()
		gen := rs.loadGen
		rs.mu.Unlock()
		sc := c.WithStore(rs.name)
		sc.SetAdminToken(rs.ownerToken())
		if err := sc.Load(rel, attr); err != nil {
			if c.stickyErr() == nil {
				return err // logical rejection: nothing to mirror
			}
			lastErr = err
			continue
		}
		rs.mu.Lock()
		if rs.loadGen == gen {
			rs.rel, rs.attr = clone, attr
			rs.mu.Unlock()
			return nil
		}
		rs.mu.Unlock()
	}
	return lastErr
}

// Search implements cloud.PlainBackend with transparent retry.
func (rs *ReconnStore) Search(values []relation.Value) []relation.Tuple {
	var out []relation.Tuple
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		out, err = sc.searchErr(values)
		return err
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return nil
	}
	return out
}

// SearchRange implements cloud.PlainBackend with transparent retry.
func (rs *ReconnStore) SearchRange(lo, hi relation.Value) []relation.Tuple {
	var out []relation.Tuple
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		out, err = sc.searchRangeErr(lo, hi)
		return err
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return nil
	}
	return out
}

// Insert implements cloud.PlainBackend with exactly-once semantics when a
// Load went through this view. The argument rests on the mirror
// generation: a reconnect always re-Loads the mirror (bumping loadGen)
// before any retry can run, so an insert whose acknowledgment died with
// the connection was either never applied (replay inserts it once) or was
// erased by the re-Load of the t-less mirror (replay re-inserts it once).
// The acknowledged tuple joins the mirror only if no reconnect re-shipped
// it mid-call; a changed generation means the re-Load erased the applied
// tuple, so the op re-runs instead of committing a mirror the server no
// longer matches. Without a mirrored Load (a resumed session that never
// shipped the relation through this view) a lost acknowledgment may
// duplicate the insert on retry.
func (rs *ReconnStore) Insert(t relation.Tuple) error {
	var lastErr error
	for i := 0; i < rs.rc.opts.maxRetries(); i++ {
		c, err := rs.rc.acquire()
		if err != nil {
			return err
		}
		rs.mu.Lock()
		gen, mirrored := rs.loadGen, rs.rel != nil
		rs.mu.Unlock()
		sc := c.WithStore(rs.name)
		sc.SetAdminToken(rs.ownerToken())
		if err := sc.Insert(t); err != nil {
			if c.stickyErr() == nil {
				return err // server-side logical rejection
			}
			lastErr = err
			continue
		}
		rs.mu.Lock()
		if !mirrored {
			rs.mu.Unlock()
			return nil
		}
		if rs.loadGen == gen {
			// Mirror maintenance failing (schema drift) is impossible when
			// the cloud accepted the same tuple against the same schema;
			// ignore the error by symmetry.
			_ = rs.rel.Append(t.Clone())
			rs.mu.Unlock()
			return nil
		}
		rs.mu.Unlock()
	}
	return lastErr
}

// --- technique.BatchEncStore ---------------------------------------------

// Add buffers one encrypted row on the current connection's view, which
// owns the namespace's address arithmetic; the buffer migrates across
// reconnects until a flush is acknowledged.
func (rs *ReconnStore) Add(tupleCT, attrCT, token []byte) int {
	addr := -1
	err := rs.withConn(func(sc *StoreClient) error {
		addr = sc.Add(tupleCT, attrCT, token)
		if addr < 0 {
			// Add swallows its cause; recover it so withConn can classify.
			if err := sc.c.stickyErr(); err != nil {
				return err
			}
			return errors.New("wire: add: address sync failed")
		}
		return nil
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return -1
	}
	return addr
}

// Flush pushes pending uploads; a flush interrupted by connection death is
// completed by the reconnect cycle's replay (exactly once — see restore).
func (rs *ReconnStore) Flush() error {
	return rs.withConn(func(sc *StoreClient) error { return sc.Flush() })
}

// Len implements technique.EncStore with transparent retry.
func (rs *ReconnStore) Len() int {
	n := 0
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		n, err = sc.lenErr()
		return err
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return 0
	}
	return n
}

// AttrColumn implements technique.EncStore with transparent retry.
func (rs *ReconnStore) AttrColumn() []storage.EncRow {
	var rows []storage.EncRow
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		rows, err = sc.attrColumnErr()
		return err
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return nil
	}
	return rows
}

// Fetch implements technique.EncStore with transparent retry.
func (rs *ReconnStore) Fetch(addrs []int) ([]storage.EncRow, error) {
	var rows []storage.EncRow
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		rows, err = sc.Fetch(addrs)
		return err
	})
	return rows, err
}

// FetchBatch implements technique.BatchEncStore with transparent retry.
func (rs *ReconnStore) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	var batches [][]storage.EncRow
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		batches, err = sc.FetchBatch(addrBatches)
		return err
	})
	return batches, err
}

// LookupToken implements technique.EncStore with transparent retry.
func (rs *ReconnStore) LookupToken(tok []byte) []int {
	var addrs []int
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		addrs, err = sc.lookupTokenErr(tok)
		return err
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return nil
	}
	return addrs
}

// Rows implements technique.EncStore with transparent retry.
func (rs *ReconnStore) Rows() []storage.EncRow {
	var rows []storage.EncRow
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		rows, err = sc.rowsErr()
		return err
	})
	if err != nil {
		rs.rc.noteLogical(err)
		return nil
	}
	return rows
}

// EncVersion implements technique.VersionedEncStore with transparent
// retry. An owner-side cache composes with reconnection for free: the
// cache is keyed by the store's version epoch, which survives a transport
// blip unchanged (same server process) and changes when the server was
// rebuilt from a snapshot — exactly the case where cached state must be
// refetched.
func (rs *ReconnStore) EncVersion() (storage.EncVersion, error) {
	var v storage.EncVersion
	err := rs.withConn(func(sc *StoreClient) error {
		var err error
		v, err = sc.EncVersion()
		return err
	})
	return v, err
}

// AttrColumnSince implements technique.VersionedEncStore with transparent
// retry.
func (rs *ReconnStore) AttrColumnSince(ver storage.EncVersion, have int) (rows []storage.EncRow, cur storage.EncVersion, delta bool, err error) {
	err = rs.withConn(func(sc *StoreClient) error {
		var e error
		rows, cur, delta, e = sc.AttrColumnSince(ver, have)
		return e
	})
	return rows, cur, delta, err
}

// RowsSince implements technique.VersionedEncStore with transparent retry.
func (rs *ReconnStore) RowsSince(ver storage.EncVersion, have int) (rows []storage.EncRow, cur storage.EncVersion, delta bool, err error) {
	err = rs.withConn(func(sc *StoreClient) error {
		var e error
		rows, cur, delta, e = sc.RowsSince(ver, have)
		return e
	})
	return rows, cur, delta, err
}
