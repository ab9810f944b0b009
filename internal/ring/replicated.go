package ring

import (
	"fmt"
	"sync"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ReplicatedStore is one namespace's replicated view: a wire.Backend that
// fans writes out to every in-sync replica and serves reads from a sticky
// preferred replica with instant failover.
//
// Write consistency is CP by construction. The owner's address arithmetic
// (client-side Add addresses, token → address postings) must be identical
// on every replica that accepts writes, so a replica that misses or
// refuses a write is quarantined out of the write set immediately — it
// keeps serving reads of its (stale) prefix, but it takes no further
// writes until anti-entropy repair has restored byte-for-byte row parity
// and the readmission probe observes equal lengths. If NO replica can
// take a write, the write fails rather than diverging the survivors:
// refusing is recoverable, forked address spaces are not.
//
// Failed reads on one replica fall over to the next without surfacing
// through the owner's logical-error bracket: the ReplicatedStore keeps
// its OWN logical record and counts only ops that failed on EVERY
// replica, because a masked per-replica failure is degradation the
// failover already absorbed, not a lost answer.
type ReplicatedStore struct {
	r        *Router
	name     string
	replicas []*nodeConn

	// writeMu serialises write fan-out, quarantine decisions and
	// readmission probing; inSync is only touched under it.
	writeMu sync.Mutex
	inSync  []bool

	prefMu sync.Mutex
	pref   int // sticky preferred read replica

	tokMu    sync.Mutex
	adminTok []byte

	logMu    sync.Mutex
	logical  error
	logicalN uint64
}

var _ wire.Backend = (*ReplicatedStore)(nil)

func newReplicatedStore(r *Router, name string, replicas []*nodeConn) *ReplicatedStore {
	inSync := make([]bool, len(replicas))
	for i := range inSync {
		inSync[i] = true
	}
	return &ReplicatedStore{r: r, name: name, replicas: replicas, inSync: inSync}
}

// StoreName returns the namespace this view addresses.
func (s *ReplicatedStore) StoreName() string { return s.name }

// Placement returns the replica nodes in ring order (primary first).
func (s *ReplicatedStore) Placement() []Node {
	out := make([]Node, len(s.replicas))
	for i, nc := range s.replicas {
		out[i] = nc.node
	}
	return out
}

// InSync reports the current write set (indexes parallel Placement).
func (s *ReplicatedStore) InSync() []bool {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	out := make([]bool, len(s.inSync))
	copy(out, s.inSync)
	return out
}

// backend returns a replica's view with the owner token stamped.
func (s *ReplicatedStore) backend(nc *nodeConn) *wire.ReconnStore {
	b := nc.backend(s.name)
	s.tokMu.Lock()
	tok := s.adminTok
	s.tokMu.Unlock()
	if tok != nil {
		b.SetAdminToken(tok)
	}
	return b
}

// noteLogical records an op that failed on every replica; like the wire
// transports' records, the latest failure overwrites the previous one.
func (s *ReplicatedStore) noteLogical(err error) {
	if err == nil {
		err = fmt.Errorf("ring: store %q: op failed on every replica", s.name)
	}
	s.logMu.Lock()
	s.logical = err
	s.logicalN++
	s.logMu.Unlock()
}

func (s *ReplicatedStore) setPref(i int) {
	s.prefMu.Lock()
	s.pref = i
	s.prefMu.Unlock()
}

// readOrder is the failover probe order: available replicas starting at
// the sticky preference, or every replica forced when all are cooling
// down (a wrong guess there costs a fast error, not a wrong answer).
func (s *ReplicatedStore) readOrder() []int {
	s.prefMu.Lock()
	pref := s.pref
	s.prefMu.Unlock()
	n := len(s.replicas)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if idx := (pref + i) % n; s.replicas[idx].available() {
			order = append(order, idx)
		}
	}
	if len(order) == 0 {
		for i := 0; i < n; i++ {
			order = append(order, (pref+i)%n)
		}
	}
	return order
}

// bracket runs a void read against one replica backend and surfaces the
// failure its signature swallowed, using the transport's logical-error
// counter as the witness.
func bracket(b wire.Backend, f func()) error {
	before := b.LogicalErrCount()
	f()
	if err := b.Err(); err != nil {
		return err
	}
	if b.LogicalErrCount() != before {
		if err := b.LogicalErr(); err != nil {
			return err
		}
		return fmt.Errorf("ring: replica recorded a per-op failure")
	}
	return nil
}

// afterFailure books a failed probe: the node cools down only when its
// transport is actually gone — a logical refusal (unknown relation, bad
// range) is deterministic and must not eject the node from read routing.
func (s *ReplicatedStore) afterFailure(nc *nodeConn) {
	if nc.transportDead() {
		nc.markDown()
	}
}

// readVoid serves a void-signature read with failover; an op that fails
// on every replica lands in the view's own logical record.
func (s *ReplicatedStore) readVoid(f func(wire.Backend)) {
	var lastErr error
	for _, idx := range s.readOrder() {
		nc := s.replicas[idx]
		b := s.backend(nc)
		if err := bracket(b, func() { f(b) }); err != nil {
			lastErr = err
			s.afterFailure(nc)
			continue
		}
		s.setPref(idx)
		return
	}
	s.noteLogical(lastErr)
}

// readErr serves an error-signature read with failover.
func (s *ReplicatedStore) readErr(f func(wire.Backend) error) error {
	var lastErr error
	for _, idx := range s.readOrder() {
		nc := s.replicas[idx]
		if err := f(s.backend(nc)); err != nil {
			lastErr = err
			s.afterFailure(nc)
			continue
		}
		s.setPref(idx)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("ring: store %q: no replica answered", s.name)
	}
	return lastErr
}

// fanOut runs one write against every in-sync replica (writeMu held).
// Replicas that miss the write are quarantined — but only if at least one
// replica acked; with zero acks the write is refused outright and no
// quarantine sticks, so a total outage (or a client-side mistake every
// node refuses identically) cannot strand the namespace with an empty
// write set.
func (s *ReplicatedStore) fanOut(f func(wire.Backend) error) error {
	acks := 0
	var quarantine []int
	var lastErr error
	for i, nc := range s.replicas {
		if !s.inSync[i] {
			continue
		}
		if !nc.available() {
			quarantine = append(quarantine, i)
			if lastErr == nil {
				lastErr = fmt.Errorf("ring: store %q: replica %s is down", s.name, nc.node.ID)
			}
			continue
		}
		if err := f(s.backend(nc)); err != nil {
			quarantine = append(quarantine, i)
			lastErr = err
			s.afterFailure(nc)
			continue
		}
		acks++
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("ring: store %q: no in-sync replica", s.name)
		}
		return lastErr
	}
	for _, i := range quarantine {
		s.inSync[i] = false
	}
	return nil
}

// readmit probes quarantined replicas for row parity with the in-sync
// set and restores them to the write set when anti-entropy repair has
// caught them up. Called after a successful flush (writeMu held) so the
// in-sync length it compares against is stable.
//
// Before the parity probe the replica's client view is told to re-learn
// the server length (ResyncLen): repair appended rows server-side that
// this view never uploaded, so its cached address base is stale and
// reusing it would hand out colliding addresses. A view still holding
// retained uploads refuses the resync and simply stays quarantined — its
// transport's eventual replacement clears that state.
//
// When the parity probe finds a replica still short, readmit asks the
// coordinator for one targeted repair round (opRingRepair) and re-probes,
// instead of waiting for the background sweep: this view's writes are
// frozen under writeMu while the repair runs, so on a single-writer
// namespace the round deterministically closes the gap and the replica
// rejoins within the same write call. At most one coordinator round is
// requested per readmit, and a failed request (no ring, coordinator
// unreachable) just leaves the replica to the sweep as before.
func (s *ReplicatedStore) readmit() {
	ref := -1
	for i := range s.replicas {
		if s.inSync[i] && s.replicas[i].available() {
			ref = i
			break
		}
	}
	if ref == -1 {
		return
	}
	var refInfo wire.StoreInfo
	refOK := false
	repairAsked := false
	for i, nc := range s.replicas {
		if s.inSync[i] || !nc.available() {
			continue
		}
		b := s.backend(nc)
		if !refOK {
			info, err := s.backend(s.replicas[ref]).Info()
			if err != nil {
				return
			}
			refInfo = info
			refOK = true
		}
		for attempt := 0; ; attempt++ {
			if err := b.ResyncLen(); err != nil {
				break
			}
			info, err := b.Info()
			if err != nil {
				s.afterFailure(nc)
				break
			}
			// Parity must hold for BOTH partitions: an encrypted-length match
			// alone would readmit a replica whose clear-text tuples still lag
			// the wholesale plain repair, and the next insert would land at a
			// different position there than on its peers.
			if info.EncRows == refInfo.EncRows && info.PlainTuples == refInfo.PlainTuples {
				s.inSync[i] = true
				break
			}
			if attempt > 0 || repairAsked {
				break
			}
			repairAsked = true
			if s.r.RequestRepair(s.name) != nil {
				break
			}
			// Other owners of the namespace may have written while the
			// repair ran; refresh the reference before the re-probe.
			if info, err := s.backend(s.replicas[ref]).Info(); err == nil {
				refInfo = info
			}
		}
	}
}

// --- lifecycle and errors ------------------------------------------------

// Ping succeeds when any replica answers.
func (s *ReplicatedStore) Ping() error {
	var lastErr error
	for _, idx := range s.readOrder() {
		nc := s.replicas[idx]
		if err := nc.transport().Ping(); err != nil {
			lastErr = err
			s.afterFailure(nc)
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("ring: store %q: no replica answered ping", s.name)
	}
	return lastErr
}

// Err is the view's sticky transport health: nil while any replica's
// transport is live (or not yet dialed — it may well succeed). Only when
// every replica has permanently failed is the view itself failed.
func (s *ReplicatedStore) Err() error {
	var firstErr error
	for _, nc := range s.replicas {
		nc.mu.Lock()
		tr := nc.tr
		nc.mu.Unlock()
		if tr == nil {
			return nil
		}
		err := tr.Err()
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LogicalErr returns the view's own per-op error record: the most recent
// op that failed on EVERY replica. Per-replica failures masked by failover
// do not count.
func (s *ReplicatedStore) LogicalErr() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logical
}

// LogicalErrCount counts ops that failed on every replica.
func (s *ReplicatedStore) LogicalErrCount() uint64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logicalN
}

// Close closes the SHARED router: every namespace view dies with it.
func (s *ReplicatedStore) Close() error { return s.r.Close() }

// SetAdminToken attaches the namespace's owner token; it is stamped onto
// every replica view at acquisition so claims and write admission behave
// identically on each replica.
func (s *ReplicatedStore) SetAdminToken(tok []byte) {
	s.tokMu.Lock()
	s.adminTok = tok
	s.tokMu.Unlock()
}

// --- writes (fan-out) ----------------------------------------------------

// Load ships the clear-text partition to every in-sync replica.
func (s *ReplicatedStore) Load(rel *relation.Relation, attr string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.fanOut(func(b wire.Backend) error { return b.Load(rel, attr) })
}

// Insert applies a clear-text insert on every in-sync replica, then —
// like Flush — uses the settled moment to probe quarantined replicas for
// readmission, so a plain-heavy workload does not leave a repaired
// replica quarantined until the next encrypted flush happens by.
func (s *ReplicatedStore) Insert(t relation.Tuple) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.fanOut(func(b wire.Backend) error { return b.Insert(t) }); err != nil {
		return err
	}
	s.readmit()
	return nil
}

// Add buffers one encrypted row on every in-sync replica and returns its
// address. The replicas' client-side address arithmetic must agree; a
// replica handing out a different address has diverged and is quarantined
// on the spot.
func (s *ReplicatedStore) Add(tupleCT, attrCT, token []byte) int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	addr := -1
	var quarantine []int
	for i, nc := range s.replicas {
		if !s.inSync[i] {
			continue
		}
		if !nc.available() {
			quarantine = append(quarantine, i)
			continue
		}
		got := s.backend(nc).Add(tupleCT, attrCT, token)
		if got < 0 {
			quarantine = append(quarantine, i)
			s.afterFailure(nc)
			continue
		}
		if addr == -1 {
			addr = got
			continue
		}
		if got != addr {
			quarantine = append(quarantine, i)
		}
	}
	if addr == -1 {
		s.noteLogical(fmt.Errorf("ring: store %q: add failed on every in-sync replica", s.name))
		return -1
	}
	for _, i := range quarantine {
		s.inSync[i] = false
	}
	return addr
}

// Flush uploads the pending rows on every in-sync replica, then uses the
// settled moment to probe quarantined replicas for readmission.
func (s *ReplicatedStore) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.fanOut(func(b wire.Backend) error { return b.Flush() }); err != nil {
		return err
	}
	s.readmit()
	return nil
}

// --- reads (failover) ----------------------------------------------------

// Search serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) Search(values []relation.Value) []relation.Tuple {
	var out []relation.Tuple
	s.readVoid(func(b wire.Backend) { out = b.Search(values) })
	return out
}

// SearchRange serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) SearchRange(lo, hi relation.Value) []relation.Tuple {
	var out []relation.Tuple
	s.readVoid(func(b wire.Backend) { out = b.SearchRange(lo, hi) })
	return out
}

// Len serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) Len() int {
	var out int
	s.readVoid(func(b wire.Backend) { out = b.Len() })
	return out
}

// AttrColumn serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) AttrColumn() []storage.EncRow {
	var out []storage.EncRow
	s.readVoid(func(b wire.Backend) { out = b.AttrColumn() })
	return out
}

// Fetch serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) Fetch(addrs []int) ([]storage.EncRow, error) {
	var out []storage.EncRow
	err := s.readErr(func(b wire.Backend) error {
		rows, err := b.Fetch(addrs)
		if err != nil {
			return err
		}
		out = rows
		return nil
	})
	return out, err
}

// FetchBatch serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	var out [][]storage.EncRow
	err := s.readErr(func(b wire.Backend) error {
		rows, err := b.FetchBatch(addrBatches)
		if err != nil {
			return err
		}
		out = rows
		return nil
	})
	return out, err
}

// LookupToken serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) LookupToken(tok []byte) []int {
	var out []int
	s.readVoid(func(b wire.Backend) { out = b.LookupToken(tok) })
	return out
}

// Rows serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) Rows() []storage.EncRow {
	var out []storage.EncRow
	s.readVoid(func(b wire.Backend) { out = b.Rows() })
	return out
}

// EncVersion serves from the preferred replica, failing over on error.
// Version epochs are per store INSTANCE, so a failover necessarily
// changes the observed epoch — exactly the signal the owner-side cache
// needs to drop state learned from the previous replica.
func (s *ReplicatedStore) EncVersion() (storage.EncVersion, error) {
	var out storage.EncVersion
	err := s.readErr(func(b wire.Backend) error {
		v, err := b.EncVersion()
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	return out, err
}

// AttrColumnSince serves from the preferred replica, failing over on
// error. Read stickiness keeps the conditional-fetch protocol effective:
// the epoch only changes when a failover actually happens.
func (s *ReplicatedStore) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	var rows []storage.EncRow
	var cur storage.EncVersion
	var delta bool
	err := s.readErr(func(b wire.Backend) error {
		r, c, d, err := b.AttrColumnSince(v, have)
		if err != nil {
			return err
		}
		rows, cur, delta = r, c, d
		return nil
	})
	if err != nil {
		return nil, storage.EncVersion{}, false, err
	}
	return rows, cur, delta, nil
}

// RowsSince serves from the preferred replica, failing over on error.
func (s *ReplicatedStore) RowsSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	var rows []storage.EncRow
	var cur storage.EncVersion
	var delta bool
	err := s.readErr(func(b wire.Backend) error {
		r, c, d, err := b.RowsSince(v, have)
		if err != nil {
			return err
		}
		rows, cur, delta = r, c, d
		return nil
	})
	if err != nil {
		return nil, storage.EncVersion{}, false, err
	}
	return rows, cur, delta, nil
}
