package ring

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

var testRingTok = []byte("test-cluster-secret")

// testNode is one ring member: a real wire.Cloud on a TCP loopback
// listener that tracks accepted connections, so kill() severs live
// clients too — closing only the listener would leave established
// transports working and no failover would ever trigger.
type testNode struct {
	t    *testing.T
	addr string

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
}

type trackedListener struct {
	net.Listener
	n *testNode
}

func (tl trackedListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err == nil {
		tl.n.mu.Lock()
		tl.n.conns[c] = struct{}{}
		tl.n.mu.Unlock()
	}
	return c, err
}

// startTestNode boots a fresh empty node on an ephemeral port.
func startTestNode(t *testing.T) *testNode {
	t.Helper()
	n := &testNode{t: t}
	n.start("127.0.0.1:0")
	t.Cleanup(n.kill)
	return n
}

// start serves a brand-new (empty) cloud on the given address.
func (n *testNode) start(addr string) {
	n.t.Helper()
	var lis net.Listener
	var err error
	// Rebinding the same port right after a kill can transiently fail.
	for i := 0; i < 50; i++ {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("listen %s: %v", addr, err)
	}
	cl := wire.NewCloud()
	cl.SetRingToken(testRingTok)
	n.mu.Lock()
	n.lis = lis
	n.conns = make(map[net.Conn]struct{})
	n.mu.Unlock()
	n.addr = lis.Addr().String()
	go func() { _ = cl.Serve(trackedListener{Listener: lis, n: n}) }()
}

// kill severs the node completely: listener and every accepted conn.
func (n *testNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lis != nil {
		n.lis.Close()
		n.lis = nil
	}
	for c := range n.conns {
		c.Close()
	}
	n.conns = nil
}

// restartEmpty kills the node and brings an empty replacement up on the
// SAME address — the rejoining-node scenario.
func (n *testNode) restartEmpty() {
	n.t.Helper()
	n.kill()
	n.start(n.addr)
}

// dialNode opens a throwaway control connection (fresh each call, since
// kills sever previously dialed clients).
func dialNode(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func nodeInfo(t *testing.T, addr, ns string) wire.StoreInfo {
	t.Helper()
	info, err := dialNode(t, addr).StoreInfo(ns)
	if err != nil {
		t.Fatalf("StoreInfo(%s) on %s: %v", ns, addr, err)
	}
	return info
}

func nodeRows(t *testing.T, addr, ns string) []storage.EncRow {
	t.Helper()
	return dialNode(t, addr).WithStore(ns).Rows()
}

func sameRows(a, b []storage.EncRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].TupleCT, b[i].TupleCT) ||
			!bytes.Equal(a[i].AttrCT, b[i].AttrCT) || !bytes.Equal(a[i].Token, b[i].Token) {
			return false
		}
	}
	return true
}

func intRelation(n int) *relation.Relation {
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		rel.MustInsert(relation.Int(int64(i)))
	}
	return rel
}

// populateNode loads the plain partition and uploads rows [0, encRows)
// through a direct connection, claiming the namespace with tok.
func populateNode(t *testing.T, addr, ns string, tok []byte, encRows int) {
	t.Helper()
	sc := dialNode(t, addr).WithStore(ns)
	sc.SetAdminToken(tok)
	if err := sc.Load(intRelation(10), "K"); err != nil {
		t.Fatalf("load on %s: %v", addr, err)
	}
	appendRows(t, sc, 0, encRows)
}

// appendRows uploads deterministic rows [start, start+n) and flushes.
func appendRows(t *testing.T, sc *wire.StoreClient, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if addr := sc.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
}

func testRow(i int) storage.EncRow {
	return storage.EncRow{
		TupleCT: []byte(fmt.Sprintf("tuple-%d", i)),
		AttrCT:  []byte(fmt.Sprintf("attr-%d", i)),
		Token:   []byte{byte(i % 3)},
	}
}

// TestCoordinatorHealthFlips: liveness changes bump the directory
// version, each flip exactly once, and the conditional blob fetch sees
// them.
func TestCoordinatorHealthFlips(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	co.HealthCheckOnce()
	if v := co.Directory().Version; v != 1 {
		t.Fatalf("healthy sweep bumped version to %d", v)
	}

	b.kill()
	co.HealthCheckOnce()
	dir := co.Directory()
	if dir.Version != 2 {
		t.Fatalf("version after node death = %d, want 2", dir.Version)
	}
	for _, n := range dir.Nodes {
		if want := n.Addr != b.addr; n.Alive != want {
			t.Fatalf("node %s alive = %v, want %v", n.ID, n.Alive, want)
		}
	}
	// Conditional fetch: stale version gets the blob, current does not.
	if blob, ver, changed := co.DirectoryBlob(1); !changed || ver != 2 || len(blob) == 0 {
		t.Fatalf("stale conditional fetch = (%d bytes, %d, %v)", len(blob), ver, changed)
	}
	if blob, ver, changed := co.DirectoryBlob(2); changed || ver != 2 || blob != nil {
		t.Fatalf("current conditional fetch = (%v, %d, %v)", blob, ver, changed)
	}

	b.restartEmpty()
	co.HealthCheckOnce()
	dir = co.Directory()
	if dir.Version != 3 {
		t.Fatalf("version after rejoin = %d, want 3", dir.Version)
	}
	for _, n := range dir.Nodes {
		if !n.Alive {
			t.Fatalf("node %s still dead after rejoin", n.ID)
		}
	}
}

// TestCoordinatorRepairTail: a replica whose encrypted rows lag behind an
// otherwise identical peer is caught up with a tail append, not a full
// snapshot.
func TestCoordinatorRepairTail(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	populateNode(t, a.addr, ns, tok, 5)
	populateNode(t, b.addr, ns, tok, 5)
	// Three more rows land only on a: b is now a strict prefix.
	sc := dialNode(t, a.addr).WithStore(ns)
	sc.SetAdminToken(tok)
	appendRows(t, sc, 5, 3)

	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	st := co.RepairOnce()
	if st.Tails != 1 || st.Snapshots != 0 || st.Rows != 3 {
		t.Fatalf("repair stats = %+v, want one 3-row tail", st)
	}
	if got := nodeInfo(t, b.addr, ns); got.EncRows != 8 {
		t.Fatalf("lagging replica has %d rows after repair, want 8", got.EncRows)
	}
	if !sameRows(nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)) {
		t.Fatal("replicas diverge after tail repair")
	}
	// A second sweep must find nothing to do.
	if st := co.RepairOnce(); st.Tails+st.Snapshots != 0 {
		t.Fatalf("second sweep repaired again: %+v", st)
	}
}

// TestCoordinatorRepairSnapshot: a replica missing the namespace entirely
// receives a full snapshot, including the plain partition and the claim.
func TestCoordinatorRepairSnapshot(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	populateNode(t, a.addr, ns, tok, 6)

	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	st := co.RepairOnce()
	if st.Snapshots != 1 || st.Tails != 0 {
		t.Fatalf("repair stats = %+v, want one snapshot", st)
	}
	src, got := nodeInfo(t, a.addr, ns), nodeInfo(t, b.addr, ns)
	if !got.Exists || got.EncRows != src.EncRows || got.PlainTuples != src.PlainTuples || got.Claimed != src.Claimed {
		t.Fatalf("restored replica %+v != source %+v", got, src)
	}
	if !sameRows(nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)) {
		t.Fatal("replicas diverge after snapshot repair")
	}
	// The claim travelled with the snapshot.
	if _, err := dialNode(t, b.addr).AdminStats(ns, tok); err != nil {
		t.Fatalf("owner token refused on restored replica: %v", err)
	}
	if st := co.RepairOnce(); st.Tails+st.Snapshots != 0 {
		t.Fatalf("second sweep repaired again: %+v", st)
	}
}

// startCoordinatorCloud serves co's directory over the wire like qbring
// does, and returns the coordinator address.
func startCoordinatorCloud(t *testing.T, co *Coordinator) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewCloud()
	srv.SetRingDirectory(co.DirectoryBlob)
	srv.SetRingRepair(func(ns string) error {
		co.RepairNamespace(ns)
		return nil
	})
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	return lis.Addr().String()
}

// TestRouterReplicationFailoverRepair walks the full node-loss story on a
// live two-node ring: fan-out parity, read failover off a killed
// preferred replica, quarantined writes under degraded replication,
// snapshot repair of the empty rejoiner, and readmission back to full
// fan-out — ending with byte-identical replicas.
func TestRouterReplicationFailoverRepair(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	nodes := map[string]*testNode{a.addr: a, b.addr: b}
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	coAddr := startCoordinatorCloud(t, co)

	router, err := DialRouter(coAddr, RouterOptions{DownCooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	rs := router.WithStore(ns)
	rs.SetAdminToken(tok)
	if got := rs.Placement(); len(got) != 2 {
		t.Fatalf("placement = %v, want both nodes", got)
	}

	// Phase 1: writes through the router land on BOTH replicas.
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr := range nodes {
		if info := nodeInfo(t, addr, ns); !info.Exists || info.EncRows != 5 || info.PlainTuples != 10 {
			t.Fatalf("replica %s after fan-out: %+v", addr, info)
		}
	}
	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search = %d tuples, want 1", len(got))
	}

	// Phase 2: kill the preferred replica; reads must fail over without
	// surfacing an owner-visible error, writes must keep committing on the
	// survivor with the dead node quarantined.
	pref := rs.Placement()[0].Addr
	t.Logf("killing preferred replica %s", pref)
	nodes[pref].kill()

	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search after node kill = %d tuples, want 1", len(got))
	}
	if n := rs.LogicalErrCount(); n != 0 {
		t.Fatalf("masked failover leaked %d logical errors", n)
	}
	for i := 5; i < 7; i++ {
		if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("degraded Add row %d: addr = %d", i, addr)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatalf("degraded flush: %v", err)
	}
	inSync := rs.InSync()
	for i, n := range rs.Placement() {
		if want := n.Addr != pref; inSync[i] != want {
			t.Fatalf("inSync[%s] = %v, want %v", n.Addr, inSync[i], want)
		}
	}

	// Phase 3: the dead node rejoins EMPTY on the same address; one repair
	// sweep rebuilds it from the survivor via snapshot.
	nodes[pref].restartEmpty()
	st := co.RepairOnce()
	if st.Snapshots != 1 {
		t.Fatalf("rejoin repair stats = %+v, want one snapshot", st)
	}
	if got := nodeInfo(t, pref, ns); got.EncRows != 7 {
		t.Fatalf("rejoined replica has %d rows, want 7", got.EncRows)
	}

	// Phase 4: the next settled flush readmits the repaired replica, and
	// subsequent writes fan out to both again.
	time.Sleep(60 * time.Millisecond) // let the down-cooldown lapse
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ok := range rs.InSync() {
		if !ok {
			t.Fatalf("replica %d not readmitted after repair: %v", i, rs.InSync())
		}
	}
	if addr := rs.Add(testRow(7).TupleCT, testRow(7).AttrCT, testRow(7).Token); addr != 7 {
		t.Fatalf("post-readmission Add: addr = %d", addr)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	rowsA, rowsB := nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)
	if len(rowsA) != 8 || !sameRows(rowsA, rowsB) {
		t.Fatalf("replicas diverge after full cycle: %d vs %d rows", len(rowsA), len(rowsB))
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("view transport error with both replicas live: %v", err)
	}
}

// TestReplicatedLogicalErrIsLatest: LogicalErr reports the most recent
// op that failed on every replica, not the first one ever — an owner
// bracketing a later failure with LogicalErrCount must see that failure's
// cause, not an outage that has long since healed.
func TestReplicatedLogicalErrIsLatest(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := router.WithStore("data")
	probe := []relation.Value{relation.Int(1)}

	// First failure: every replica is unreachable.
	a.kill()
	b.kill()
	if got := rs.Search(probe); got != nil {
		t.Fatalf("Search with every node down = %v", got)
	}
	if n := rs.LogicalErrCount(); n != 1 {
		t.Fatalf("LogicalErrCount after outage = %d, want 1", n)
	}
	outage := rs.LogicalErr()
	if outage == nil || strings.Contains(outage.Error(), "no relation loaded") {
		t.Fatalf("outage cause = %v", outage)
	}

	// Second failure, different cause: the nodes are back (empty), and
	// every replica refuses the read logically.
	a.restartEmpty()
	b.restartEmpty()
	time.Sleep(20 * time.Millisecond) // let the down-cooldown lapse
	if got := rs.Search(probe); got != nil {
		t.Fatalf("Search on empty replicas = %v", got)
	}
	if n := rs.LogicalErrCount(); n != 2 {
		t.Fatalf("LogicalErrCount after refusal = %d, want 2", n)
	}
	if err := rs.LogicalErr(); err == nil || !strings.Contains(err.Error(), "no relation loaded") {
		t.Fatalf("LogicalErr = %v, want the latest cause (no relation loaded); outage was %v", err, outage)
	}
}

// TestReplicatedReadsFailOver: every read op of the replicated view, not
// only Search, answers from the surviving replica with the same result
// once the preferred replica dies, and none of the masked failures
// reaches the view's logical-error record.
func TestReplicatedReadsFailOver(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	nodes := map[string]*testNode{a.addr: a, b.addr: b}
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	rs := router.WithStore(ns)
	rs.SetAdminToken(wire.OwnerToken([]byte("master"), ns))
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Insert(relation.Tuple{ID: 10, Values: []relation.Value{relation.Int(4)}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}

	// reads runs every read op once; epochs are per store instance, so
	// only the version's row count is compared across replicas.
	reads := func() map[string]any {
		out := map[string]any{
			"Search":      relation.IDs(rs.Search([]relation.Value{relation.Int(4)})),
			"SearchRange": relation.IDs(rs.SearchRange(relation.Int(2), relation.Int(5))),
			"Len":         rs.Len(),
			"AttrColumn":  rs.AttrColumn(),
			"LookupToken": rs.LookupToken(testRow(1).Token),
			"Rows":        rs.Rows(),
		}
		check := func(op string, v any, err error) {
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			out[op] = v
		}
		rows, err := rs.Fetch([]int{1, 4})
		check("Fetch", rows, err)
		batches, err := rs.FetchBatch([][]int{{0}, {2, 5}})
		check("FetchBatch", batches, err)
		ver, err := rs.EncVersion()
		check("EncVersion.N", ver.N, err)
		col, _, delta, err := rs.AttrColumnSince(storage.EncVersion{}, 0)
		check("AttrColumnSince", []any{col, delta}, err)
		full, _, delta, err := rs.RowsSince(storage.EncVersion{}, 0)
		check("RowsSince", []any{full, delta}, err)
		return out
	}
	want := reads()
	if got := want["Search"].([]int); len(got) != 2 {
		t.Fatalf("Search before failover = %v, want the loaded and the inserted tuple", got)
	}

	nodes[rs.Placement()[0].Addr].kill()
	if err := rs.Ping(); err != nil {
		t.Fatalf("Ping with one replica left: %v", err)
	}
	got := reads()
	for op, w := range want {
		if !reflect.DeepEqual(got[op], w) {
			t.Errorf("%s after failover = %v, want %v", op, got[op], w)
		}
	}
	if n := rs.LogicalErrCount(); n != 0 {
		t.Fatalf("masked failover leaked %d logical errors: %v", n, rs.LogicalErr())
	}
}
