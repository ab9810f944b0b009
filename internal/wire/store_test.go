package wire

import (
	"encoding/gob"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

// startCloudListener runs a cloud on a loopback listener and returns the
// cloud and its address.
func startCloudListener(t *testing.T) (*Cloud, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCloud()
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	return cl, lis.Addr().String()
}

// TestHelloRejectsLegacyClient: a pre-namespace (v1) client never sends
// opHello; its first op must be answered with an explicit
// version-mismatch error — not executed, not a corrupted frame — and the
// connection closed.
func TestHelloRejectsLegacyClient(t *testing.T) {
	_, addr := startCloudListener(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)

	// A v1 client's opening frame: some real op, no handshake.
	if err := enc.Encode(&request{ID: 7, Op: opEncLen}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no explicit refusal frame: %v", err)
	}
	if resp.ID != 7 {
		t.Fatalf("refusal answers ID %d, want 7", resp.ID)
	}
	if !strings.Contains(resp.Err, "protocol version mismatch") {
		t.Fatalf("refusal error = %q, want a version-mismatch message", resp.Err)
	}
	// The server hangs up after refusing: the next decode observes EOF,
	// not another frame.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := dec.Decode(&resp); err == nil {
		t.Fatal("server kept serving a pre-handshake connection")
	}
}

// TestHelloRejectsVersionSkew: an opHello carrying the wrong version is
// refused explicitly with both versions named.
func TestHelloRejectsVersionSkew(t *testing.T) {
	_, addr := startCloudListener(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&request{ID: 1, Op: opHello, Version: ProtocolVersion + 5}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "version mismatch") || resp.Version != ProtocolVersion {
		t.Fatalf("skewed hello answered %+v", resp)
	}
}

// TestClientRejectsLegacyServer: a client handshaking with a v1 server
// (which answers opHello with "unknown op") must poison itself with an
// explicit version-mismatch error instead of proceeding.
func TestClientRejectsLegacyServer(t *testing.T) {
	cend, send := net.Pipe()
	c := NewClient(cend)
	t.Cleanup(func() { c.Close(); send.Close() })
	go func() {
		dec, enc := gob.NewDecoder(send), gob.NewEncoder(send)
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		// What the v1 dispatch switch answered for any unknown op.
		_ = enc.Encode(response{ID: req.ID, Err: "wire: unknown op"})
	}()

	err := c.Ping()
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("ping against v1 server = %v, want version-mismatch", err)
	}
	// The mismatch is sticky and explicit for every later call.
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("Err = %v, want sticky version mismatch", err)
	}
	if _, err := c.WithStore(DefaultStore).Fetch([]int{0}); err == nil {
		t.Fatal("fetch proceeded against a version-mismatched server")
	}
}

// TestClientRejectsV2Server: a v3 client handshaking with a v2 server —
// which speaks unframed gob and answers the hello with its own version —
// must fail its first op with an explicit mismatch naming both versions,
// not hang and not attempt framed traffic against a gob peer.
func TestClientRejectsV2Server(t *testing.T) {
	cend, send := net.Pipe()
	c := NewClient(cend)
	t.Cleanup(func() { c.Close(); send.Close() })
	go func() {
		// A v2 server: plain gob both ways, never switches to frames.
		dec, enc := gob.NewDecoder(send), gob.NewEncoder(send)
		for {
			var req request
			if err := dec.Decode(&req); err != nil {
				return
			}
			resp := response{ID: req.ID}
			if req.Op == opHello {
				resp.Version = ProtocolVersion - 1
			}
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
	}()

	err := c.Ping()
	if err == nil || !strings.Contains(err.Error(), "version mismatch") ||
		!strings.Contains(err.Error(), fmt.Sprintf("v%d", ProtocolVersion-1)) {
		t.Fatalf("ping against v2 server = %v, want explicit version mismatch", err)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("Err = %v, want sticky version mismatch", err)
	}
}

// TestPingCreatesNoStore: store-less ops (the handshake, Ping) must not
// materialise a phantom "default" namespace in the registry, the stats
// or the next snapshot.
func TestPingCreatesNoStore(t *testing.T) {
	cl, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if names := cl.StoreNames(); len(names) != 0 {
		t.Fatalf("ping materialised namespaces %v", names)
	}
	if stats := cl.Stats(); len(stats) != 0 {
		t.Fatalf("ping materialised stats %v", stats)
	}
}

// TestStoreNamespacesOverWire: one connection, two namespaces — plain
// relations, encrypted rows, tokens and address spaces must all be fully
// isolated, and the default-store methods must alias WithStore(DefaultStore).
func TestStoreNamespacesOverWire(t *testing.T) {
	cl, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hr := c.WithStore("hr")
	fin := c.WithStore("finance")

	// Independent address spaces from row zero.
	if a := hr.Add([]byte("hr-0"), []byte("a"), []byte("tok")); a != 0 {
		t.Fatalf("hr first addr = %d", a)
	}
	if a := fin.Add([]byte("fin-0"), []byte("b"), []byte("tok")); a != 0 {
		t.Fatalf("finance first addr = %d", a)
	}
	if a := hr.Add([]byte("hr-1"), nil, nil); a != 1 {
		t.Fatalf("hr second addr = %d", a)
	}
	if err := hr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fin.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, m := hr.Len(), fin.Len(); n != 2 || m != 1 {
		t.Fatalf("Len = %d/%d, want 2/1", n, m)
	}
	rows, err := hr.Fetch([]int{0})
	if err != nil || string(rows[0].TupleCT) != "hr-0" {
		t.Fatalf("hr fetch = %v, %v", rows, err)
	}
	rows, err = fin.Fetch([]int{0})
	if err != nil || string(rows[0].TupleCT) != "fin-0" {
		t.Fatalf("finance fetch = %v, %v", rows, err)
	}
	// Same token bytes, disjoint indexes.
	if got := hr.LookupToken([]byte("tok")); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("hr token = %v", got)
	}
	if got := fin.LookupToken([]byte("tok")); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("finance token = %v", got)
	}

	// Plain relations are per-namespace too.
	mkRel := func(vals ...int64) *relation.Relation {
		rel := relation.New(relation.MustSchema("T",
			relation.Column{Name: "K", Kind: relation.KindInt},
		))
		for _, v := range vals {
			rel.MustInsert(relation.Int(v))
		}
		return rel
	}
	if err := hr.Load(mkRel(1, 2), "K"); err != nil {
		t.Fatal(err)
	}
	if got := hr.Search([]relation.Value{relation.Int(1)}); len(got) != 1 {
		t.Fatalf("hr search = %v", got)
	}
	// finance has no relation loaded: logical error, scoped to finance.
	if got := fin.Search([]relation.Value{relation.Int(1)}); got != nil {
		t.Fatalf("finance search = %v", got)
	}
	if le := c.LogicalErr(); le == nil || !strings.Contains(le.Error(), "finance") {
		t.Fatalf("LogicalErr = %v, want store-qualified no-relation error", le)
	}

	// The default-store surface is WithStore(DefaultStore).
	def := c.WithStore(DefaultStore)
	if c.WithStore("") != def {
		t.Fatal("empty name and DefaultStore yield different views")
	}
	if a := def.Add([]byte("def-0"), nil, nil); a != 0 {
		t.Fatalf("default store first addr = %d", a)
	}
	if err := def.Flush(); err != nil {
		t.Fatal(err)
	}

	// Server-side accounting sees all three namespaces.
	names := cl.StoreNames()
	if !reflect.DeepEqual(names, []string{"default", "finance", "hr"}) {
		t.Fatalf("StoreNames = %v", names)
	}
	stats := cl.Stats()
	if stats["hr"].EncRows != 2 || stats["hr"].PlainTuples != 2 || stats["hr"].Ops == 0 {
		t.Fatalf("hr stats = %+v", stats["hr"])
	}
	if stats["finance"].EncRows != 1 || stats["finance"].PlainTuples != 0 {
		t.Fatalf("finance stats = %+v", stats["finance"])
	}
}

// TestTwoNamespacesConcurrently hammers two namespaces through one
// connection under -race: interleaved writes, reads and per-store loads
// must stay isolated.
func TestTwoNamespacesConcurrently(t *testing.T) {
	_, addr := startCloudListener(t)
	t.Run("conns=1", func(t *testing.T) {
		tr, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })

		var wg sync.WaitGroup
		fail := make(chan error, 16)
		report := func(format string, args ...any) {
			select {
			case fail <- fmt.Errorf(format, args...):
			default:
			}
		}
		for _, ns := range []string{"stress-a", "stress-b"} {
			wg.Add(1)
			go func(ns string) {
				defer wg.Done()
				v := tr.Store(ns)
				base := v.Len()
				for i := 0; i < 40; i++ {
					want := fmt.Sprintf("%s-%d", ns, i)
					addr := v.Add([]byte(want), nil, []byte(ns))
					if addr != base+i {
						report("%s: addr %d, want %d", ns, addr, base+i)
						return
					}
					rows, err := v.Fetch([]int{addr})
					if err != nil || string(rows[0].TupleCT) != want {
						report("%s: fetch(%d) = %v, %v", ns, addr, rows, err)
						return
					}
					if got := v.LookupToken([]byte(ns)); len(got) != i+1 {
						report("%s: token index has %d addrs, want %d", ns, len(got), i+1)
						return
					}
				}
			}(ns)
		}
		wg.Wait()
		close(fail)
		for err := range fail {
			t.Error(err)
		}
	})
}
