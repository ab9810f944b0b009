package wire

import (
	"bytes"
	"encoding/gob"
	mrand "math/rand/v2"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/workload"
)

// TestSnapshotRoundTrip outsources through a cloud, snapshots it, restores
// into a fresh cloud, and verifies queries still answer correctly — the
// persistence path of cmd/qbcloud.
func TestSnapshotRoundTrip(t *testing.T) {
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis1.Close()
	cloud1 := NewCloud()
	go func() { _ = cloud1.Serve(lis1) }()

	client1, err := Dial(lis1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client1.Close()
	store1 := client1.WithStore(DefaultStore)

	ks := crypto.DeriveKeys([]byte("snapshot"))
	tech, err := technique.NewNoIndOn(ks, store1)
	if err != nil {
		t.Fatal(err)
	}
	o := owner.New(tech, "EId")
	o.SetCloudBackend(store1)
	emp := workload.Employee()
	opts := core.Options{Rand: mrand.New(mrand.NewPCG(5, 6))}
	if err := o.Outsource(emp.Clone(), workload.EmployeeSensitive, opts); err != nil {
		t.Fatal(err)
	}
	if err := store1.Flush(); err != nil {
		t.Fatal(err)
	}

	// Snapshot cloud1 and restore into cloud2.
	var buf bytes.Buffer
	if err := cloud1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cloud2 := NewCloud()
	if err := cloud2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis2.Close()
	go func() { _ = cloud2.Serve(lis2) }()
	client2, err := Dial(lis2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	store2 := client2.WithStore(DefaultStore)

	// A new owner session (same keys and bin seed) against the restored
	// cloud: rebuild owner-side metadata by re-deriving from the original
	// relation but point both backends at cloud2.
	tech2, err := technique.NewNoIndOn(ks, &restoredStore{store2})
	if err != nil {
		t.Fatal(err)
	}
	o2 := owner.New(tech2, "EId")
	// Owner metadata (bins, counts) is reconstructed from the relation;
	// the cloud stores are NOT re-uploaded: the restored plain store must
	// already answer.
	got := store2.Search([]relation.Value{relation.Str("E259")})
	if len(got) != 1 {
		t.Fatalf("restored plain store returned %d tuples for E259, want 1", len(got))
	}
	if n := store2.Len(); n != cloud1Len(t, store1) {
		t.Fatalf("restored enc store has %d rows, want %d", n, cloud1Len(t, store1))
	}
	_ = o2

	// End-to-end equality of the encrypted column between original and
	// restored clouds.
	col1 := store1.AttrColumn()
	col2 := store2.AttrColumn()
	if !reflect.DeepEqual(col1, col2) {
		t.Fatal("restored encrypted column differs")
	}
}

func cloud1Len(t *testing.T, c *StoreClient) int {
	t.Helper()
	n := c.Len()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// restoredStore wraps a client without the upload buffer semantics (reads
// only).
type restoredStore struct{ *StoreClient }

// TestSnapshotMultiStoreRoundTrip: a cloud hosting several namespaces
// persists and restores all of them, with plain and encrypted sides
// isolated per store.
func TestSnapshotMultiStoreRoundTrip(t *testing.T) {
	c1 := NewCloud()
	for i, name := range []string{"hr", "finance"} {
		st := c1.stores.GetOrCreate(name)
		st.Enc().Add([]byte(name+"-ct"), nil, []byte("tok"))
		rel := relation.New(relation.MustSchema("T",
			relation.Column{Name: "K", Kind: relation.KindInt},
		))
		for j := 0; j <= i; j++ {
			rel.MustInsert(relation.Int(int64(j)))
		}
		ps, err := storage.NewPlainStore(rel, "K")
		if err != nil {
			t.Fatal(err)
		}
		st.SetPlain(ps)
	}
	// An enc-only namespace (no relation loaded yet).
	c1.stores.GetOrCreate("staging").Enc().Add([]byte("s-ct"), nil, nil)

	var buf bytes.Buffer
	if err := c1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCloud()
	if err := c2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := c2.StoreNames(); !reflect.DeepEqual(got, []string{"finance", "hr", "staging"}) {
		t.Fatalf("restored namespaces = %v", got)
	}
	for i, name := range []string{"hr", "finance"} {
		st, ok := c2.stores.Get(name)
		if !ok {
			t.Fatalf("namespace %q lost", name)
		}
		rows := st.Enc().Rows()
		if len(rows) != 1 || string(rows[0].TupleCT) != name+"-ct" {
			t.Fatalf("%s enc rows = %v", name, rows)
		}
		if got := st.Enc().LookupToken([]byte("tok")); len(got) != 1 {
			t.Fatalf("%s token index not rebuilt: %v", name, got)
		}
		if ps := st.Plain(); ps == nil || ps.Len() != i+1 {
			t.Fatalf("%s plain store = %v", name, ps)
		}
	}
	if st, _ := c2.stores.Get("staging"); st.Plain() != nil || st.Enc().Len() != 1 {
		t.Fatal("enc-only namespace restored wrong")
	}
}

// TestRestoreLegacySnapshot: a pre-namespace state file (no Version
// field, single implicit store) restores into DefaultStore, so qbcloud
// upgrades keep their data.
func TestRestoreLegacySnapshot(t *testing.T) {
	// The v1 snapshot layout, gob-encoded exactly as PR 2/3 wrote it.
	type legacySnapshot struct {
		HasPlain bool
		Schema   relation.Schema
		Tuples   []relation.Tuple
		Attr     string
		Enc      []storage.EncRow
	}
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	rel.MustInsert(relation.Int(7))
	legacy := legacySnapshot{
		HasPlain: true,
		Schema:   rel.Schema,
		Tuples:   rel.Tuples,
		Attr:     "K",
		Enc:      []storage.EncRow{{Addr: 0, TupleCT: []byte("old-ct"), Token: []byte("t")}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}

	c := NewCloud()
	if err := c.Restore(&buf); err != nil {
		t.Fatalf("legacy snapshot refused: %v", err)
	}
	st, ok := c.stores.Get(DefaultStore)
	if !ok {
		t.Fatalf("legacy data not in DefaultStore; namespaces = %v", c.StoreNames())
	}
	if st.Plain() == nil || st.Plain().Len() != 1 {
		t.Fatal("legacy plain relation lost")
	}
	rows := st.Enc().Rows()
	if len(rows) != 1 || string(rows[0].TupleCT) != "old-ct" {
		t.Fatalf("legacy enc rows = %v", rows)
	}
}

// TestRestoreFailureLeavesStateIntact: a snapshot that gob-decodes but
// contains an invalid store must not destroy the cloud's live state —
// the failed Restore is a no-op, as it was pre-namespaces.
func TestRestoreFailureLeavesStateIntact(t *testing.T) {
	c := NewCloud()
	c.stores.GetOrCreate("live").Enc().Add([]byte("precious"), nil, nil)

	bad := snapshot{Version: ProtocolVersion, Stores: []storeSnapshot{{
		Name:     "bad",
		HasPlain: true,
		Schema:   relation.MustSchema("T", relation.Column{Name: "K", Kind: relation.KindInt}),
		Attr:     "Nonexistent", // NewPlainStore fails: no such column
	}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(&buf); err == nil {
		t.Fatal("invalid snapshot accepted")
	}
	st, ok := c.stores.Get("live")
	if !ok || st.Enc().Len() != 1 {
		t.Fatalf("failed restore destroyed live state: namespaces = %v", c.StoreNames())
	}
	if _, ok := c.stores.Get("bad"); ok {
		t.Fatal("failed restore left a partial store behind")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	c := NewCloud()
	if err := c.Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestSnapshotEmptyCloud(t *testing.T) {
	c := NewCloud()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCloud()
	if err := c2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
}
