package main

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/wire"
)

// serveCloud runs an in-process qbcloud on a loopback port.
func serveCloud(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wire.NewCloud().Serve(lis)
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	return lis.Addr().String()
}

// TestTracedStackMatchesClient drives the public repro.Client and the
// traced stack through the same operations on one seed: the answers and
// the adversarial views must be identical.
func TestTracedStackMatchesClient(t *testing.T) {
	addr := serveCloud(t)
	ten, err := newTenant(0, 7, 2000, 60)
	if err != nil {
		t.Fatal(err)
	}
	build := func(store string, traced bool) stack {
		sc := stackConfig{key: ten.key, store: store, seed: ten.seed, cloudAddr: addr}
		var s stack
		if traced {
			s, err = newTracedStack(sc, newRecorder())
		} else {
			s, err = newClientStack(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if err := s.Outsource(ten.ds.Relation, ten.ds.Sensitive); err != nil {
			t.Fatal(err)
		}
		return s
	}
	client, traced := build("client", false), build("traced", true)

	ops := func(s stack) (answers [][]relation.Tuple) {
		for i, v := range ten.ds.Values {
			got, err := s.Query(v)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, got)
			if i%7 == 0 {
				if err := s.Insert(relation.Tuple{ID: 900000 + i, Values: []relation.Value{v, relation.Int(int64(i))}}, i%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		batch, err := s.QueryBatch(ten.ds.Values[:16])
		if err != nil {
			t.Fatal(err)
		}
		return append(answers, batch...)
	}
	want, got := ops(client), ops(traced)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("traced stack answers differ from repro.Client")
	}
	if !reflect.DeepEqual(traced.AdversarialViews(), client.AdversarialViews()) {
		t.Fatal("traced stack adversarial views differ from repro.Client")
	}
	ts := traced.(*tracedStack)
	if len(ts.rec.snapshot()) == 0 || ts.connBytes.Load() == 0 {
		t.Fatal("traced stack recorded no spans or bytes")
	}
	for _, s := range ts.rec.snapshot() {
		if s.Op == 0 {
			t.Errorf("span %s outside any op", s.Name)
		}
	}
}
