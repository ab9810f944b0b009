package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/loadgen"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Dataset shape of every tenant (see README.md).
const (
	tenantTuples = 20000
	tenantValues = 400
	tenantAlpha  = 0.4
	tenantAssoc  = 0.5
	queryZipfS   = 1.2
)

// tenant is one owner's relation, its reference answers and the stack
// serving it.
type tenant struct {
	name  string
	key   []byte
	seed  uint64
	ds    *workload.Dataset
	arity int

	values []loadgen.ValueInfo
	want   map[relation.Value][]relation.Tuple // reference answer per value, by ID

	// Per-value write accounting for the mixed workloads: a read must
	// see every write acknowledged before it was issued and may see any
	// write issued so far.
	writes map[relation.Value]*writeState
	nextID atomic.Int64

	stack stack
	sc    stackConfig // how stack was built
	check *checker
}

type writeState struct {
	issued, acked atomic.Int64
}

// newTenant generates tenant i's relation of the given size from the
// run's seed.
func newTenant(i int, seed uint64, tuples, values int) (*tenant, error) {
	tseed := seed*1000003 + uint64(i)*1009
	ds, err := workload.Generate(workload.GenSpec{
		Name:           fmt.Sprintf("T%02d", i),
		Tuples:         tuples,
		DistinctValues: values,
		Alpha:          tenantAlpha,
		AssocFraction:  tenantAssoc,
		ExtraColumns:   1,
		Seed:           int64(tseed),
	})
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name:   fmt.Sprintf("t%02d", i),
		key:    []byte(fmt.Sprintf("qbperf tenant %02d seed %d", i, seed)),
		seed:   tseed,
		ds:     ds,
		arity:  ds.Relation.Schema.Arity(),
		want:   make(map[relation.Value][]relation.Tuple, len(ds.Values)),
		writes: make(map[relation.Value]*writeState, len(ds.Values)),
	}
	plain := make(map[relation.Value]int, len(ds.Values))
	sens := make(map[relation.Value]int, len(ds.Values))
	for _, tup := range ds.Relation.Tuples {
		v := tup.Values[0]
		t.want[v] = append(t.want[v], tup)
		if ds.SensitiveIDs[tup.ID] {
			sens[v]++
		} else {
			plain[v]++
		}
	}
	for _, v := range ds.Values {
		t.values = append(t.values, loadgen.ValueInfo{Value: v, Plain: plain[v], Sens: sens[v]})
	}
	t.reset()
	return t, nil
}

// reset clears the write accounting for a freshly outsourced copy.
func (t *tenant) reset() {
	for _, v := range t.ds.Values {
		t.writes[v] = &writeState{}
	}
	t.nextID.Store(int64(len(t.ds.Relation.Tuples) + 1_000_000))
	t.check = &checker{}
}

// checker counts failed answers and keeps the first one verbatim.
type checker struct {
	failed atomic.Int64
	mu     sync.Mutex
	first  string
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	c.mu.Unlock()
}

func (c *checker) firstFailure() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// checkExact compares a read-only answer with the generated relation:
// the same tuples, value for value.
func (t *tenant) checkExact(w relation.Value, got []relation.Tuple) bool {
	want := t.want[w]
	if len(got) != len(want) {
		t.check.fail("tenant %s: Query(%v) returned %d tuples, want %d", t.name, w, len(got), len(want))
		return false
	}
	got = slices.Clone(got)
	slices.SortFunc(got, func(a, b relation.Tuple) int { return a.ID - b.ID })
	for i := range got {
		if got[i].ID != want[i].ID || !slices.EqualFunc(got[i].Values, want[i].Values, relation.Value.Equal) {
			t.check.fail("tenant %s: Query(%v) tuple %d differs from the relation", t.name, w, got[i].ID)
			return false
		}
	}
	return true
}

// checkBounded checks a read under concurrent inserts: the answer size
// lies in [base+acked, base+issued], where acked was read before the
// query was issued, and every tuple carries the queried value.
func (t *tenant) checkBounded(w relation.Value, ackedBefore int64, got []relation.Tuple) bool {
	base := int64(len(t.want[w]))
	hi := base + t.writes[w].issued.Load()
	if n := int64(len(got)); n < base+ackedBefore || n > hi {
		t.check.fail("tenant %s: Query(%v) returned %d tuples, want within [%d, %d]",
			t.name, w, n, base+ackedBefore, hi)
		return false
	}
	for _, tup := range got {
		if !tup.Values[0].Equal(w) {
			t.check.fail("tenant %s: Query(%v) returned tuple %d with value %v", t.name, w, tup.ID, tup.Values[0])
			return false
		}
	}
	return true
}

// newInsert builds the next fresh tuple carrying w.
func (t *tenant) newInsert(w relation.Value) relation.Tuple {
	id := int(t.nextID.Add(1))
	vals := make([]relation.Value, t.arity)
	vals[0] = w
	for i := 1; i < t.arity; i++ {
		vals[i] = relation.Int(int64(id))
	}
	return relation.Tuple{ID: id, Values: vals}
}

// checkViews runs the size attack over the tenant's adversarial views:
// under QB's padding every sensitive-side result has the same size.
func (t *tenant) checkViews() bool {
	res := adversary.SizeAttack(t.stack.AdversarialViews())
	if res.Distinguishable {
		t.check.fail("tenant %s: size attack distinguishes bins (group sizes %v)", t.name, res.GroupSizes)
		return false
	}
	return true
}
