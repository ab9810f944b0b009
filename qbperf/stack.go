package main

import (
	"fmt"
	mrand "math/rand/v2"
	"net"
	"sync/atomic"

	"repro"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/technique"
	"repro/internal/wire"
	"repro/internal/workload"
)

// stack is one tenant's owner: the operations the workloads issue.
type stack interface {
	Outsource(r *relation.Relation, sensitive func(relation.Tuple) bool) error
	Query(w relation.Value) ([]relation.Tuple, error)
	QueryBatch(ws []relation.Value) ([][]relation.Tuple, error)
	Insert(t relation.Tuple, sensitive bool) error
	AdversarialViews() []cloud.View
	Close() error
}

// stackConfig is what both stack kinds are built from.
type stackConfig struct {
	key        []byte
	store      string
	seed       uint64 // bin permutation
	cacheBytes int    // 0 = library default
	cloudAddr  string // single node
	ringAddr   string // or a qbring coordinator
}

// newClientStack builds the untraced stack: the public repro.Client.
func newClientStack(sc stackConfig) (*repro.Client, error) {
	seed := sc.seed
	return repro.NewClient(repro.Config{
		MasterKey:  sc.key,
		Attr:       workload.Attr,
		Technique:  repro.TechNoInd,
		Seed:       &seed,
		CloudAddr:  sc.cloudAddr,
		Ring:       sc.ringAddr,
		CacheBytes: sc.cacheBytes,
		Store:      sc.store,
	})
}

var _ stack = (*repro.Client)(nil)

// tracedStack composes the same layers repro.Client composes for a
// remote NoInd client, with a timing wrapper at each interface between
// them: the owner.Owner calls here, technique.Technique in tracedTech,
// wire.Backend in tracedBackend, and the client's net.Conn in
// countingConn.
type tracedStack struct {
	rec       *recorder
	transport wire.Transport
	backend   *tracedBackend
	tech      *tracedTech
	owner     *owner.Owner
	binOpts   core.Options
	connBytes atomic.Int64

	// per-query composition, totalled from owner.QueryStats
	resultTuples, fetchedTuples, fakeTuples atomic.Int64
}

func newTracedStack(sc stackConfig, rec *recorder) (*tracedStack, error) {
	ts := &tracedStack{rec: rec}
	dial := func(addr string) (*wire.Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		return wire.NewClient(countingConn{Conn: conn, n: &ts.connBytes}), nil
	}
	if sc.ringAddr != "" {
		dirConn, err := wire.Dial(sc.ringAddr)
		if err != nil {
			return nil, err
		}
		r, err := ring.NewRouter(dirConn, dial, ring.RouterOptions{})
		if err != nil {
			dirConn.Close()
			return nil, err
		}
		ts.transport = r
	} else {
		c, err := dial(sc.cloudAddr)
		if err != nil {
			return nil, err
		}
		ts.transport = c
	}
	remote := ts.transport.Store(sc.store)
	remote.SetAdminToken(wire.OwnerToken(sc.key, sc.store))
	ts.backend = &tracedBackend{Backend: remote, rec: rec}
	noind, err := technique.NewNoIndOn(crypto.DeriveKeys(sc.key), ts.backend)
	if err != nil {
		ts.transport.Close()
		return nil, err
	}
	noind.SetCache(technique.NewCache(sc.cacheBytes))
	ts.tech = &tracedTech{Technique: noind, rec: rec}
	ts.owner = owner.New(ts.tech, workload.Attr)
	ts.owner.SetCloudBackend(ts.backend)
	// The same seeded permutation repro.Client derives from Config.Seed.
	ts.binOpts = core.Options{Rand: mrand.New(mrand.NewPCG(sc.seed, sc.seed^0x6a09e667f3bcc908))}
	return ts, nil
}

var _ stack = (*tracedStack)(nil)

// remoteErr surfaces failures the backend's void methods swallowed since
// the before snapshot, as repro.Client does.
func (s *tracedStack) remoteErr(before uint64, err error) error {
	if err != nil {
		return err
	}
	if err := s.backend.Err(); err != nil {
		return err
	}
	if s.backend.LogicalErrCount() != before {
		return s.backend.LogicalErr()
	}
	return nil
}

func (s *tracedStack) Outsource(r *relation.Relation, sensitive func(relation.Tuple) bool) error {
	defer s.rec.begin(levelOp, levelOp, "op.outsource")()
	done := s.rec.begin(levelOwner, levelOp, "owner.outsource")
	err := s.owner.Outsource(r, sensitive, s.binOpts)
	done()
	if err != nil {
		return err
	}
	return s.backend.Flush()
}

func (s *tracedStack) Query(w relation.Value) ([]relation.Tuple, error) {
	defer s.rec.begin(levelOp, levelOp, "op.query")()
	before := s.backend.LogicalErrCount()
	done := s.rec.begin(levelOwner, levelOp, "owner.query")
	ts, st, err := s.owner.Query(w)
	done()
	if err == nil {
		s.noteQuery(st)
	}
	return ts, s.remoteErr(before, err)
}

func (s *tracedStack) QueryBatch(ws []relation.Value) ([][]relation.Tuple, error) {
	defer s.rec.begin(levelOp, levelOp, "op.query_batch")()
	before := s.backend.LogicalErrCount()
	done := s.rec.begin(levelOwner, levelOp, "owner.query_batch")
	out, sts, err := s.owner.QueryBatch(ws, 0)
	done()
	if err == nil {
		for _, st := range sts {
			s.noteQuery(st)
		}
	}
	return out, s.remoteErr(before, err)
}

func (s *tracedStack) noteQuery(st *owner.QueryStats) {
	if st == nil {
		return
	}
	enc := len(st.Enc.ReturnedAddrs)
	s.resultTuples.Add(int64(st.Result))
	s.fetchedTuples.Add(int64(st.PlainTuples + enc))
	s.fakeTuples.Add(int64(st.FakeDiscarded))
}

// layerCounts are a traced stack's cumulative layer counters.
type layerCounts struct {
	tech                              techTotals
	connBytes, result, fetched, fakes int64
}

func (s *tracedStack) counts() layerCounts {
	return layerCounts{
		tech:      s.tech.counts.get(),
		connBytes: s.connBytes.Load(),
		result:    s.resultTuples.Load(),
		fetched:   s.fetchedTuples.Load(),
		fakes:     s.fakeTuples.Load(),
	}
}

// addDelta adds the growth from before to after, to total several
// stacks' windows.
func (a layerCounts) addDelta(after, before layerCounts) layerCounts {
	a.tech.encOps += after.tech.encOps - before.tech.encOps
	a.tech.hits += after.tech.hits - before.tech.hits
	a.tech.misses += after.tech.misses - before.tech.misses
	a.tech.bytesSaved += after.tech.bytesSaved - before.tech.bytesSaved
	a.connBytes += after.connBytes - before.connBytes
	a.result += after.result - before.result
	a.fetched += after.fetched - before.fetched
	a.fakes += after.fakes - before.fakes
	return a
}

func (s *tracedStack) Insert(t relation.Tuple, sensitive bool) error {
	defer s.rec.begin(levelOp, levelOp, "op.insert")()
	done := s.rec.begin(levelOwner, levelOp, "owner.insert")
	err := s.owner.Insert(t, sensitive)
	done()
	if err != nil {
		return err
	}
	return s.backend.Flush()
}

func (s *tracedStack) AdversarialViews() []cloud.View {
	if s.owner.Server() == nil {
		return nil
	}
	return s.owner.Server().Views()
}

func (s *tracedStack) Close() error { return s.transport.Close() }
