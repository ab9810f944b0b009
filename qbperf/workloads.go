package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro"
)

// spec is one workload. Rates are totals across tenants in ops/s.
type spec struct {
	name     string
	tenants  int
	nodes    int     // qbcloud nodes; 3 adds qbring with R=2
	readFrac float64 // open loop; 1 = read-only
	// batch-scan: closed-loop QueryBatch calls of batchSize values with
	// the owner cache budget below the tenant's encrypted column.
	batchSize  int
	cacheBytes int
	// Open loop: the two fixed rates (below the capacity measured when
	// the benchmark was defined; see README.md) and the ladder's start.
	lowRate, highRate float64
	ladderStart       int
}

// The capacity ladder every open-loop workload searches: ladderRungs
// rates from ladderBase up by ladderStep each.
const (
	ladderBase  = 100.0
	ladderStep  = 1.1
	ladderRungs = 40 // up to ~4,100 ops/s
	// ladderProbes is the capacity search's probe budget; the probes
	// share two thirds of the seconds.
	ladderProbes = 8
)

var specs = []spec{
	{name: "point-read", tenants: 2, nodes: 1, readFrac: 1, lowRate: 300, highRate: 900, ladderStart: 33},
	{name: "write-mix", tenants: 2, nodes: 1, readFrac: 0.5, lowRate: 250, highRate: 750, ladderStart: 33},
	{name: "batch-scan", tenants: 1, nodes: 1, readFrac: 1, batchSize: 256, cacheBytes: 256 << 10},
	{name: "ring-mix", tenants: 2, nodes: 3, readFrac: 0.9, lowRate: 200, highRate: 400, ladderStart: 31},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// run is one benchmark invocation's state.
type run struct {
	spec     spec
	seed     uint64
	dur      time.Duration
	binDir   string
	workDir  string // server state, removed at exit
	traceDir string // span files

	tenants []*tenant
	cluster *cluster

	attempted, failed int64
	correct           bool
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) put(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qbperf: "+format+"\n", args...)
}

// setUp boots a cluster unless one is running, then builds, outsources
// and warms every tenant's stack in the namespace label/<tenant>: each
// value queried once per tenant, which fills the owner caches. It
// returns the time from dialing the first client to the end of the
// warm-up.
func (r *run) setUp(label string, build func(stackConfig) (stack, error)) (time.Duration, error) {
	if r.cluster == nil {
		c, err := bootCluster(r.binDir, filepath.Join(r.workDir, label), r.spec.nodes)
		if err != nil {
			return 0, err
		}
		r.cluster = c
	}
	c := r.cluster
	start := time.Now()
	errs := make([]error, len(r.tenants))
	var wg sync.WaitGroup
	for i, t := range r.tenants {
		t.reset()
		sc := stackConfig{key: t.key, store: label + "/" + t.name, seed: t.seed, cacheBytes: r.spec.cacheBytes}
		if c.isRing() {
			sc.ringAddr = c.ring.addr
		} else {
			sc.cloudAddr = c.nodes[0].addr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.setUpTenant(t, sc, build)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	for _, t := range r.tenants {
		r.account(int64(len(t.values)), t.check.failed.Load())
	}
	return elapsed, nil
}

func (r *run) setUpTenant(t *tenant, sc stackConfig, build func(stackConfig) (stack, error)) error {
	s, err := build(sc)
	if err != nil {
		return fmt.Errorf("tenant %s: %w", t.name, err)
	}
	t.stack, t.sc = s, sc
	if err := s.Outsource(t.ds.Relation, t.ds.Sensitive); err != nil {
		return fmt.Errorf("tenant %s: outsource: %w", t.name, err)
	}
	// The set-up warm-up is the owner's first pass over its values, one
	// point query each.
	for _, v := range t.ds.Values {
		got, err := s.Query(v)
		if err != nil {
			return fmt.Errorf("tenant %s: warm-up query: %w", t.name, err)
		}
		t.checkExact(v, got)
	}
	return nil
}

// warm queries each value once, in one QueryBatch, which fills the
// owner cache the way point queries do at a fraction of their cost, and
// checks the answers (no writes are in flight).
func (t *tenant) warm() error {
	got, err := t.stack.QueryBatch(t.ds.Values)
	if err != nil {
		return fmt.Errorf("tenant %s: warm-up: %w", t.name, err)
	}
	for i, v := range t.ds.Values {
		if acked := t.writes[v].acked.Load(); acked == 0 {
			t.checkExact(v, got[i])
		} else {
			t.checkBounded(v, acked, got[i])
		}
	}
	return nil
}

// renew replaces every tenant's repro.Client with a fresh one resumed
// from the old one's metadata and warmed as at set-up, so that a window
// does not inherit the view log of the windows before it. The owner
// keeps each query's clear-text bin in that log, so an owner process
// that ran every window would measure its growing heap, not the window.
// Read-only workloads run the size attack over the retiring client's
// views first.
func (r *run) renew() error {
	errs := make([]error, len(r.tenants))
	failedBefore := make([]int64, len(r.tenants))
	var wg sync.WaitGroup
	for i, t := range r.tenants {
		if r.spec.readFrac == 1 && !t.checkViews() {
			r.failed++
		}
		failedBefore[i] = t.check.failed.Load()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.renew()
		}()
	}
	wg.Wait()
	for i, t := range r.tenants {
		if errs[i] != nil {
			return errs[i]
		}
		r.account(int64(len(t.values)), t.check.failed.Load()-failedBefore[i])
	}
	runtime.GC()
	return nil
}

func (t *tenant) renew() error {
	old := t.stack.(*repro.Client)
	var meta bytes.Buffer
	if err := old.SaveMetadata(&meta); err != nil {
		return fmt.Errorf("tenant %s: save metadata: %w", t.name, err)
	}
	old.Close()
	c, err := newClientStack(t.sc)
	if err != nil {
		return fmt.Errorf("tenant %s: %w", t.name, err)
	}
	t.stack = c
	if err := c.Resume(&meta); err != nil {
		return fmt.Errorf("tenant %s: resume: %w", t.name, err)
	}
	return t.warm()
}

// tearDown closes every stack and stops the cluster.
func (r *run) tearDown() {
	r.closeStacks()
	if r.cluster != nil {
		r.cluster.stop()
		r.cluster = nil
	}
}

func clientBuild(sc stackConfig) (stack, error) { return newClientStack(sc) }

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

// endToEnd is the untraced run: set-up rounds, then the fixed-rate
// windows and the capacity ladder (or the closed-loop batch windows).
func (r *run) endToEnd() error {
	var setups []time.Duration
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			r.tearDown()
		}
		d, err := r.setUp(fmt.Sprintf("setup%d", i), clientBuild)
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	r.put("setup_s", median(setups).Seconds(), "s")
	r.logf("setup: %v (median of %d)", setups, len(setups))

	var err error
	if r.spec.batchSize > 0 {
		err = r.batchWindows()
	} else {
		err = r.openLoopWindows()
	}
	if err != nil {
		return err
	}
	r.finalChecks()
	return nil
}

// putMemory reports the load process's live heap after a forced GC and
// the servers' peak RSS so far. Both are read after the high window,
// whose op count is fixed: the ladder's probes depend on the capacity
// found, and a faster system would otherwise report more memory.
func (r *run) putMemory() {
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	r.put("owner_heap_mb", float64(mst.HeapAlloc)/(1<<20), "MiB")
	r.put("cloud_rss_mb", float64(r.cluster.sample().nodePeak)/1024, "MiB")
}

// The fixed-rate windows run as segments of a twenty-fourth of the
// seconds, each on renewed owners: lowSegments at the low rate, then
// highSegments at the high rate. A window's read_p50_ms is the median of
// its segments' p50s, so a snapshot or GC stall that queues most of one
// segment does not move it, and no owner's view log grows for more than
// one segment.
const (
	lowSegments  = 3
	highSegments = 5
)

// openLoopWindows measures the two fixed rates (a third of the seconds
// together), then searches the capacity ladder with ladderProbes probes
// of a twelfth of the seconds. Each segment and probe starts on renewed
// owners. At the run length BENCHMARK.json uses, segments and probes
// last whole multiples of the snapshot interval, so each sees the same
// number of snapshots.
func (r *run) openLoopWindows() error {
	s := r.spec
	exact := s.readFrac == 1
	for wi, w := range []struct {
		suffix   string
		rate     float64
		segments int
	}{{"low", s.lowRate, lowSegments}, {"high", s.highRate, highSegments}} {
		var p50 []time.Duration
		for seg := 0; seg < w.segments; seg++ {
			if err := r.renew(); err != nil {
				return err
			}
			p := openLoop(r.tenants, w.rate, r.dur/24, s.readFrac, r.seed^uint64(wi+1)<<32^uint64(seg), 128, exact)
			r.account(p.attempted, p.failed)
			p50 = append(p50, p.reads.Percentile(50))
			r.logf("%s %.0f ops/s segment %d: offered=%d issued=%d failed=%d late_p99=%.2fms", w.suffix, w.rate, seg,
				p.offered, p.attempted, p.failed, ms(p.late.Percentile(99)))
			r.logf("read_p50_ms.%s=%.3f read_p90_ms.%s=%.3f read_p99_ms.%s=%.3f (n=%d)", w.suffix, ms(p.reads.Percentile(50)),
				w.suffix, ms(p.reads.Percentile(90)), w.suffix, ms(p.reads.Percentile(99)), p.reads.Count())
			if s.readFrac < 1 {
				r.logf("write_p50_ms.%s=%.3f write_p99_ms.%s=%.3f (n=%d)", w.suffix, ms(p.writes.Percentile(50)),
					w.suffix, ms(p.writes.Percentile(99)), p.writes.Count())
			}
		}
		r.put("read_p50_ms."+w.suffix, ms(median(p50)), "ms")
	}
	r.putMemory()

	var renewErr error
	probes := 0
	k := searchCapacity(ladderRungs, s.ladderStart, ladderProbes, func(k int) bool {
		if renewErr = r.renew(); renewErr != nil {
			return false
		}
		probes++
		rate := ladderRate(ladderBase, ladderStep, float64(k))
		p := openLoop(r.tenants, rate, r.dur/12, s.readFrac, r.seed^uint64(probes)<<40, 128, exact)
		// Failed checks are correctness failures; a rung that merely
		// misses the SLO is not.
		r.account(p.attempted, p.failed)
		ok := p.meetsSLO()
		r.logf("ladder %.0f ops/s: offered=%d in_time=%d backlog=%d p99*=%.2fms pass=%v",
			rate, p.offered, p.inTime, p.backlog, ms(p99WithMisses(&p.all, p.offered)), ok)
		return ok
	})
	if renewErr != nil {
		return renewErr
	}
	r.put("capacity_qps", ladderRate(ladderBase, ladderStep, k), "q/s")
	return nil
}

// batch-scan runs each window as batchSegments segments of one
// closed-loop caller, each on renewed owners: the owner's view log grows
// by every call, and the median over segments keeps a disturbed segment
// from moving the result. The low window's segments make batchCalls
// calls of the workload's batch size, the high window's bigBatchCalls
// calls of twice that size. An eighth of the seconds caps a segment's
// time. The fixed call count also fixes the view log that owner_heap_mb
// measures. The traced run's window makes tracedBatchCalls calls of the
// workload's batch size.
const (
	batchCalls       = 32
	bigBatchCalls    = 16
	batchSegments    = 7
	tracedBatchCalls = 80
)

// batchWindows measures batch-scan's two windows. capacity_qps is the
// query throughput of the low window; the read latencies are per
// QueryBatch call. One caller keeps the load process from running more
// busy goroutines than the host has cores.
func (r *run) batchWindows() error {
	t := r.tenants[0]
	for i, w := range []struct {
		suffix      string
		size, calls int
	}{{"low", r.spec.batchSize, batchCalls}, {"high", 2 * r.spec.batchSize, bigBatchCalls}} {
		var qps []float64
		var p50 []time.Duration
		for seg := 0; seg < batchSegments; seg++ {
			if err := r.renew(); err != nil {
				return err
			}
			b := closedLoopBatches(t, w.size, w.calls, r.dur/8, r.seed^uint64(i+1)<<32^uint64(seg))
			r.account(b.attempted, b.failed)
			qps, p50 = append(qps, b.qps()), append(p50, b.lat.Percentile(50))
			r.logf("%s: %d-value calls, segment %d: batches=%d queries=%d failed=%d batch_qps=%.1f batch[p50=%.2fms p99=%.2fms]",
				w.suffix, w.size, seg, b.batches, b.queries, b.failed, b.qps(), ms(b.lat.Percentile(50)), ms(b.lat.Percentile(99)))
		}
		r.put("read_p50_ms."+w.suffix, ms(median(p50)), "ms")
		if i == 0 {
			slices.Sort(qps)
			r.put("capacity_qps", qps[len(qps)/2], "q/s")
		}
	}
	r.putMemory()
	st := t.stack.(*repro.Client).CacheStats()
	r.logf("owner cache: hits=%d misses=%d budget=%dB", st.Hits, st.Misses, st.MaxBytes)
	return nil
}

// account adds a window's op counts to the run's totals.
func (r *run) account(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// finalChecks runs the size attack on the read-only workloads and
// settles the correctness verdict.
func (r *run) finalChecks() {
	if r.spec.readFrac == 1 {
		for _, t := range r.tenants {
			if !t.checkViews() {
				r.failed++
			}
		}
	}
	r.correct = r.failed == 0
	for _, t := range r.tenants {
		if f := t.check.firstFailure(); f != "" {
			r.correct = false
			r.logf("FAILED: %s", f)
		}
	}
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
