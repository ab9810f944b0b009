package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// wireCalls are the wire.Backend calls reported one by one.
var wireCalls = []string{"attr_column_since", "fetch", "fetch_batch", "plain_search", "add", "flush"}

// traced is the per-layer run. It first drives repro.Client stacks at
// the workload's low rate with one op in flight per tenant (the
// untraced arm: process, cloud and ring counters), then fresh traced
// stacks on new namespaces of the same cluster under the same load (the
// traced arm: spans and layer counters). Each arm gets half the seconds.
func (r *run) traced() error {
	half := r.dur / 2

	// Untraced arm.
	if _, err := r.setUp("plain", clientBuild); err != nil {
		return err
	}
	pb := r.sampleWindow("plain")
	plain := r.window(half)
	pa := r.sampleWindow("plain")
	r.windowMetrics(pb, pa, plain)
	r.put("gen.late_ms_p99", ms(plain.late.Percentile(99)), "ms")
	r.finalChecks()
	r.closeStacks()
	runtime.GC()

	// Traced arm on the same cluster.
	build := func(sc stackConfig) (stack, error) { return newTracedStack(sc, newRecorder()) }
	if _, err := r.setUp("traced", build); err != nil {
		return err
	}
	stacks := make([]*tracedStack, len(r.tenants))
	for i, t := range r.tenants {
		stacks[i] = t.stack.(*tracedStack)
	}
	tb := r.sampleWindow("traced")
	startAt := time.Now()
	before := make([]layerCounts, len(stacks))
	for i, s := range stacks {
		before[i] = s.counts()
	}
	tr := r.window(half)
	tops := tr.ops
	ta := r.sampleWindow("traced")
	r.finalChecks()

	// Layer counters and spans over the traced window.
	var d layerCounts
	var all, spans []span
	for i, s := range stacks {
		d = d.addDelta(s.counts(), before[i])
		rec := s.rec.snapshot()
		for j := range rec {
			rec[j].Tenant = r.tenants[i].name
		}
		all = append(all, rec...)
		spans = append(spans, inWindow(rec, startAt.Sub(s.rec.epoch))...)
	}
	if err := writeSpans(filepath.Join(r.traceDir, fmt.Sprintf("%s-%d.spans.jsonl", r.spec.name, r.seed)), all); err != nil {
		return err
	}
	perOp := func(n int) float64 { return float64(n) / float64(max(tops, 1)) }
	r.put("technique.decrypts_per_op", perOp(d.tech.encOps), "count")
	r.put("technique.cache_hit_frac", frac(int64(d.tech.hits), int64(d.tech.hits+d.tech.misses)), "ratio")
	r.put("technique.cache_bytes_saved_per_op", perOp(d.tech.bytesSaved), "B")
	r.put("wire.bytes_per_op", perOp(int(d.connBytes)), "B")
	r.put("owner.useful_frac", frac(d.result, d.fetched), "ratio")
	r.put("owner.fake_frac", frac(d.fakes, d.fetched), "ratio")
	r.spanMetrics(spans, tops)
	condCalls := int64(countSpans(spans, "wire.attr_column_since") + countSpans(spans, "wire.rows_since"))
	r.put("cloud.cond_hit_frac", frac(int64(ta.condHits-tb.condHits), condCalls), "ratio")
	r.put("trace.overhead_read_p50_ms", ms(tr.lat.Percentile(50))-ms(plain.lat.Percentile(50)), "ms")
	r.logf("traced arm: ops=%d spans=%d read p50 %.3fms; untraced arm: ops=%d read p50 %.3fms",
		tops, len(spans), ms(tr.lat.Percentile(50)), plain.ops, ms(plain.lat.Percentile(50)))
	return nil
}

// armResult is what one arm's window measured.
type armResult struct {
	lat, late    *loadgen.Histogram // read (or batch call) latency, generator lateness
	ops, inserts int64              // successful client calls, of which inserts
}

// window drives the workload at its low rate with one op in flight per
// tenant (or, for batch-scan, one closed-loop caller).
func (r *run) window(d time.Duration) armResult {
	if r.spec.batchSize > 0 {
		b := closedLoopBatches(r.tenants[0], r.spec.batchSize, tracedBatchCalls, d, r.seed^0x7ace)
		r.account(b.attempted, b.failed)
		return armResult{lat: &b.lat, late: &loadgen.Histogram{}, ops: b.batches}
	}
	p := openLoop(r.tenants, r.spec.lowRate, d, r.spec.readFrac, r.seed^0x7ace, 1, r.spec.readFrac == 1)
	r.account(p.attempted, p.failed)
	return armResult{lat: &p.reads, late: &p.late, ops: p.reads.Count() + p.writes.Count(), inserts: p.writes.Count()}
}

// closeStacks closes every tenant's stack but keeps the cluster.
func (r *run) closeStacks() {
	for _, t := range r.tenants {
		if t.stack != nil {
			t.stack.Close()
			t.stack = nil
		}
	}
}

// windowSample is everything read at a window's edge.
type windowSample struct {
	at              time.Time
	cpu             time.Duration // load process
	mallocs, allocB uint64
	heap            uint64 // live heap after a forced GC
	gcCPU           float64
	cluster         clusterSample
	ops, condHits   uint64 // namespaces of the window's label
	encRows         int
	nodeOps         map[int]uint64 // per node index
	replicaRows     map[string][]int
}

func (r *run) sampleWindow(label string) windowSample {
	runtime.GC()
	var w windowSample
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	w.mallocs, w.allocB, w.heap = mst.Mallocs, mst.TotalAlloc, mst.HeapAlloc
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		w.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		w.gcCPU = s[0].Value.Float64()
	}
	w.cluster = r.cluster.sample()
	w.nodeOps = make(map[int]uint64)
	w.replicaRows = make(map[string][]int)
	for _, t := range r.tenants {
		store := label + "/" + t.name
		for i, node := range r.cluster.nodes {
			wc, err := wire.Dial(node.addr)
			if err != nil {
				continue
			}
			st, err := wc.AdminStats(store, wire.OwnerToken(t.key, store))
			wc.Close()
			if err != nil {
				continue // this node holds no replica of the namespace
			}
			w.ops += st.Ops
			w.condHits += st.CondHits
			w.encRows += st.EncRows
			w.nodeOps[i] += st.Ops
			w.replicaRows[store] = append(w.replicaRows[store], st.EncRows)
		}
	}
	w.at = time.Now()
	return w
}

// windowMetrics reports the untraced arm's process, cloud and ring
// counters per operation.
func (r *run) windowMetrics(b, a windowSample, arm armResult) {
	ops := arm.ops
	perOp := func(v float64) float64 { return v / float64(max(ops, 1)) }
	secs := a.at.Sub(b.at).Seconds()
	cpu := a.cpu - b.cpu
	r.put("owner.cpu_us_per_op", perOp(float64(cpu.Microseconds())), "us")
	r.put("owner.allocs_per_op", perOp(float64(a.mallocs-b.mallocs)), "count")
	r.put("owner.alloc_bytes_per_op", perOp(float64(a.allocB-b.allocB)), "B")
	r.put("owner.heap_kb_per_op", perOp((float64(a.heap)-float64(b.heap))/1024), "KiB")
	r.put("owner.gc_cpu_frac", safeDiv(a.gcCPU-b.gcCPU, cpu.Seconds()), "ratio")

	var nodeCPU, busiestCPU time.Duration
	for i := range a.cluster.nodeCPU {
		d := a.cluster.nodeCPU[i] - b.cluster.nodeCPU[i]
		nodeCPU += d
		busiestCPU = max(busiestCPU, d)
	}
	r.put("cloud.cpu_us_per_op", perOp(float64(nodeCPU.Microseconds())), "us")
	r.put("cloud.ops_per_op", perOp(float64(a.ops-b.ops)), "count")
	r.put("cloud.enc_rows_per_insert", safeDiv(float64(a.encRows-b.encRows), float64(arm.inserts)), "count")
	snaps := a.cluster.snapshots - b.cluster.snapshots
	r.put("cloud.snapshots", float64(snaps), "count")
	r.put("cloud.snapshot_mb_per_s", safeDiv(float64(snaps)*float64(a.cluster.stateB)/float64(len(r.cluster.nodes))/(1<<20), secs), "MiB/s")

	if !r.cluster.isRing() {
		for _, n := range []string{"ring.node_ops_per_op", "ring.node_cpu_us_per_op", "ring.coordinator_cpu_us_per_op", "ring.replica_row_skew", "ring.repairs"} {
			r.put(n, 0, unitOf(n))
		}
		return
	}
	var busiestOps uint64
	for i, n := range a.nodeOps {
		busiestOps = max(busiestOps, n-b.nodeOps[i])
	}
	r.put("ring.node_ops_per_op", perOp(float64(busiestOps)), "count")
	r.put("ring.node_cpu_us_per_op", perOp(float64(busiestCPU.Microseconds())), "us")
	r.put("ring.coordinator_cpu_us_per_op", perOp(float64((a.cluster.ringCPU - b.cluster.ringCPU).Microseconds())), "us")
	skew := 0
	for _, rows := range a.replicaRows {
		lo, hi := rows[0], rows[0]
		for _, n := range rows {
			lo, hi = min(lo, n), max(hi, n)
		}
		skew = max(skew, hi-lo)
	}
	r.put("ring.replica_row_skew", float64(skew), "count")
	r.put("ring.repairs", float64(a.cluster.repairs-b.cluster.repairs), "count")
}

// inWindow keeps the spans of operations that started at or after from.
func inWindow(spans []span, from time.Duration) []span {
	ops := make(map[int]bool)
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") && s.Start >= int64(from) {
			ops[s.ID] = true
		}
	}
	var out []span
	for _, s := range spans {
		if ops[s.Op] {
			out = append(out, s)
		}
	}
	return out
}

// spanMetrics reports self times and wire call costs from the traced
// window's spans over ops operations.
func (r *run) spanMetrics(spans []span, ops int64) {
	self := selfTimes(spans)
	type acc struct {
		n    int
		self time.Duration
		dur  time.Duration
	}
	by := make(map[string]*acc)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.self += self[s.ID]
		a.dur += s.dur()
	}
	meanSelf := func(names ...string) float64 {
		var n int
		var d time.Duration
		for _, name := range names {
			if a := by[name]; a != nil {
				n += a.n
				d += a.self
			}
		}
		return safeDiv(float64(d.Nanoseconds())/1e3, float64(n))
	}
	r.put("owner.query_self_us", meanSelf("owner.query", "owner.query_batch"), "us")
	r.put("owner.insert_self_us", meanSelf("owner.insert"), "us")
	r.put("technique.search_self_us", meanSelf("technique.search", "technique.search_batch"), "us")
	r.put("technique.outsource_self_us", meanSelf("technique.outsource"), "us")

	var calls int
	var wait time.Duration
	for name, a := range by {
		if strings.HasPrefix(name, "wire.") {
			calls += a.n
			wait += a.dur
		}
	}
	r.put("wire.calls_per_op", safeDiv(float64(calls), float64(ops)), "count")
	r.put("wire.wait_us_per_op", safeDiv(float64(wait.Nanoseconds())/1e3, float64(ops)), "us")
	for _, c := range wireCalls {
		v := 0.0
		if a := by["wire."+c]; a != nil {
			v = safeDiv(float64(a.dur.Nanoseconds())/1e3, float64(a.n))
		}
		r.put("wire.call_us."+c, v, "us")
	}
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func frac(num, den int64) float64 { return safeDiv(float64(num), float64(den)) }

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// unitOf looks a per-layer metric's unit up in perLayer.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic(fmt.Sprintf("qbperf: unknown metric %s", name))
}
