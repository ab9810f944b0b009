package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/relation"
)

// SLO of the capacity ladder: p99 of all ops (failed and unissued ones
// count as misses) at most sloP99, achieved at least sloAchieved of
// offered, and a backlog at the window's end that drains within sloP99.
// The bound sits above the 30-200 ms stalls that snapshots and GC cause
// below the knee (see README.md), so the rung marks where the backlog
// starts to grow.
const (
	sloP99      = 500 * time.Millisecond
	sloAchieved = 0.95
)

// phase is the outcome of one open-loop window.
type phase struct {
	rate float64 // offered, all tenants, ops/s

	offered   int64 // arrivals due inside the window
	attempted int64 // arrivals issued
	failed    int64 // errors plus failed checks
	inTime    int64 // successful ops completed by window end + sloP99
	backlog   int64 // due but not completed at window end

	reads, writes, all, late loadgen.Histogram
}

// meetsSLO is the capacity ladder's rule for one rung.
func (p *phase) meetsSLO() bool {
	if p.offered == 0 {
		return false
	}
	if float64(p.inTime) < sloAchieved*float64(p.offered) {
		return false
	}
	if p.rate > 0 && float64(p.backlog)/p.rate > sloP99.Seconds() {
		return false
	}
	return p99WithMisses(&p.all, p.offered) <= sloP99
}

// p99WithMisses is the 99th percentile over offered ops when only the
// successful ones are in h: every other op counts as infinitely slow.
func p99WithMisses(h *loadgen.Histogram, offered int64) time.Duration {
	ok := h.Count()
	rank := int64(math.Ceil(0.99 * float64(offered)))
	if rank > ok {
		return time.Duration(math.MaxInt64)
	}
	if rank < 1 {
		rank = 1
	}
	return h.Percentile(100 * float64(rank) / float64(ok))
}

// searchCapacity estimates the ladder index at which probes start to
// fail the SLO, with at most budget probes. It gallops from start (one
// rung, then two, four, ...) until it has a passing rung below a failing
// one, bisects that bracket down to adjacent rungs, and spends the rest
// of the budget on a staircase: one rung up after a pass, one down after
// a fail. A single probe near the knee passes or fails by chance, so the
// estimate is the mean index of the bracket and the staircase's probes:
// the rung at which the SLO holds about half the time.
func searchCapacity(rungs, start, budget int, pass func(int) bool) float64 {
	probes := 0
	probe := func(k int) bool {
		probes++
		return pass(k)
	}
	lo, hi := -1, rungs // highest pass below lowest fail; -1 and rungs are virtual
	k := min(max(start, 0), rungs-1)
	if probe(k) {
		lo = k
		for step := 1; hi == rungs && lo < rungs-1 && probes < budget; step *= 2 {
			if k = min(lo+step, rungs-1); probe(k) {
				lo = k
			} else {
				hi = k
			}
		}
	} else {
		hi = k
		for step := 1; lo == -1 && hi > 0 && probes < budget; step *= 2 {
			if k = max(hi-step, 0); probe(k) {
				lo = k
			} else {
				hi = k
			}
		}
	}
	for hi-lo > 1 && probes < budget {
		if k = (lo + hi) / 2; probe(k) {
			lo = k
		} else {
			hi = k
		}
	}
	levels := []int{lo, hi}
	for cur := hi; probes < budget; {
		cur = min(max(cur, 0), rungs-1)
		levels = append(levels, cur)
		if probe(cur) {
			cur++
		} else {
			cur--
		}
	}
	sum := 0
	for _, l := range levels {
		sum += l
	}
	return float64(sum) / float64(len(levels))
}

// ladderRate is the rate at (possibly fractional) index k of a fixed
// geometric ladder.
func ladderRate(base, step, k float64) float64 {
	return base * math.Pow(step, k)
}

// openLoop drives every tenant at rate/len(tenants) ops/s for dur with
// Zipf-drawn values and the given read fraction, timing each op from its
// scheduled arrival. inflight caps each tenant's outstanding ops; at 1
// the tenant issues its ops one after another.
func openLoop(tenants []*tenant, rate float64, dur time.Duration, readFrac float64, seed uint64, inflight int, exact bool) *phase {
	p := &phase{rate: rate}
	start := time.Now()
	deadline := start.Add(dur)
	var (
		wg        sync.WaitGroup
		offered   atomic.Int64
		attempted atomic.Int64
		failed    atomic.Int64
		inTime    atomic.Int64
		completed atomic.Int64
	)
	perTenant := rate / float64(len(tenants))
	for ti, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := loadgen.NewGenerator(t.values, loadgen.GenConfig{ReadFraction: readFrac, ZipfS: queryZipfS},
				seed^uint64(ti+1)*0x9e3779b97f4a7c15)
			pacer, _ := loadgen.NewPacer(nil, perTenant) // perTenant > 0
			// Arrivals due inside the window, whether or not issued.
			offered.Add(int64(math.Ceil(dur.Seconds() * perTenant)))
			sem := make(chan struct{}, inflight)
			var ops sync.WaitGroup
			for {
				sched := pacer.Next()
				// Every arrival due inside the window is issued, late or
				// not, until the backlog is older than the SLO; the rest
				// are misses.
				if !sched.Before(deadline) || time.Since(sched) > sloP99 && !time.Now().Before(deadline) {
					break
				}
				op := gen.Next()
				sem <- struct{}{}
				p.late.Record(time.Since(sched))
				attempted.Add(1)
				ops.Add(1)
				run := func() {
					defer func() { <-sem; ops.Done() }()
					ok := issue(t, op, exact)
					now := time.Now()
					if !ok {
						failed.Add(1)
						return
					}
					lat := now.Sub(sched)
					p.all.Record(lat)
					if op.Read {
						p.reads.Record(lat)
					} else {
						p.writes.Record(lat)
					}
					if !now.After(deadline.Add(sloP99)) {
						inTime.Add(1)
					}
					if now.Before(deadline) {
						completed.Add(1)
					}
				}
				if inflight == 1 {
					run()
				} else {
					go run()
				}
			}
			ops.Wait()
		}()
	}
	wg.Wait()
	p.offered = offered.Load()
	p.attempted = attempted.Load()
	p.failed = failed.Load()
	p.inTime = inTime.Load()
	p.backlog = max(p.offered-completed.Load()-p.failed, 0)
	return p
}

// issue runs one op against t's stack and checks its answer.
func issue(t *tenant, op loadgen.Op, exact bool) bool {
	ws := t.writes[op.Value]
	if op.Read {
		acked := ws.acked.Load()
		got, err := t.stack.Query(op.Value)
		if err != nil {
			t.check.fail("tenant %s: Query(%v): %v", t.name, op.Value, err)
			return false
		}
		if exact {
			return t.checkExact(op.Value, got)
		}
		return t.checkBounded(op.Value, acked, got)
	}
	// A failed insert keeps its issued count: it may have been applied.
	ws.issued.Add(1)
	if err := t.stack.Insert(t.newInsert(op.Value), op.Sensitive); err != nil {
		t.check.fail("tenant %s: Insert(%v): %v", t.name, op.Value, err)
		return false
	}
	ws.acked.Add(1)
	return true
}

// batchRun is the outcome of one closed-loop batch window.
type batchRun struct {
	elapsed   time.Duration
	batches   int64
	queries   int64
	attempted int64 // batch calls
	failed    int64
	lat       loadgen.Histogram // per batch call
}

func (b *batchRun) qps() float64 { return float64(b.queries) / b.elapsed.Seconds() }

// closedLoopBatches issues QueryBatch calls of size Zipf-drawn values
// on t, each after the previous one's answer, until limit calls were
// made or dur has passed.
func closedLoopBatches(t *tenant, size, limit int, dur time.Duration, seed uint64) *batchRun {
	b := &batchRun{}
	start := time.Now()
	deadline := start.Add(dur)
	gen := loadgen.NewGenerator(t.values, loadgen.GenConfig{ReadFraction: 1, ZipfS: queryZipfS},
		seed^0x9e3779b97f4a7c15)
	ws := make([]relation.Value, size)
	for time.Now().Before(deadline) && b.attempted < int64(limit) {
		b.attempted++
		for i := range ws {
			ws[i] = gen.Next().Value
		}
		t0 := time.Now()
		got, err := t.stack.QueryBatch(ws)
		lat := time.Since(t0)
		if err != nil {
			t.check.fail("tenant %s: QueryBatch: %v", t.name, err)
			b.failed++
			continue
		}
		ok := true
		for i, w := range ws {
			ok = t.checkExact(w, got[i]) && ok
		}
		if !ok {
			b.failed++
			continue
		}
		b.lat.Record(lat)
		b.batches++
		b.queries += int64(size)
	}
	b.elapsed = time.Since(start)
	return b
}
