package main

import "fmt"

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"capacity_qps", "q/s", "higher"},
	{"read_p50_ms.low", "ms", "lower"},
	{"read_p50_ms.high", "ms", "lower"},
	{"owner_heap_mb", "MiB", "lower"},
	{"cloud_rss_mb", "MiB", "lower"},
}

// perLayer are reported by every workload's traced run; a layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"owner.query_self_us", "us", "lower"},
	{"owner.insert_self_us", "us", "lower"},
	{"owner.useful_frac", "ratio", "higher"},
	{"owner.fake_frac", "ratio", "lower"},
	{"owner.allocs_per_op", "count", "lower"},
	{"owner.alloc_bytes_per_op", "B", "lower"},
	{"owner.gc_cpu_frac", "ratio", "lower"},
	{"owner.heap_kb_per_op", "KiB", "lower"},
	{"owner.cpu_us_per_op", "us", "lower"},
	{"technique.search_self_us", "us", "lower"},
	{"technique.outsource_self_us", "us", "lower"},
	{"technique.decrypts_per_op", "count", "lower"},
	{"technique.cache_hit_frac", "ratio", "higher"},
	{"technique.cache_bytes_saved_per_op", "B", "higher"},
	{"wire.calls_per_op", "count", "lower"},
	{"wire.wait_us_per_op", "us", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"wire.call_us.attr_column_since", "us", "lower"},
	{"wire.call_us.fetch", "us", "lower"},
	{"wire.call_us.fetch_batch", "us", "lower"},
	{"wire.call_us.plain_search", "us", "lower"},
	{"wire.call_us.add", "us", "lower"},
	{"wire.call_us.flush", "us", "lower"},
	{"cloud.cpu_us_per_op", "us", "lower"},
	{"cloud.ops_per_op", "count", "lower"},
	{"cloud.cond_hit_frac", "ratio", "higher"},
	{"cloud.enc_rows_per_insert", "count", "lower"},
	{"cloud.snapshots", "count", "lower"},
	{"cloud.snapshot_mb_per_s", "MiB/s", "lower"},
	{"ring.node_ops_per_op", "count", "lower"},
	{"ring.node_cpu_us_per_op", "us", "lower"},
	{"ring.coordinator_cpu_us_per_op", "us", "lower"},
	{"ring.replica_row_skew", "count", "lower"},
	{"ring.repairs", "count", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"trace.overhead_read_p50_ms", "ms", "lower"},
}

// checkMetrics reports a metric missing from got, one not declared in
// want, or one whose unit differs from its declaration.
func checkMetrics(got map[string]metric, want []metricDef) error {
	declared := make(map[string]string, len(want))
	for _, m := range want {
		declared[m.name] = m.unit
		g, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
		if g.Unit != m.unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", m.name, g.Unit, m.unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
