// Command qbperf is the repository benchmark: it boots real qbcloud
// (and qbring) processes, drives them through the owner stack with one
// of four workloads, checks every answer, and prints the workload's
// metrics. Run it through run.sh, which builds the binaries first:
//
//	bash qbperf/run.sh --workload point-read --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run (see README.md). The
// last line of standard output is one JSON object; the exit status is
// non-zero when any answer, bound or adversarial-view check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload: point-read, write-mix, batch-scan or ring-mix")
	seed := flag.Uint64("seed", 1, "seed of the generated relations and op streams")
	seconds := flag.Int("seconds", 24, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the qbcloud and qbring binaries")
	workDir := flag.String("work", ".bench_build/run", "directory for server state; span files go to its sibling trace/")
	flag.Parse()

	s, ok := lookupSpec(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qbperf: bad arguments (workload %q, seconds %d, trace %d)\n", *workloadName, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		spec:     s,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		binDir:   *binDir,
		workDir:  filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", s.name, *seed, os.Getpid())),
		traceDir: filepath.Join(filepath.Dir(*workDir), "trace"),
		metrics:  make(map[string]metric),
	}
	if err := r.main(*trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "qbperf:", err)
		os.Exit(1)
	}
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayer
	}
	if err := checkMetrics(r.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "qbperf:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.correct {
		os.Exit(1)
	}
}

// main generates the tenants, runs the workload and always stops the
// servers, also on SIGINT/SIGTERM.
func (r *run) main(traced bool) error {
	fmt.Printf("qbperf: workload=%s seed=%d seconds=%.0f trace=%v nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		r.spec.name, r.seed, r.dur.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel())
	for i := 0; i < r.spec.tenants; i++ {
		t, err := newTenant(i, r.seed, tenantTuples, tenantValues)
		if err != nil {
			return err
		}
		r.tenants = append(r.tenants, t)
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case <-sig:
			r.tearDown()
			os.Exit(1)
		case <-stopped:
		}
	}()
	defer os.RemoveAll(r.workDir)
	defer r.tearDown()
	if traced {
		return r.traced()
	}
	return r.endToEnd()
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
