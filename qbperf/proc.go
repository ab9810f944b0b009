package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clockTicks is the /proc/<pid>/stat time unit (USER_HZ), 100 on every
// Linux configuration Go supports.
const clockTicks = 100

// server is one qbcloud or qbring child process. A single reader
// goroutine owns its combined output, so the address scan and the
// snapshot and repair counts never race on the pipe. It stands in for
// loadgen.CloudProc, which keeps no line counts and hides the PID that
// the /proc sampling needs.
type server struct {
	name  string // "qbcloud" or "qbring"
	addr  string
	state string // qbcloud state file ("" for qbring)
	cmd   *exec.Cmd

	mu        sync.Mutex
	snapshots int // qbcloud "snapshot saved" lines so far
	repairs   int // qbring "repair" lines so far
	tail      []string
	done      chan struct{}
}

// startServer runs bin with args and waits for its "serving on" line.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go s.read(pipe, addrCh)
	select {
	case s.addr = <-addrCh:
		return s, nil
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("%s exited before serving: %s", s.name, strings.Join(s.output(), " | "))
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report an address within 10s", s.name)
	}
}

func (s *server) read(pipe io.Reader, addrCh chan<- string) {
	defer close(s.done)
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		switch {
		case strings.Contains(line, "snapshot saved"):
			s.snapshots++
		case strings.Contains(line, ": repair "):
			s.repairs++
		}
		if len(s.tail) < 64 {
			s.tail = append(s.tail, line)
		}
		s.mu.Unlock()
		if i := strings.Index(line, ": serving on "); i >= 0 {
			if f := strings.Fields(line[i+len(": serving on "):]); len(f) > 0 {
				select {
				case addrCh <- f[0]:
				default:
				}
			}
		}
	}
}

func (s *server) output() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.tail...)
}

// counts reports the snapshots saved and the repairs run so far.
func (s *server) counts() (snapshots, repairs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshots, s.repairs
}

// stop kills the process and waits until it has exited and its output
// stream is drained. The benchmark measures nothing at shutdown, so it
// skips the graceful final save.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already-exited processes report an error
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Wait() // a killed process exits with a signal status
}

// procSample is one reading of a process's /proc accounting.
type procSample struct {
	cpu    time.Duration // utime + stime
	peakKB int64         // VmHWM: peak resident set
}

func sampleProc(pid int) (procSample, error) {
	var ps procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			if f := strings.Fields(line); len(f) >= 2 {
				ps.peakKB, _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return ps, nil
}

// cluster is the server side of one workload: one qbcloud, or three
// qbclouds with R=2 behind a qbring coordinator. Every qbcloud runs
// under the same durability policy: a state file and a background
// snapshot every snapshotEvery.
type cluster struct {
	nodes []*server
	ring  *server // nil for a single node
}

const (
	snapshotEvery = time.Second
	ringToken     = "qbperf ring token"
	ringReplicas  = 2
)

// bootCluster starts n qbcloud nodes (plus qbring when n > 1) with their
// state under dir.
func bootCluster(binDir, dir string, n int) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{}
	for i := 0; i < n; i++ {
		state := filepath.Join(dir, fmt.Sprintf("node%d.state", i))
		os.Remove(state) // a fresh cluster starts empty
		args := []string{"-state", state, "-snapshot-every", snapshotEvery.String()}
		if n > 1 {
			args = append(args, "-ring-token", ringToken)
		}
		s, err := startServer(filepath.Join(binDir, "qbcloud"), args...)
		if err != nil {
			c.stop()
			return nil, err
		}
		s.state = state
		c.nodes = append(c.nodes, s)
	}
	if n > 1 {
		addrs := make([]string, n)
		for i, s := range c.nodes {
			addrs[i] = s.addr
		}
		r, err := startServer(filepath.Join(binDir, "qbring"), "-nodes", strings.Join(addrs, ","),
			"-replicas", strconv.Itoa(ringReplicas), "-ring-token", ringToken)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.ring = r
	}
	return c, nil
}

func (c *cluster) stop() {
	if c.ring != nil {
		c.ring.stop()
	}
	for _, s := range c.nodes {
		s.stop()
	}
}

func (c *cluster) isRing() bool { return c.ring != nil }

// clusterSample is a cluster-wide reading: per-node CPU and peak RSS, the
// coordinator's CPU, snapshot counts and state sizes.
type clusterSample struct {
	nodeCPU   []time.Duration
	nodePeak  int64 // summed VmHWM, KiB
	ringCPU   time.Duration
	snapshots int
	repairs   int
	stateB    int64 // summed state file size
}

func (c *cluster) sample() clusterSample {
	var cs clusterSample
	for _, s := range c.nodes {
		ps, _ := sampleProc(s.cmd.Process.Pid) // a missing reading counts as zero
		cs.nodeCPU = append(cs.nodeCPU, ps.cpu)
		cs.nodePeak += ps.peakKB
		n, _ := s.counts()
		cs.snapshots += n
		if fi, err := os.Stat(s.state); err == nil {
			cs.stateB += fi.Size()
		}
	}
	if c.ring != nil {
		ps, _ := sampleProc(c.ring.cmd.Process.Pid)
		cs.ringCPU = ps.cpu
		_, cs.repairs = c.ring.counts()
	}
	return cs
}
