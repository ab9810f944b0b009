package ring

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// RouterOptions tunes the client-side ring transport.
type RouterOptions struct {
	// Reconnect configures each node's reconnecting transport. The zero
	// value selects fast-failover defaults (3 dial attempts, 10ms base /
	// 100ms cap): with a surviving replica one hop away, burning the
	// single-node default's ten capped retries before failing over would
	// turn a node kill into seconds of stall instead of tens of
	// milliseconds.
	Reconnect wire.ReconnectOptions

	// DownCooldown is how long a node transport is skipped after a
	// transport-level failure before a call probes it again (default
	// 500ms). Reads fail over instantly either way; the cooldown only
	// bounds how often a dead node costs a probe.
	DownCooldown time.Duration
}

func (o RouterOptions) reconnect() wire.ReconnectOptions {
	r := o.Reconnect
	if r.MaxRetries == 0 && r.BaseDelay == 0 && r.MaxDelay == 0 {
		r = wire.ReconnectOptions{MaxRetries: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	}
	return r
}

func (o RouterOptions) cooldown() time.Duration {
	if o.DownCooldown <= 0 {
		return 500 * time.Millisecond
	}
	return o.DownCooldown
}

// nodeConn is the router's handle on one ring node: a lazily dialed
// reconnecting transport plus the down-cooldown failure memory. When the
// transport fails permanently (its reconnect cycles exhausted) it is
// discarded and a fresh one is dialed on the next use after the cooldown
// — without this a node that died once could never fail back, because a
// Reconnector's permanent error is sticky by design.
type nodeConn struct {
	node     Node
	dial     func() (*wire.Client, error)
	ropts    wire.ReconnectOptions
	cooldown time.Duration

	mu        sync.Mutex
	tr        *wire.Reconnector
	downUntil time.Time
}

// available reports whether calls should be routed here: not inside the
// failure cooldown window.
func (nc *nodeConn) available() bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return !time.Now().Before(nc.downUntil)
}

// markDown starts (or extends) the cooldown window after a
// transport-level failure.
func (nc *nodeConn) markDown() {
	nc.mu.Lock()
	nc.downUntil = time.Now().Add(nc.cooldown)
	nc.mu.Unlock()
}

// transportDead reports whether the current transport has failed
// permanently.
func (nc *nodeConn) transportDead() bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.tr != nil && nc.tr.Err() != nil
}

// transport returns the node's live transport, dialing a fresh
// Reconnector lazily and replacing one that has permanently failed.
// Replacing drops any upload state retained by the dead transport's
// views; the replicas repair that loss through anti-entropy (see
// ReplicatedStore's quarantine).
func (nc *nodeConn) transport() *wire.Reconnector {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.tr != nil && nc.tr.Err() != nil {
		nc.tr.Close()
		nc.tr = nil
	}
	if nc.tr == nil {
		nc.tr = wire.NewReconnector(nc.dial, nc.ropts)
	}
	return nc.tr
}

// backend returns the node's reconnecting view of one namespace.
func (nc *nodeConn) backend(name string) *wire.ReconnStore {
	return nc.transport().WithStore(name)
}

// close tears down the node transport.
func (nc *nodeConn) close() error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.tr == nil {
		return nil
	}
	err := nc.tr.Close()
	nc.tr = nil
	return err
}

// Router is the client-side ring transport: a wire.Transport whose
// per-namespace views are ReplicatedStores routed by the coordinator's
// placement directory. The directory is fetched once at dial time and
// cached under its version counter; Refresh revalidates it with a
// conditional fetch (placement over a static membership never moves, so
// routing needs no per-op directory traffic at all).
type Router struct {
	opts    RouterOptions
	dirConn *wire.Client
	dialTo  func(addr string) (*wire.Client, error)

	mu     sync.Mutex
	dir    *Directory
	ring   *Ring
	nodes  map[string]*nodeConn // by node ID
	stores map[string]*ReplicatedStore
	closed bool
}

var _ wire.Transport = (*Router)(nil)

// DialRouter connects to the qbring coordinator at ringAddr, fetches the
// placement directory, and returns the routing transport.
func DialRouter(ringAddr string, opts RouterOptions) (*Router, error) {
	c, err := wire.Dial(ringAddr)
	if err != nil {
		return nil, fmt.Errorf("ring: dial coordinator %s: %w", ringAddr, err)
	}
	r, err := NewRouter(c, wire.Dial, opts)
	if err != nil {
		c.Close()
		return nil, err
	}
	return r, nil
}

// NewRouter builds a Router over an established coordinator connection
// and a node dialer (tests inject pipe-based dialers here).
func NewRouter(dirConn *wire.Client, dialTo func(addr string) (*wire.Client, error), opts RouterOptions) (*Router, error) {
	dir, err := FetchDirectory(dirConn)
	if err != nil {
		return nil, fmt.Errorf("ring: fetch directory: %w", err)
	}
	if len(dir.Nodes) == 0 {
		return nil, fmt.Errorf("ring: directory version %d lists no nodes", dir.Version)
	}
	r := &Router{
		opts:    opts,
		dirConn: dirConn,
		dialTo:  dialTo,
		dir:     dir,
		ring:    Build(dir),
		nodes:   make(map[string]*nodeConn, len(dir.Nodes)),
		stores:  make(map[string]*ReplicatedStore),
	}
	return r, nil
}

// Directory returns the cached directory.
func (r *Router) Directory() *Directory {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// Refresh revalidates the cached directory against the coordinator with a
// conditional fetch and reports whether it changed. Existing namespace
// views keep their placement (membership changes that move placement are
// a re-dial event, not a live migration); fresh views see the new
// directory.
func (r *Router) Refresh() (bool, error) {
	r.mu.Lock()
	known := r.dir.Version
	r.mu.Unlock()
	blob, _, changed, err := r.dirConn.RingDirectory(known)
	if err != nil {
		return false, err
	}
	if !changed {
		return false, nil
	}
	dir, err := DecodeDirectory(blob)
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	r.dir = dir
	r.ring = Build(dir)
	r.mu.Unlock()
	return true, nil
}

// RequestRepair asks the coordinator for one immediate targeted
// anti-entropy round on a namespace (opRingRepair) — the readmission
// path's escape from sweep latency: a writer that finds a quarantined
// replica still short does not wait out the background repair interval
// with reads pinned to the stale replica.
func (r *Router) RequestRepair(ns string) error {
	return r.dirConn.RingRepair(ns)
}

// node returns the connection handle for a placement entry, creating it
// on first use.
func (r *Router) node(n Node) *nodeConn {
	if nc, ok := r.nodes[n.ID]; ok {
		return nc
	}
	addr := n.Addr
	nc := &nodeConn{
		node:     n,
		dial:     func() (*wire.Client, error) { return r.dialTo(addr) },
		ropts:    r.opts.reconnect(),
		cooldown: r.opts.cooldown(),
	}
	r.nodes[n.ID] = nc
	return nc
}

// WithStore returns the replicated view of the named namespace (""
// selects wire.DefaultStore). The same name always yields the same view.
func (r *Router) WithStore(name string) *ReplicatedStore {
	name = canonicalStore(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.stores[name]; ok {
		return s
	}
	placement := r.ring.Placement(name)
	replicas := make([]*nodeConn, len(placement))
	for i, n := range placement {
		replicas[i] = r.node(n)
	}
	s := newReplicatedStore(r, name, replicas)
	r.stores[name] = s
	return s
}

// Store implements wire.Transport.
func (r *Router) Store(name string) wire.Backend { return r.WithStore(name) }

// Ping probes the coordinator connection.
func (r *Router) Ping() error { return r.dirConn.Ping() }

// Close tears down the coordinator connection and every node transport.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	nodes := make([]*nodeConn, 0, len(r.nodes))
	for _, nc := range r.nodes {
		nodes = append(nodes, nc)
	}
	r.mu.Unlock()
	first := r.dirConn.Close()
	for _, nc := range nodes {
		if err := nc.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// canonicalStore mirrors wire's storeName canonicalisation.
func canonicalStore(name string) string {
	if name == "" {
		return wire.DefaultStore
	}
	return name
}
