package repro

import (
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"strings"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/wire"
)

// Technique selects the cryptographic search mechanism QB is layered over.
type Technique int

const (
	// TechNoInd (default): non-deterministic AES-GCM with owner-side
	// attribute decryption — the strongest at-rest story without special
	// hardware, and the search procedure the paper used on the commercial
	// systems A/B.
	TechNoInd Technique = iota
	// TechDetIndex: deterministic encryption with a cloud-side index.
	// Fast, but leaks the value-frequency histogram at rest; include it
	// only to reproduce the attacks.
	TechDetIndex
	// TechArx: Arx-style per-occurrence tokens (indexable, non-repeating
	// ciphertexts) — the §VI integration target.
	TechArx
	// TechShamir: Shamir secret-sharing linear scan across three
	// non-colluding clouds (access-pattern hiding, γ >> 1).
	TechShamir
	// TechSimOpaque and TechSimJana: calibrated cost models of the SGX and
	// MPC systems of Table VI; real crypto plus virtual time.
	TechSimOpaque
	TechSimJana
	// TechDPFPIR: two-server private information retrieval over
	// distributed point functions — full access-pattern hiding at linear
	// scan cost.
	TechDPFPIR
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case TechNoInd:
		return "NoInd"
	case TechDetIndex:
		return "DetIndex"
	case TechArx:
		return "Arx"
	case TechShamir:
		return "ShamirScan"
	case TechSimOpaque:
		return "SimOpaque"
	case TechSimJana:
		return "SimJana"
	case TechDPFPIR:
		return "DPF-PIR"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Config configures a Client.
type Config struct {
	// MasterKey is the owner's root secret; all sub-keys are derived from
	// it. Required.
	MasterKey []byte
	// Attr is the searchable attribute name. Required.
	Attr string
	// Technique picks the cryptographic mechanism (default TechNoInd).
	Technique Technique
	// Seed, when non-nil, makes the secret bin permutation deterministic
	// (tests and reproducible experiments only — production should leave
	// it nil for a cryptographically random permutation).
	Seed *uint64
	// DisableFakePadding turns off §IV-B volume equalisation (attack
	// demonstrations only).
	DisableFakePadding bool
	// DisableNearestSquare forces unmodified Algorithm 1 factorisation.
	DisableNearestSquare bool
	// CloudAddr, when non-empty, connects to a remote qbcloud process at
	// this address instead of hosting the cloud stores in-process. Only
	// store-backed techniques (NoInd, DetIndex, Arx) support remote mode.
	CloudAddr string
	// Ring, when non-empty, connects to a qbring coordinator at this
	// address instead of a single qbcloud: the client pulls the placement
	// directory once, then routes this namespace's view to its R replicas
	// directly — writes fan out to every in-sync replica, reads stick to
	// the nearest live one and fail over instantly when it dies. Mutually
	// exclusive with CloudAddr; Reconnect is implied by the ring
	// transport (each node connection self-heals with fast failover
	// timeouts) and ignored.
	Ring string
	// Reconnect, when set, wraps the cloud connection in a reconnecting
	// transport: a transport failure — the cloud restarting, a dropped
	// TCP session — no longer poisons the client permanently. Instead the
	// transport redials with capped exponential backoff, re-runs the
	// protocol handshake, re-ships the clear-text partition, resyncs the
	// encrypted address space and replays any un-acknowledged encrypted
	// uploads (exactly once), while in-flight queries block and then
	// retry. The price is an owner-side mirror of the clear-text
	// partition.
	Reconnect bool
	// DisableCache turns off the owner-side version cache that is on by
	// default for remote clouds: cross-query reuse of the pulled column,
	// decrypted payloads and index lookups, revalidated per query against
	// the server's cheap version counter (never served stale — see
	// docs/ARCHITECTURE.md). Disable it to reproduce the uncached wire
	// profile of earlier versions. In-process clouds never cache: their
	// store reads are free and the paper's cost tables assume the
	// per-query pull.
	DisableCache bool
	// CacheBytes bounds the owner-side cache footprint in bytes
	// (0 = technique.DefaultCacheBytes). Ignored when the cache is off.
	CacheBytes int
	// Store selects the cloud-side namespace this client's relation lives
	// in when CloudAddr is set. One qbcloud hosts any number of named
	// store pairs, each with its own address space, token index and
	// clear-text relation, so several clients (or tenants) share one
	// server by picking distinct names. Empty selects the server's
	// default store — the single implicit store of earlier versions.
	// Names ending in "/columns" are reserved (vertical clients keep
	// their sensitive-column relation in that sibling namespace) and
	// rejected. Ignored for in-process clouds, which are private to the
	// client.
	Store string
}

// Client is the trusted DB owner side of the system: it partitions,
// encrypts, outsources and queries through QB.
type Client struct {
	owner  *owner.Owner
	cfg    Config
	remote wire.Backend     // the Config.Store namespace view; non-nil when CloudAddr is set
	cache  *technique.Cache // owner-side version cache; nil when disabled or in-process

	// transport is the shared connection remote is a view of.
	// ownsTransport is false for sub-clients composed over a transport
	// someone else closes (e.g. a vertical client's two namespaces on one
	// connection).
	transport     wire.Transport
	ownsTransport bool
}

// checkStoreName rejects namespaces reserved for vertical clients: a
// regular client landing in some vertical client's "/columns" sibling
// would interleave differently keyed ciphertexts in one store — exactly
// the corruption the namespace split exists to prevent.
func checkStoreName(store string) error {
	if strings.HasSuffix(store, "/columns") {
		return fmt.Errorf("repro: Config.Store %q: the \"/columns\" suffix is reserved for the sensitive-column namespace of vertical clients", store)
	}
	return nil
}

// dialTransport opens the shared connection to Config.CloudAddr or the
// ring transport to Config.Ring; nil when the cloud is in-process.
func dialTransport(cfg Config) (wire.Transport, error) {
	if cfg.Ring != "" {
		if cfg.CloudAddr != "" {
			return nil, errors.New("repro: Config.Ring and Config.CloudAddr are mutually exclusive")
		}
		if err := checkStoreName(cfg.Store); err != nil {
			return nil, err
		}
		return ring.DialRouter(cfg.Ring, ring.RouterOptions{})
	}
	if cfg.CloudAddr == "" {
		return nil, nil
	}
	if err := checkStoreName(cfg.Store); err != nil {
		return nil, err
	}
	if cfg.Reconnect {
		return wire.DialReconnect(cfg.CloudAddr, wire.ReconnectOptions{})
	}
	return wire.Dial(cfg.CloudAddr)
}

// NewClient validates the configuration and builds the client.
func NewClient(cfg Config) (*Client, error) {
	transport, err := dialTransport(cfg)
	if err != nil {
		return nil, err
	}
	c, err := newClientOn(cfg, transport, true)
	if err != nil && transport != nil {
		transport.Close()
	}
	return c, err
}

// newClientOn builds a client over an already-open transport (nil for an
// in-process cloud), selecting the Config.Store namespace view. The
// caller keeps responsibility for closing the transport unless owns is
// true.
func newClientOn(cfg Config, transport wire.Transport, owns bool) (*Client, error) {
	if len(cfg.MasterKey) == 0 {
		return nil, errors.New("repro: Config.MasterKey is required")
	}
	if cfg.Attr == "" {
		return nil, errors.New("repro: Config.Attr is required")
	}
	keys := crypto.DeriveKeys(cfg.MasterKey)

	var remote wire.Backend
	if transport != nil {
		remote = transport.Store(cfg.Store)
		// Control plane: the first write claims the namespace for this
		// master key, making the owner-authenticated admin ops (stats,
		// drop, compact — see cmd/qbadmin) available to it alone.
		remote.SetAdminToken(wire.OwnerToken(cfg.MasterKey, cfg.Store))
	}
	encStore := func() technique.EncStore {
		if remote != nil {
			return remote
		}
		return storage.NewEncryptedStore()
	}

	var (
		tech technique.Technique
		err  error
	)
	switch cfg.Technique {
	case TechNoInd:
		tech, err = technique.NewNoIndOn(keys, encStore())
	case TechDetIndex:
		tech, err = technique.NewDetIndexOn(keys, encStore())
	case TechArx:
		tech, err = technique.NewArxOn(keys, encStore())
	case TechShamir:
		tech, err = technique.NewShamirScan(keys, 3, 2)
	case TechSimOpaque:
		tech, err = technique.NewSimOpaque(keys)
	case TechSimJana:
		tech, err = technique.NewSimJana(keys)
	case TechDPFPIR:
		tech, err = technique.NewDPFPIR(keys)
	default:
		err = fmt.Errorf("repro: unknown technique %v", cfg.Technique)
	}
	if err != nil {
		return nil, err
	}
	if remote != nil {
		switch cfg.Technique {
		case TechNoInd, TechDetIndex, TechArx:
			// Store-backed techniques run remote.
		default:
			return nil, fmt.Errorf("repro: technique %v does not support a remote cloud", cfg.Technique)
		}
	}
	// The owner-side version cache is on by default against a remote
	// cloud, where the per-query column pull it kills is a real network
	// transfer; techniques without a cached path (Arx) simply ignore it.
	var cache *technique.Cache
	if remote != nil && !cfg.DisableCache {
		cache = technique.NewCache(cfg.CacheBytes)
		if cs, ok := tech.(interface{ SetCache(*technique.Cache) }); ok {
			cs.SetCache(cache)
		} else {
			cache = nil
		}
	}
	o := owner.New(tech, cfg.Attr)
	if remote != nil {
		o.SetCloudBackend(remote)
	}
	return &Client{
		owner: o, cfg: cfg, remote: remote, cache: cache,
		transport: transport, ownsTransport: owns,
	}, nil
}

// CacheStats re-exports the owner-side cache accounting.
type CacheStats = technique.CacheStats

// CacheStats reports the cumulative effect of the owner-side version
// cache; the zero value when the cache is off (in-process clouds,
// Config.DisableCache, or a technique without a cached path).
func (c *Client) CacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	return c.cache.Stats()
}

// Close releases the remote cloud connections (and their mux goroutines)
// when Config.CloudAddr is set; for an in-process cloud it is a no-op.
// The cloud-side state outlives the client — see SaveMetadata/Resume.
func (c *Client) Close() error {
	if c.transport == nil || !c.ownsTransport {
		return nil
	}
	return c.transport.Close()
}

// SaveMetadata persists the owner-side state (bins, value counts, fake
// ledger) after Outsource. Store it as securely as the master key: it
// contains plaintext values and frequencies.
func (c *Client) SaveMetadata(w io.Writer) error {
	if err := c.flushRemote(); err != nil {
		return err
	}
	return c.owner.SaveMetadata(w)
}

// Resume restores a previously saved owner state against the already-
// populated remote cloud of Config.CloudAddr, skipping Outsource entirely.
// The configuration (master key, technique, attribute) must match the
// session that saved the metadata.
func (c *Client) Resume(r io.Reader) error {
	if c.remote == nil {
		return errors.New("repro: Resume requires Config.CloudAddr (the cloud must outlive the owner)")
	}
	return c.owner.LoadMetadata(r, c.remote)
}

func (c *Client) binOptions() core.Options {
	opts := core.Options{
		DisableFakePadding:   c.cfg.DisableFakePadding,
		DisableNearestSquare: c.cfg.DisableNearestSquare,
	}
	if c.cfg.Seed != nil {
		opts.Rand = mrand.New(mrand.NewPCG(*c.cfg.Seed, *c.cfg.Seed^0x6a09e667f3bcc908))
	}
	return opts
}

// Outsource partitions r by the sensitivity predicate and uploads both
// partitions: the non-sensitive one in clear-text, the sensitive one
// through the configured technique with fake-tuple padding. It also builds
// the QB bins from the value-frequency metadata.
func (c *Client) Outsource(r *Relation, sensitive func(Tuple) bool) error {
	if err := c.owner.Outsource(r, sensitive, c.binOptions()); err != nil {
		return err
	}
	return c.flushRemote()
}

// flushRemote pushes buffered encrypted uploads to a remote cloud so the
// outsourced state is durable there.
func (c *Client) flushRemote() error {
	if c.remote == nil {
		return nil
	}
	return c.remote.Flush()
}

// remoteLogicalCount snapshots the remote backend's per-op error counter
// before a query, so remoteErrSince can detect failures the backend's
// void interface methods (Search, AttrColumn, ...) swallowed into zero
// values during that window.
func (c *Client) remoteLogicalCount() uint64 {
	if c.remote == nil {
		return 0
	}
	return c.remote.LogicalErrCount()
}

// remoteErrSince surfaces remote failures that happened since the
// `before` snapshot: the backend's sticky transport error, or any per-op
// error recorded inside the window. Counting (rather than draining a
// shared error slot) keeps concurrent queries from consuming each
// other's failures: every query whose window saw an error fails, so a
// dead qbcloud yields errors instead of silently empty results.
func (c *Client) remoteErrSince(before uint64) error {
	if c.remote == nil {
		return nil
	}
	if err := c.remote.Err(); err != nil {
		return err
	}
	if c.remote.LogicalErrCount() != before {
		return c.remote.LogicalErr()
	}
	return nil
}

// finishRemote folds a remote failure observed since the `before`
// snapshot into err (queries with multi-value returns bracket manually;
// single-value ones go through withRemoteCheck).
func (c *Client) finishRemote(before uint64, err error) error {
	if err == nil {
		err = c.remoteErrSince(before)
	}
	return err
}

// withRemoteCheck brackets a query with the remote failure check.
func withRemoteCheck[T any](c *Client, run func() (T, error)) (T, error) {
	before := c.remoteLogicalCount()
	out, err := run()
	return out, c.finishRemote(before, err)
}

// Query runs SELECT * WHERE attr = w through QB and returns exactly the
// matching tuples (fakes and bin co-residents are filtered owner-side).
func (c *Client) Query(w Value) ([]Tuple, error) {
	return withRemoteCheck(c, func() ([]Tuple, error) {
		ts, _, err := c.owner.Query(w)
		return ts, err
	})
}

// QueryWithStats is Query plus the cost breakdown.
func (c *Client) QueryWithStats(w Value) ([]Tuple, *QueryStats, error) {
	before := c.remoteLogicalCount()
	ts, stats, err := c.owner.Query(w)
	return ts, stats, c.finishRemote(before, err)
}

// QueryNaive executes the insecure non-binned strawman of Example 2; it
// exists so that the attack examples can demonstrate the leak QB prevents.
func (c *Client) QueryNaive(w Value) ([]Tuple, error) {
	return withRemoteCheck(c, func() ([]Tuple, error) {
		ts, _, err := c.owner.QueryNaive(w)
		return ts, err
	})
}

// QueryRange runs SELECT * WHERE lo <= attr <= hi through bin-cover
// rewriting (full-version extension).
func (c *Client) QueryRange(lo, hi Value) ([]Tuple, error) {
	return withRemoteCheck(c, func() ([]Tuple, error) {
		ts, _, err := c.owner.QueryRange(lo, hi)
		return ts, err
	})
}

// Insert adds one tuple after outsourcing, re-binning if its searchable
// value is new and rebalancing fake padding (full-version extension).
func (c *Client) Insert(t Tuple, sensitive bool) error {
	if err := c.owner.Insert(t, sensitive); err != nil {
		return err
	}
	return c.flushRemote()
}

// AggOp re-exports the aggregation operators.
type AggOp = owner.AggOp

// Aggregation operators for QueryAggregate.
const (
	AggCount = owner.AggCount
	AggSum   = owner.AggSum
	AggMin   = owner.AggMin
	AggMax   = owner.AggMax
)

// QueryAggregate computes COUNT/SUM/MIN/MAX(col) over the selection
// attr = w; the adversarial view is identical to a plain selection.
func (c *Client) QueryAggregate(w Value, col string, op AggOp) (int64, error) {
	return withRemoteCheck(c, func() (int64, error) {
		return c.owner.QueryAggregate(w, col, op)
	})
}

// Join equi-joins this client's relation with other's on their searchable
// attributes, entirely through QB retrievals (full-version extension).
func (c *Client) Join(other *Client) ([]JoinPair, error) {
	before, otherBefore := c.remoteLogicalCount(), other.remoteLogicalCount()
	pairs, err := c.owner.Join(other.owner)
	err = c.finishRemote(before, err)
	return pairs, other.finishRemote(otherBefore, err)
}

// AdversarialViews returns everything the honest-but-curious cloud has
// observed so far — the input to the attack suite.
func (c *Client) AdversarialViews() []AdversarialView {
	if c.owner.Server() == nil {
		return nil
	}
	return c.owner.Server().Views()
}

// VerticalClient handles relations with column-level sensitivity on top of
// row-level sensitivity (Figure 2 of the paper): the named sensitive
// columns are carved into an always-encrypted side relation keyed by the
// searchable attribute, while the remaining columns flow through the usual
// QB row partitioning. Queries return reassembled full-schema tuples.
type VerticalClient struct {
	v    *owner.VerticalOwner
	main *Client
	cols *Client

	// transport is the shared connection both sub-clients' namespaces
	// ride on (nil in-process); the vertical client owns and closes it.
	transport wire.Transport
}

// verticalColumnsStore names the namespace the sensitive-column relation
// lives in: the main store's name plus a "/columns" suffix, so one
// Config.Store value yields a disjoint pair.
func verticalColumnsStore(store string) string {
	if store == "" {
		store = wire.DefaultStore
	}
	return store + "/columns"
}

// NewVerticalClient builds a vertical client: cfg configures the
// row-partitioned residual (as in NewClient), and sensitiveCols names the
// columns that must never appear in clear-text regardless of row
// sensitivity.
//
// With Config.CloudAddr set, the two sub-clients — which encrypt under
// different derived keys — are composed over one shared connection but
// two distinct cloud-side namespaces: the residual relation lives in
// Config.Store and the sensitive columns in its "/columns" sibling, so
// the differently keyed ciphertexts never interleave in one store and
// every whole-column decryption stays coherent.
func NewVerticalClient(cfg Config, sensitiveCols []string) (*VerticalClient, error) {
	transport, err := dialTransport(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*VerticalClient, error) {
		if transport != nil {
			transport.Close()
		}
		return nil, err
	}
	main, err := newClientOn(cfg, transport, false)
	if err != nil {
		return fail(err)
	}
	colsCfg := cfg
	colsCfg.MasterKey = append(append([]byte(nil), cfg.MasterKey...), []byte("/columns")...)
	colsCfg.Store = verticalColumnsStore(cfg.Store)
	colsClient, err := newClientOn(colsCfg, transport, false)
	if err != nil {
		return fail(err)
	}
	v := owner.NewVertical(main.owner.Technique(), colsClient.owner.Technique(), cfg.Attr, sensitiveCols)
	if main.remote != nil {
		// The vertical owner builds a fresh inner owner around the main
		// technique; its clear-text partition must reach the same remote
		// namespace as the technique's encrypted one.
		v.Main().SetCloudBackend(main.remote)
	}
	return &VerticalClient{v: v, main: main, cols: colsClient, transport: transport}, nil
}

// Close releases the shared remote transport both sub-clients ride on;
// for an in-process vertical client it is a no-op. The cloud-side state
// of both namespaces outlives the client.
func (c *VerticalClient) Close() error {
	if c.transport == nil {
		return nil
	}
	return c.transport.Close()
}

// flushRemote pushes both namespaces' buffered encrypted uploads.
func (c *VerticalClient) flushRemote() error {
	if err := c.main.flushRemote(); err != nil {
		return err
	}
	return c.cols.flushRemote()
}

// Outsource splits r by column and row sensitivity and uploads all three
// parts.
func (c *VerticalClient) Outsource(r *Relation, rowSensitive func(Tuple) bool) error {
	if err := c.v.Outsource(r, rowSensitive, c.main.binOptions()); err != nil {
		return err
	}
	return c.flushRemote()
}

// Query returns full original-schema tuples with attr = w. Remote
// failures on either namespace surface as errors (the sub-clients share
// one transport, so one bracket observes both).
func (c *VerticalClient) Query(w Value) ([]Tuple, error) {
	return withRemoteCheck(c.main, func() ([]Tuple, error) { return c.v.Query(w) })
}

// AdversarialViews exposes the main cloud's view log.
func (c *VerticalClient) AdversarialViews() []AdversarialView {
	if c.v.Main().Server() == nil {
		return nil
	}
	return c.v.Main().Server().Views()
}

// BinningSummary describes the current bin layout.
type BinningSummary struct {
	SensitiveBins    int
	NonSensitiveBins int
	FakeTuples       int
	TargetVolume     int
	MetadataBytes    int
	Reversed         bool
}

// Binning reports the current bin layout (zero value before Outsource).
func (c *Client) Binning() BinningSummary {
	b := c.owner.Bins()
	if b == nil {
		return BinningSummary{}
	}
	return BinningSummary{
		SensitiveBins:    b.SensitiveBinCount(),
		NonSensitiveBins: b.NonSensitiveBinCount(),
		FakeTuples:       b.TotalFakeTuples(),
		TargetVolume:     b.TargetVolume,
		MetadataBytes:    b.MetadataBytes(),
		Reversed:         b.Reversed,
	}
}
