// Package wire implements a multiplexed owner↔cloud network protocol so
// the untrusted cloud can run as a separate process: length-prefixed
// frames over any net.Conn carrying a hand-rolled binary codec for the
// hot data-plane ops (and gob for the cold ones), a server hosting any
// number of named store pairs (clear-text + encrypted), and clients that
// plug into the owner as a cloud.PlainBackend and into any technique as a
// technique.EncStore.
//
// Every request carries a client-assigned ID echoed by its response, so
// many calls can be in flight on one connection at once: the client runs
// a writer goroutine (frames requests in submission order) and a
// reader goroutine (demultiplexes responses by ID back to the waiting
// callers), and the server dispatches the ops decoded from one connection
// concurrently through a bounded worker pool, serialising only the
// response frames. Responses may therefore arrive in any order; ordering
// guarantees come from callers blocking on their own response, not from
// the transport.
//
// Namespaces: every request addresses a named store, so one cloud serves
// any number of independently keyed relations side by side (the
// multi-relation outsourcing model of the paper's successors). A
// connection is shared across namespaces — Client.WithStore and
// Reconnector.WithStore return per-namespace views implementing the full
// Backend surface — and
// the server keeps per-store state and per-store locks, so tenants never
// contend except on the transport itself.
//
// The protocol is versioned: the first message on every connection must
// be an opHello carrying ProtocolVersion, exchanged as plain gob exactly
// like earlier generations. A server refuses to dispatch anything before
// a matching hello (it answers with an explicit version-mismatch error
// instead of misrouting the op into a default namespace), and a client
// refuses to proceed against a server that cannot echo its version — so
// mixing protocol generations fails loudly at the first call rather than
// corrupting either side's stores. Only after a successful v3↔v3 hello do
// both directions switch to length-prefixed frames: the binary codec
// (codec.go) for hot ops, gob frames for the rest, with large row pulls
// streamed in bounded chunks (see frame.go).
//
// Reads come in batched flavours too: opEncFetchBatch serves one address
// list per query of a batched search in a single round trip, which is how
// StoreClient satisfies technique.BatchEncStore and how a remote QueryBatch
// avoids paying one network latency per query.
//
// The control plane rides the same protocol: namespace lifecycle ops
// (list/stats/drop/compact) authenticated by a per-namespace owner token
// derived from the owner's master key (OwnerToken; the cloud stores only
// its hash, claimed by the namespace's first write), a Reconnector that
// survives transport failure by redialing, re-handshaking and replaying
// retained uploads exactly once, and two-level dispatch admission
// (per-connection plus per-namespace) so tenants sharing a connection
// cannot starve each other.
//
// The protocol deliberately mirrors what the paper's adversary observes:
// the clear-text side travels in the clear (the cloud owns that data
// anyway), while the encrypted side carries only ciphertexts, tokens and
// addresses. A production deployment would wrap the conn in TLS (the paper
// assumes a secure channel against eavesdroppers); that is orthogonal to
// the protocol.
package wire

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/storage"
)

// ProtocolVersion is the wire protocol generation. Version 6 made the
// client mutation ops conditional: opPlainInsert and opEncAddBatch carry
// the length the writer expects the partition to hold (request.Have) and
// the server applies them only if it still does, so a mutation that races
// anti-entropy repair — a tail copy or snapshot restore landing between
// the writer learning the length and the write arriving — is refused
// cleanly instead of appending rows the repaired state already contains.
// It also added opRingRepair, the targeted repair trigger a writer uses
// to readmit a quarantined replica without waiting for the next sweep.
// Version 5 added the ring plane: the directory op a qbring coordinator
// serves (opRingDirectory) and the replication/repair ops between ring
// peers (opStoreInfo, opStoreSnapshot, opStoreRestore, opRepairAppend),
// the latter three guarded by a cluster-wide ring token. Version 4 added
// namespace version counters and the conditional column/row pulls built
// on them (opEncVersion, opEncAttrColumnIf, opEncRowsIf) plus the
// per-namespace admission override (opAdminSetWorkers); version 3
// introduced the framed transport (binary codec for hot ops, chunked row
// streaming) that both sides switch to after the hello; version 2
// introduced store namespaces and the mandatory hello handshake; version
// 1 (no handshake, single implicit store) is refused with an explicit
// error. The hello itself stays plain gob across generations, so any
// cross-generation skew fails with an explicit version error in both
// directions rather than unparseable frames.
const ProtocolVersion = 6

// DefaultStore is the namespace used when a request names none — the
// single implicit store of protocol v1, preserved so one-relation
// deployments need no configuration.
const DefaultStore = "default"

// op identifies a request type.
type op uint8

const (
	opPlainLoad op = iota + 1
	opPlainSearch
	opPlainSearchRange
	opPlainInsert
	opEncAdd
	opEncAddBatch
	opEncLen
	opEncAttrColumn
	opEncFetch
	opEncLookupToken
	opEncRows
	opPing
	// opEncFetchBatch serves a whole batch's bin fetches in one round
	// trip: one address list per query in, one row set per query out.
	opEncFetchBatch
	// opHello is the mandatory first frame on a connection: it carries
	// the client's ProtocolVersion and is echoed with the server's, so a
	// version skew fails the connection explicitly before any op can be
	// misrouted.
	opHello

	// Control-plane ops. opAdminList enumerates hosted namespaces (names
	// only — discovery needs no secret). The per-namespace ops are guarded
	// by the namespace's owner token (request.AdminToken): the cloud keeps
	// only a hash of the token, registered by the first tokened write to
	// the namespace, so only the data owner — who derives the token from
	// the master key — can inspect, destroy or compact an outsourced
	// partition.
	opAdminList
	opAdminStats
	opAdminDrop
	opAdminCompact

	// Version-validated caching ops (protocol v4). opEncVersion returns the
	// namespace's current storage.EncVersion. opEncAttrColumnIf and
	// opEncRowsIf are the conditional forms of opEncAttrColumn/opEncRows:
	// the request carries the version the client's cache was validated at
	// plus how many rows it holds, and the server answers with only the
	// missing suffix (delta) — an empty delta being a tiny not-modified
	// frame — or the full set when the epoch does not match.
	opEncVersion
	opEncAttrColumnIf
	opEncRowsIf

	// opAdminSetWorkers overrides the per-namespace admission bound
	// (-store-workers) for one namespace at runtime; owner-token-guarded
	// like the other per-namespace admin ops.
	opAdminSetWorkers

	// Ring plane (protocol v5). opRingDirectory asks a qbring coordinator
	// for the placement directory: the request's CondN carries the version
	// the client already holds, and the answer is either a tiny
	// not-modified frame (Delta=true) or the full directory as an opaque
	// gob blob plus its version. opStoreInfo is the cheap divergence probe
	// — existence, row counts and the (epoch, N) version of one namespace
	// on one node; it needs no secret, like opAdminList. The remaining
	// three move replica state between ring peers and are guarded by the
	// cluster's ring token (request.RingToken), a secret shared by the
	// nodes and the coordinator but never by tenants: opStoreSnapshot
	// exports one namespace as a self-contained snapshot blob,
	// opStoreRestore installs such a blob wholesale (the fresh/lagging-
	// node rejoin path), and opRepairAppend appends a tail delta of
	// encrypted rows with a compare-and-swap on the replica's current
	// length (the anti-entropy path).
	opRingDirectory
	opStoreInfo
	opStoreSnapshot
	opStoreRestore
	opRepairAppend

	// opRingRepair (protocol v6) asks a qbring coordinator to run one
	// targeted anti-entropy round for the named namespace right now,
	// bypassing the sweep's divergence grace window. It exists for the
	// write path: when a writer readmitting a quarantined replica finds it
	// still short, waiting out the background sweep interval would leave
	// reads pinned to stale replicas for seconds; a targeted repair closes
	// the gap in one round trip. Like opStoreInfo it needs no secret — it
	// can only trigger work the coordinator performs on its own schedule
	// anyway, and the repair transfer itself is still ring-token-guarded
	// node-side.
	opRingRepair
)

// request is the single wire request envelope; fields are populated
// according to Op.
type request struct {
	// ID is assigned by the client, unique per connection, and echoed in
	// the matching response so concurrent in-flight calls can share one
	// connection.
	ID uint64
	Op op

	// Store names the namespace the op addresses; empty selects
	// DefaultStore. Ignored by opHello/opPing.
	Store string

	// Version is the client's ProtocolVersion (opHello only).
	Version int

	// AdminToken carries the namespace's owner token. On write ops
	// (opPlainLoad/opPlainInsert/opEncAddBatch) it registers the owner on
	// first write; on per-namespace admin ops it authenticates the caller.
	AdminToken []byte

	// Clear-text store fields.
	Schema relation.Schema
	Tuples []relation.Tuple
	Attr   string
	Values []relation.Value
	Lo, Hi relation.Value
	Tuple  relation.Tuple

	// Encrypted store fields.
	TupleCT []byte
	AttrCT  []byte
	Token   []byte
	Batch   []EncUpload
	Addrs   []int
	// AddrBatches is one address list per query (opEncFetchBatch).
	AddrBatches [][]int

	// Conditional-pull fields (opEncAttrColumnIf/opEncRowsIf): the version
	// the client's cache was last validated at and how many rows it holds.
	// The mutation ops reuse Have as their length CAS: opEncAddBatch and
	// opPlainInsert apply only if the partition still holds exactly Have
	// rows/tuples, answering a stale-write error (see IsStaleWrite)
	// otherwise; Have < 0 applies unconditionally.
	CondEpoch uint64
	CondN     uint64
	Have      int

	// Workers is the per-namespace admission override (opAdminSetWorkers):
	// n > 0 bounds the namespace to n concurrent ops, 0 lifts the bound for
	// this namespace, and n < 0 clears the override back to the server-wide
	// default.
	Workers int

	// RingToken authenticates intra-ring repair ops (opStoreRestore,
	// opRepairAppend): the cluster secret shared by nodes and the
	// coordinator, independent of any tenant's owner token. Servers not
	// configured with a ring token refuse these ops outright.
	RingToken []byte

	// Blob carries an opaque payload: the namespace snapshot installed by
	// opStoreRestore. (opRepairAppend reuses Batch for its rows and Have
	// for the length CAS; opRingDirectory reuses CondN for the version the
	// client already holds.)
	Blob []byte
}

// EncUpload is one encrypted row in a batched upload.
type EncUpload struct {
	TupleCT []byte
	AttrCT  []byte
	Token   []byte
}

// response is the single wire response envelope.
type response struct {
	// ID echoes the request ID this response answers.
	ID     uint64
	Err    string
	Addr   int
	N      int
	Tuples []relation.Tuple
	Rows   []storage.EncRow
	Addrs  []int
	// RowBatches is one row set per requested address list
	// (opEncFetchBatch), indexed like request.AddrBatches.
	RowBatches [][]storage.EncRow
	// Version is the server's ProtocolVersion (opHello only).
	Version int
	// Names lists hosted namespaces (opAdminList).
	Names []string
	// Stats is one namespace's accounting (opAdminStats).
	Stats StoreStats

	// Version-counter fields (opEncVersion and the conditional pulls): the
	// namespace's current version, and whether Rows is a suffix delta
	// relative to request.Have (true) or a full resend (false). On chunked
	// responses these ride every chunk; the client keeps the first chunk's
	// values. opRingDirectory reuses VerN for the directory version and
	// Delta for "not modified, keep what you hold".
	VerEpoch uint64
	VerN     uint64
	Delta    bool

	// Blob carries an opaque payload out: the directory blob
	// (opRingDirectory) or a namespace snapshot (opStoreSnapshot).
	Blob []byte
	// Info is one namespace's replica state on this node (opStoreInfo).
	Info StoreInfo
}

// StoreInfo is the divergence probe's answer: what one node holds for one
// namespace. Replicas of a namespace never share an epoch (epochs are
// per-instance random), so divergence detection compares the row counts —
// within one epoch the encrypted column is append-only, making "same
// length" equivalent to "same content" for replicas fed the same write
// stream in the same order.
type StoreInfo struct {
	// Exists reports whether the node hosts the namespace at all; the
	// probe never creates it.
	Exists bool
	// PlainTuples counts the clear-text partition's tuples (-1 when no
	// relation is loaded), EncRows the encrypted partition's rows.
	PlainTuples int
	EncRows     int
	// VerEpoch/VerN is the encrypted store's (epoch, N) version.
	VerEpoch uint64
	VerN     uint64
	// Claimed reports whether the namespace is owner-claimed.
	Claimed bool
}

// staleWriteMark prefixes every server-side stale-write rejection so the
// condition survives the string-typed error channel of the protocol.
const staleWriteMark = "wire: stale write"

// IsStaleWrite reports whether err is a server's rejection of a
// conditional mutation (opPlainInsert/opEncAddBatch with Have >= 0) whose
// expected length no longer matched. Nothing was applied: the server's
// partition moved underneath the writer — anti-entropy repair caught the
// replica up, or another writer shares the namespace — so the addresses
// the writer computed can no longer be honoured and it must re-learn the
// length before writing again. A ring client treats the refusing replica
// exactly like one that missed the write: quarantined until repair
// restores parity.
func IsStaleWrite(err error) bool {
	return err != nil && strings.Contains(err.Error(), staleWriteMark)
}

// storeName canonicalises a request's namespace.
func storeName(s string) string {
	if s == "" {
		return DefaultStore
	}
	return s
}
