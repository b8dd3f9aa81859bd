// Package wire is the binary protocol between internal/client and
// internal/server — the "real wire" the paper's ad hoc transactions
// coordinate over. The studied applications talk to MySQL/PostgreSQL/Redis
// through length-prefixed binary protocols whose error codes drive the ad hoc
// retry loops (§3.2.2); this package reproduces that substrate: framed
// request/response codecs for BEGIN/STMT/COMMIT/ROLLBACK and KV commands, a
// versioned handshake, and typed error frames that round-trip the engine's
// sentinel errors (deadlock, lock timeout, serialization failure) so a remote
// client can branch on them exactly as a local caller branches on
// engine.ErrDeadlock.
//
// Framing: every message is a 4-byte big-endian length followed by that many
// payload bytes; the first payload byte is the message type. Frames are
// capped at MaxFrame to bound server-side memory per connection. A frame is
// built in one buffer (StartFrame reserves the prefix) and crosses the socket
// in one Write; the receiving end reads through one bufio.Reader per
// connection, so a frame costs one syscall each way.
//
// Allocation contract: encoding a request or response into a reused buffer
// performs zero heap allocations once the buffer has warmed to its working
// capacity. Decoding allocates only what the decoded message references:
// at most 2 allocations for a fixed-shape message (the string table/key), plus
// one per string/row/value slice element for variable-shape messages. The
// bound is asserted by TestCodecAllocBounds and tracked by
// BenchmarkRoundTrip.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adhoctx/internal/engine"
)

// ProtocolVersion is the current protocol revision. The handshake rejects
// mismatched peers: retry semantics are encoded in error codes, so silently
// cross-wiring versions could turn a non-retryable failure into a retry storm.
//
// History: v1 was the single-node request/response protocol. v2 adds the
// replication frames (REPL_SUBSCRIBE/BATCH/ACK/SNAPSHOT), the commit-LSN
// response field, read-only BEGIN with a bounded-staleness floor, and the
// routing codes (NOT_LEADER, WRONG_PARTITION, STALE_READ). A v1 peer cannot
// express any of that, so the handshake rejects it with ErrVersionMismatch —
// typed, not a hang — and replies with this side's version so the peer can
// diagnose.
const ProtocolVersion uint16 = 2

// MaxFrame bounds a single frame's payload. A request naming one table and a
// handful of values is a few hundred bytes; 1 MiB leaves room for bulk row
// responses while keeping a malicious length prefix from ballooning memory.
const MaxFrame = 1 << 20

// magic opens the handshake in both directions.
var magic = [4]byte{'A', 'H', 'T', 'X'}

// ErrVersionMismatch reports a handshake with an incompatible peer.
var ErrVersionMismatch = errors.New("wire: protocol version mismatch")

// ErrFrameTooLarge reports a frame whose length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Op enumerates request message types.
type Op uint8

// Request operations.
const (
	OpInvalid Op = iota
	OpBegin      // iso
	OpCommit
	OpRollback
	OpSelect // lock, table, pred
	OpInsert // table, cols, vals
	OpUpdate // table, pred, cols, vals
	OpDelete // table, pred
	OpKV     // kvcmd + args
	OpPing
)

// String implements fmt.Stringer (metric labels, errors).
func (o Op) String() string {
	switch o {
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpRollback:
		return "rollback"
	case OpSelect:
		return "select"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpKV:
		return "kv"
	case OpPing:
		return "ping"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Ops lists every valid operation (metric pre-registration).
var Ops = []Op{OpBegin, OpCommit, OpRollback, OpSelect, OpInsert, OpUpdate, OpDelete, OpKV, OpPing}

// KVCmd enumerates the KV sub-commands carried by OpKV.
type KVCmd uint8

// KV sub-commands, mirroring kv.Conn's method set.
const (
	KVInvalid KVCmd = iota
	KVGet
	KVExists
	KVSet
	KVSetPX
	KVSetNX
	KVSetNXPX
	KVDel
	KVExpire
	KVTTL
	KVSAdd
	KVSRem
	KVSIsMember
	KVSMembers
	KVWatch
	KVUnwatch
	KVMulti
	KVDiscard
	KVExec
)

// Lock mirrors engine.SelectOpt over the wire.
type Lock uint8

// Select lock modes.
const (
	LockNone Lock = iota
	LockForUpdate
	LockForShare
)

// Code is a typed error code carried by error frames. Codes — not error
// strings — are the retry contract: the client retries exactly the codes the
// paper's ad hoc loops retry (deadlock, serialization failure) plus admission
// rejection.
type Code uint16

// Error codes. CodeOK never appears in an error frame.
const (
	CodeOK Code = iota
	CodeDeadlock
	CodeSerialization
	CodeLockTimeout
	CodeTxnDone
	CodeConnLost
	CodeDuplicateKey
	CodeNoTable
	CodeBadRequest // malformed frame or protocol misuse (incl. KV misuse)
	CodeNoTxn      // COMMIT/ROLLBACK/STMT with no open transaction
	CodeTxnOpen    // BEGIN while a transaction is already open
	CodeSaturated  // admission controller rejected the session/request
	CodeShutdown   // server is draining
	CodeInternal
	// Routing codes (v2). These are redirects, not failures: the router
	// refreshes its topology view and re-routes rather than blindly
	// re-running the transaction on the same node.
	CodeNotLeader      // write sent to a follower; Msg carries the leader addr hint
	CodeWrongPartition // statement touched a key this node's partition does not own
	CodeStaleRead      // follower applied-LSN below the session's MinLSN floor
	// CodeOCCConflict is an optimistic-mode commit validation failure
	// (engine.ErrOCCConflict): retryable, like deadlock and serialization.
	CodeOCCConflict
)

// String implements fmt.Stringer.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeDeadlock:
		return "deadlock"
	case CodeSerialization:
		return "serialization"
	case CodeLockTimeout:
		return "lock_timeout"
	case CodeTxnDone:
		return "txn_done"
	case CodeConnLost:
		return "conn_lost"
	case CodeDuplicateKey:
		return "duplicate_key"
	case CodeNoTable:
		return "no_table"
	case CodeBadRequest:
		return "bad_request"
	case CodeNoTxn:
		return "no_txn"
	case CodeTxnOpen:
		return "txn_open"
	case CodeSaturated:
		return "saturated"
	case CodeShutdown:
		return "shutdown"
	case CodeInternal:
		return "internal"
	case CodeNotLeader:
		return "not_leader"
	case CodeWrongPartition:
		return "wrong_partition"
	case CodeStaleRead:
		return "stale_read"
	case CodeOCCConflict:
		return "occ_conflict"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// CodeOf maps an error to its wire code. Engine sentinels map to their
// dedicated codes; anything unrecognised is CodeInternal.
func CodeOf(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, engine.ErrDeadlock):
		return CodeDeadlock
	case errors.Is(err, engine.ErrSerialization):
		return CodeSerialization
	case errors.Is(err, engine.ErrOCCConflict):
		return CodeOCCConflict
	case errors.Is(err, engine.ErrLockTimeout):
		return CodeLockTimeout
	case errors.Is(err, engine.ErrTxnDone):
		return CodeTxnDone
	case errors.Is(err, engine.ErrConnLost):
		return CodeConnLost
	case errors.Is(err, engine.ErrDuplicateKey):
		return CodeDuplicateKey
	case errors.Is(err, engine.ErrNoTable):
		return CodeNoTable
	default:
		return CodeInternal
	}
}

// sentinelOf returns the engine sentinel a code unwraps to, or nil.
func sentinelOf(c Code) error {
	switch c {
	case CodeDeadlock:
		return engine.ErrDeadlock
	case CodeSerialization:
		return engine.ErrSerialization
	case CodeOCCConflict:
		return engine.ErrOCCConflict
	case CodeLockTimeout:
		return engine.ErrLockTimeout
	case CodeTxnDone:
		return engine.ErrTxnDone
	case CodeConnLost:
		return engine.ErrConnLost
	case CodeDuplicateKey:
		return engine.ErrDuplicateKey
	case CodeNoTable:
		return engine.ErrNoTable
	default:
		return nil
	}
}

// Error is a typed wire error decoded from an error frame. It unwraps to the
// corresponding engine sentinel, so remote callers keep their
// errors.Is(err, engine.ErrDeadlock) branches unchanged.
type Error struct {
	Code Code
	Msg  string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wire: %s", e.Code)
	}
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
}

// Unwrap maps the code back onto the engine sentinel (nil for codes with no
// engine counterpart).
func (e *Error) Unwrap() error { return sentinelOf(e.Code) }

// Retryable reports whether the whole transaction should be retried — the
// codes the paper's ad hoc retry loops branch on, plus admission rejection
// (retry after backoff, like HTTP 503).
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeDeadlock, CodeSerialization, CodeOCCConflict, CodeSaturated:
		return true
	default:
		return false
	}
}

// AsError extracts a typed wire error from err.
func AsError(err error) (*Error, bool) {
	var we *Error
	if errors.As(err, &we) {
		return we, true
	}
	return nil, false
}

// IsRetryable reports whether err is a retryable typed wire error.
func IsRetryable(err error) bool {
	we, ok := AsError(err)
	return ok && we.Retryable()
}

// ---- framing ----

// frameHeaderLen is the size of the length prefix every frame opens with.
const frameHeaderLen = 4

// StartFrame empties b (keeping its capacity) and reserves the length
// prefix, ready for an Append* encoder to add the payload behind it. The
// prefix lives in the same reused buffer as the payload, so a finished frame
// leaves in one Write with no copy and no allocation:
//
//	buf = wire.StartFrame(buf)
//	buf, err = wire.AppendRequest(buf, req)
//	err = wire.WriteFrame(conn, buf)
func StartFrame(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// SealFrame fills in the length prefix of a frame begun with StartFrame.
// WriteFrame does this itself; only a frame several goroutines will send
// (a replication batch fanned out to every follower) is sealed once by its
// builder and then written as is.
func SealFrame(frame []byte) error {
	n := len(frame) - frameHeaderLen
	if n < 0 {
		return errors.New("wire: frame not begun with StartFrame")
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// WriteFrame seals frame and sends it, prefix and payload, in a single
// Write: one syscall and one segment on a TCP_NODELAY socket, so the peer
// wakes once per frame.
func WriteFrame(w io.Writer, frame []byte) error {
	if err := SealFrame(frame); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame into buf (grown as needed) and returns the
// payload slice, which aliases buf and is valid until the next call. Every
// caller hands it the connection's one bufio.Reader, so the prefix and the
// payload of a frame that arrived whole cost a single Read of the socket.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The prefix is read into buf too: a local array would escape through
	// the io.Reader and cost an allocation per frame.
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ---- handshake ----

// hello is the fixed-size handshake message: magic + version.
func hello() [6]byte {
	var h [6]byte
	copy(h[:4], magic[:])
	binary.BigEndian.PutUint16(h[4:], ProtocolVersion)
	return h
}

// ClientHandshake sends the client hello and validates the server's reply.
func ClientHandshake(rw io.ReadWriter) error {
	h := hello()
	if _, err := rw.Write(h[:]); err != nil {
		return err
	}
	return readHello(rw)
}

// ServerHandshake validates the client hello and replies with the server's
// own version. On a version mismatch the reply is still sent (carrying the
// server's version, so the client can diagnose) before the error is
// returned; a peer with bad magic is not a protocol speaker at all and gets
// no reply.
func ServerHandshake(rw io.ReadWriter) error {
	err := readHello(rw)
	if err != nil && !errors.Is(err, ErrVersionMismatch) {
		return err
	}
	h := hello()
	if _, werr := rw.Write(h[:]); werr != nil && err == nil {
		err = werr
	}
	return err
}

func readHello(r io.Reader) error {
	var h [6]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return err
	}
	if [4]byte(h[:4]) != magic {
		return fmt.Errorf("wire: bad handshake magic %q", h[:4])
	}
	if v := binary.BigEndian.Uint16(h[4:]); v != ProtocolVersion {
		return fmt.Errorf("%w: peer speaks v%d, this side v%d", ErrVersionMismatch, v, ProtocolVersion)
	}
	return nil
}
