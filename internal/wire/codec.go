package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"adhoctx/internal/storage"
)

// Request is the decoded form of one client request frame. One struct covers
// every operation so server sessions can decode into a single reused value;
// unused fields are zeroed by Reset.
type Request struct {
	Op   Op
	Iso  uint8 // begin: engine.Isolation
	Lock Lock  // OpSelect

	// Begin marks a statement (OpSelect/Insert/Update/Delete) that also opens
	// its transaction: it carries the begin trailer, the bytes OpBegin
	// carries (Iso, ReadOnly, MinLSN, OCC), and the server runs the begin
	// first. A rejected begin is the frame's answer and the statement does
	// not run. The trailer follows the statement body, so payload byte 1 is
	// still the statement's Op.
	Begin bool
	// ReadOnly marks the begun transaction as read-only: routable to a
	// follower replica. MinLSN is the bounded-staleness floor — the highest
	// commit LSN this client has observed; a follower whose applied LSN is
	// below it must reject the begin with CodeStaleRead rather than serve
	// reads from before the client's own writes.
	ReadOnly bool
	MinLSN   uint64
	// OCC asks for engine.ModeOCC execution: optimistic snapshot reads with
	// commit-time validation. Commit may fail with CodeOCCConflict.
	OCC bool

	Table string
	Pred  storage.Pred

	// Cols/Vals carry OpInsert values and OpUpdate set pairs (parallel
	// slices). OpUpdate values may be storage.Delta.
	Cols []string
	Vals []storage.Value

	// KV arguments.
	Cmd  KVCmd
	Key  string
	SVal string
	TTL  time.Duration
	Keys []string // KVWatch keys
}

// Reset clears the request for reuse, keeping slice capacity.
func (r *Request) Reset() {
	r.Op, r.Iso, r.Lock = OpInvalid, 0, LockNone
	r.Begin, r.ReadOnly, r.MinLSN, r.OCC = false, false, 0, false
	r.Table, r.Pred = "", nil
	r.Cols, r.Vals = r.Cols[:0], r.Vals[:0]
	r.Cmd, r.Key, r.SVal, r.TTL = KVInvalid, "", "", 0
	r.Keys = r.Keys[:0]
}

// Response is the decoded form of one server response frame. Code != CodeOK
// marks an error frame; the remaining fields answer the request that
// succeeded: N (insert pk / affected rows / kv integer), Bool (kv booleans),
// Str/Strs (kv strings), TTL, and Cols/Rows (select results).
type Response struct {
	Code Code
	Msg  string

	// LSN is the commit LSN on a successful OpCommit response (0 when the
	// transaction wrote nothing). Clients feed it back as MinLSN on later
	// read-only begins: the bounded-staleness handshake.
	LSN uint64

	N    int64
	Bool bool
	Str  string
	TTL  time.Duration
	Strs []string

	Cols []string
	Rows [][]storage.Value
}

// Reset clears the response for reuse, keeping slice capacity.
func (r *Response) Reset() {
	r.Code, r.Msg = CodeOK, ""
	r.LSN = 0
	r.N, r.Bool, r.Str, r.TTL = 0, false, "", 0
	r.Strs = r.Strs[:0]
	r.Cols = r.Cols[:0]
	r.Rows = r.Rows[:0]
}

// Err returns the response's typed error, or nil for CodeOK.
func (r *Response) Err() error {
	if r.Code == CodeOK {
		return nil
	}
	return &Error{Code: r.Code, Msg: r.Msg}
}

// ---- primitive encoders (append-style; zero allocations on warmed buffers) ----

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder walks a payload slice with bounds-checked reads.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = &Error{Code: CodeBadRequest, Msg: "truncated or malformed " + what}
	}
}

func (d *decoder) u8(what string) uint8 {
	if d.err != nil || d.off >= len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16(what string) uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str(what string) string {
	if d.err != nil {
		return ""
	}
	n, w := binary.Uvarint(d.b[d.off:])
	if w <= 0 || n > uint64(len(d.b)-d.off-w) {
		d.fail(what)
		return ""
	}
	d.off += w
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a uvarint element count, rejecting counts that could not fit in
// the remaining payload even at one byte per element (cheap bomb guard).
func (d *decoder) count(what string) int {
	if d.err != nil {
		return 0
	}
	n, w := binary.Uvarint(d.b[d.off:])
	if w <= 0 || n > uint64(len(d.b)-d.off-w) {
		d.fail(what)
		return 0
	}
	d.off += w
	return int(n)
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return &Error{Code: CodeBadRequest, Msg: "trailing bytes after message"}
	}
	return nil
}

// ---- value codec ----

// value tags.
const (
	tagNil uint8 = iota
	tagInt
	tagFloat
	tagString
	tagBool
	tagTime
	tagDelta // storage.Delta (relative update), requests only
)

func appendValue(b []byte, v storage.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int64:
		return appendUint64(append(b, tagInt), uint64(x)), nil
	case float64:
		return appendUint64(append(b, tagFloat), math.Float64bits(x)), nil
	case string:
		return appendString(append(b, tagString), x), nil
	case bool:
		if x {
			return append(b, tagBool, 1), nil
		}
		return append(b, tagBool, 0), nil
	case time.Time:
		return appendUint64(append(b, tagTime), uint64(x.UnixNano())), nil
	case storage.Delta:
		return appendUint64(append(b, tagDelta), uint64(x.N)), nil
	default:
		return b, fmt.Errorf("wire: unsupported value type %T", v)
	}
}

func (d *decoder) value() storage.Value {
	switch tag := d.u8("value tag"); tag {
	case tagNil:
		return nil
	case tagInt:
		return int64(d.u64("int value"))
	case tagFloat:
		return math.Float64frombits(d.u64("float value"))
	case tagString:
		return d.str("string value")
	case tagBool:
		return d.u8("bool value") != 0
	case tagTime:
		return time.Unix(0, int64(d.u64("time value")))
	case tagDelta:
		return storage.Delta{N: int64(d.u64("delta value"))}
	default:
		d.fail("value tag")
		return nil
	}
}

// ---- predicate codec ----

// predicate tags.
const (
	predAll uint8 = iota
	predEq
	predRange
	predAnd
)

// maxPredNodes bounds And fan-out per level (and, transitively, total nodes —
// nesting is capped at maxPredDepth).
const (
	maxPredNodes = 64
	maxPredDepth = 8
)

func appendPred(b []byte, p storage.Pred) ([]byte, error) {
	switch q := p.(type) {
	case nil, storage.All:
		return append(b, predAll), nil
	case storage.Eq:
		b = appendString(append(b, predEq), q.Col)
		return appendValue(b, q.Val)
	case storage.Range:
		b = appendString(append(b, predRange), q.Col)
		var flags uint8
		if q.Lo != nil {
			flags |= 1
		}
		if q.Hi != nil {
			flags |= 2
		}
		if q.IncLo {
			flags |= 4
		}
		if q.IncHi {
			flags |= 8
		}
		b = append(b, flags)
		var err error
		if q.Lo != nil {
			if b, err = appendValue(b, q.Lo); err != nil {
				return b, err
			}
		}
		if q.Hi != nil {
			if b, err = appendValue(b, q.Hi); err != nil {
				return b, err
			}
		}
		return b, nil
	case storage.And:
		if len(q) > maxPredNodes {
			return b, fmt.Errorf("wire: And predicate exceeds %d children", maxPredNodes)
		}
		b = binary.AppendUvarint(append(b, predAnd), uint64(len(q)))
		var err error
		for _, child := range q {
			if b, err = appendPred(b, child); err != nil {
				return b, err
			}
		}
		return b, nil
	default:
		return b, fmt.Errorf("wire: unsupported predicate type %T", p)
	}
}

func (d *decoder) pred(depth int) storage.Pred {
	if depth > maxPredDepth {
		d.fail("predicate nesting")
		return nil
	}
	switch tag := d.u8("pred tag"); tag {
	case predAll:
		return storage.All{}
	case predEq:
		col := d.str("pred column")
		return storage.Eq{Col: col, Val: d.value()}
	case predRange:
		p := storage.Range{Col: d.str("pred column")}
		flags := d.u8("range flags")
		p.IncLo, p.IncHi = flags&4 != 0, flags&8 != 0
		if flags&1 != 0 {
			p.Lo = d.value()
		}
		if flags&2 != 0 {
			p.Hi = d.value()
		}
		return p
	case predAnd:
		n := d.count("And arity")
		if n > maxPredNodes {
			d.fail("And arity")
			return nil
		}
		out := make(storage.And, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, d.pred(depth+1))
		}
		return out
	default:
		d.fail("pred tag")
		return nil
	}
}

// ---- request codec ----

// frame type bytes. Requests and responses share the byte space; the first
// payload byte disambiguates direction by context. 0x03–0x06 are the v2
// replication frames (see repl.go).
const (
	frameRequest  uint8 = 0x01
	frameResponse uint8 = 0x02
)

// Begin flag bits.
const (
	beginReadOnly  uint8 = 1 << 0
	beginHasMinLSN uint8 = 1 << 1
	beginOCC       uint8 = 1 << 2
)

// appendBegin encodes the begin fields: isolation, flags, and MinLSN when it
// is non-zero. They are OpBegin's whole body and a statement's begin trailer.
func appendBegin(b []byte, r *Request) []byte {
	var bf uint8
	if r.ReadOnly {
		bf |= beginReadOnly
	}
	if r.MinLSN != 0 {
		bf |= beginHasMinLSN
	}
	if r.OCC {
		bf |= beginOCC
	}
	b = append(b, r.Iso, bf)
	if bf&beginHasMinLSN != 0 {
		b = appendUint64(b, r.MinLSN)
	}
	return b
}

func (d *decoder) begin(r *Request) {
	r.Iso = d.u8("isolation")
	bf := d.u8("begin flags")
	r.ReadOnly = bf&beginReadOnly != 0
	r.OCC = bf&beginOCC != 0
	if bf&beginHasMinLSN != 0 {
		r.MinLSN = d.u64("min lsn")
	}
}

// statement reports whether op is one of the four statements, the requests
// that may carry a begin trailer.
func (o Op) statement() bool { return o >= OpSelect && o <= OpDelete }

// AppendRequest encodes r into b (which should start empty but may carry
// capacity from a previous request) and returns the extended slice.
func AppendRequest(b []byte, r *Request) ([]byte, error) {
	b = append(b, frameRequest, uint8(r.Op))
	var err error
	switch r.Op {
	case OpBegin:
		b = appendBegin(b, r)
	case OpCommit, OpRollback, OpPing:
		// no body
	case OpSelect:
		b = appendString(append(b, uint8(r.Lock)), r.Table)
		if b, err = appendPred(b, r.Pred); err != nil {
			return b, err
		}
	case OpInsert:
		b = appendString(b, r.Table)
		if b, err = appendColVals(b, r.Cols, r.Vals); err != nil {
			return b, err
		}
	case OpUpdate:
		b = appendString(b, r.Table)
		if b, err = appendPred(b, r.Pred); err != nil {
			return b, err
		}
		if b, err = appendColVals(b, r.Cols, r.Vals); err != nil {
			return b, err
		}
	case OpDelete:
		b = appendString(b, r.Table)
		if b, err = appendPred(b, r.Pred); err != nil {
			return b, err
		}
	case OpKV:
		b = append(b, uint8(r.Cmd))
		b = appendString(b, r.Key)
		b = appendString(b, r.SVal)
		b = appendUint64(b, uint64(r.TTL))
		b = binary.AppendUvarint(b, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			b = appendString(b, k)
		}
	default:
		return b, fmt.Errorf("wire: cannot encode op %s", r.Op)
	}
	if r.Begin {
		if !r.Op.statement() {
			return b, fmt.Errorf("wire: op %s cannot carry a begin", r.Op)
		}
		b = appendBegin(b, r)
	}
	return b, nil
}

func appendColVals(b []byte, cols []string, vals []storage.Value) ([]byte, error) {
	if len(cols) != len(vals) {
		return b, fmt.Errorf("wire: %d columns for %d values", len(cols), len(vals))
	}
	b = binary.AppendUvarint(b, uint64(len(cols)))
	var err error
	for i, c := range cols {
		b = appendString(b, c)
		if b, err = appendValue(b, vals[i]); err != nil {
			return b, err
		}
	}
	return b, nil
}

// DecodeRequest decodes payload into r (resetting it first). The decoded
// strings are copies; payload may be reused immediately.
func DecodeRequest(payload []byte, r *Request) error {
	r.Reset()
	d := &decoder{b: payload}
	if d.u8("frame type") != frameRequest {
		return &Error{Code: CodeBadRequest, Msg: "not a request frame"}
	}
	r.Op = Op(d.u8("op"))
	switch r.Op {
	case OpBegin:
		d.begin(r)
	case OpCommit, OpRollback, OpPing:
	case OpSelect:
		r.Lock = Lock(d.u8("lock mode"))
		r.Table = d.str("table")
		r.Pred = d.pred(0)
	case OpInsert:
		r.Table = d.str("table")
		d.colVals(r)
	case OpUpdate:
		r.Table = d.str("table")
		r.Pred = d.pred(0)
		d.colVals(r)
	case OpDelete:
		r.Table = d.str("table")
		r.Pred = d.pred(0)
	case OpKV:
		r.Cmd = KVCmd(d.u8("kv command"))
		r.Key = d.str("kv key")
		r.SVal = d.str("kv value")
		r.TTL = time.Duration(d.u64("kv ttl"))
		n := d.count("kv key count")
		for i := 0; i < n && d.err == nil; i++ {
			r.Keys = append(r.Keys, d.str("kv key"))
		}
	default:
		return &Error{Code: CodeBadRequest, Msg: "unknown op"}
	}
	// A statement body is self-delimiting; bytes after it are the begin
	// trailer. A trailer cut short fails in begin, one with bytes to spare
	// fails in done.
	if r.Op.statement() && d.err == nil && d.off < len(d.b) {
		r.Begin = true
		d.begin(r)
	}
	return d.done()
}

func (d *decoder) colVals(r *Request) {
	n := d.count("column count")
	for i := 0; i < n && d.err == nil; i++ {
		r.Cols = append(r.Cols, d.str("column"))
		r.Vals = append(r.Vals, d.value())
	}
}

// ---- response codec ----

// response body shape bits.
const (
	respHasN    uint8 = 1 << 0
	respHasBool uint8 = 1 << 1
	respHasStr  uint8 = 1 << 2
	respHasTTL  uint8 = 1 << 3
	respHasStrs uint8 = 1 << 4
	respHasRows uint8 = 1 << 5
	respHasLSN  uint8 = 1 << 6
)

// AppendResponse encodes r into b and returns the extended slice.
func AppendResponse(b []byte, r *Response) ([]byte, error) {
	b = append(b, frameResponse)
	b = appendUint16(b, uint16(r.Code))
	if r.Code != CodeOK {
		return appendString(b, r.Msg), nil
	}
	var flags uint8
	if r.N != 0 {
		flags |= respHasN
	}
	if r.Bool {
		flags |= respHasBool
	}
	if r.Str != "" {
		flags |= respHasStr
	}
	if r.TTL != 0 {
		flags |= respHasTTL
	}
	if len(r.Strs) > 0 {
		flags |= respHasStrs
	}
	if len(r.Cols) > 0 || len(r.Rows) > 0 {
		flags |= respHasRows
	}
	if r.LSN != 0 {
		flags |= respHasLSN
	}
	b = append(b, flags)
	if flags&respHasN != 0 {
		b = appendUint64(b, uint64(r.N))
	}
	if flags&respHasLSN != 0 {
		b = appendUint64(b, r.LSN)
	}
	if flags&respHasStr != 0 {
		b = appendString(b, r.Str)
	}
	if flags&respHasTTL != 0 {
		b = appendUint64(b, uint64(r.TTL))
	}
	if flags&respHasStrs != 0 {
		b = binary.AppendUvarint(b, uint64(len(r.Strs)))
		for _, s := range r.Strs {
			b = appendString(b, s)
		}
	}
	if flags&respHasRows != 0 {
		b = binary.AppendUvarint(b, uint64(len(r.Cols)))
		for _, c := range r.Cols {
			b = appendString(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(r.Rows)))
		var err error
		for _, row := range r.Rows {
			if len(row) != len(r.Cols) {
				return b, fmt.Errorf("wire: row has %d values for %d columns", len(row), len(r.Cols))
			}
			for _, v := range row {
				if b, err = appendValue(b, v); err != nil {
					return b, err
				}
			}
		}
	}
	return b, nil
}

// DecodeResponse decodes payload into r (resetting it first).
func DecodeResponse(payload []byte, r *Response) error {
	r.Reset()
	d := &decoder{b: payload}
	if d.u8("frame type") != frameResponse {
		return &Error{Code: CodeBadRequest, Msg: "not a response frame"}
	}
	r.Code = Code(d.u16("code"))
	if r.Code != CodeOK {
		r.Msg = d.str("error message")
		return d.done()
	}
	flags := d.u8("response flags")
	if flags&respHasN != 0 {
		r.N = int64(d.u64("n"))
	}
	if flags&respHasLSN != 0 {
		r.LSN = d.u64("lsn")
	}
	r.Bool = flags&respHasBool != 0
	if flags&respHasStr != 0 {
		r.Str = d.str("str")
	}
	if flags&respHasTTL != 0 {
		r.TTL = time.Duration(d.u64("ttl"))
	}
	if flags&respHasStrs != 0 {
		n := d.count("string count")
		for i := 0; i < n && d.err == nil; i++ {
			r.Strs = append(r.Strs, d.str("string"))
		}
	}
	if flags&respHasRows != 0 {
		nc := d.count("column count")
		for i := 0; i < nc && d.err == nil; i++ {
			r.Cols = append(r.Cols, d.str("column"))
		}
		nr := d.count("row count")
		// A response cannot have rows without columns, and each claimed row
		// needs at least nc bytes of payload left — both guards cap the
		// alloc/CPU amplification a crafted small frame could buy.
		if d.err == nil && nr > 0 && (nc == 0 || nr > len(d.b)/nc) {
			d.fail("row count")
		}
		for i := 0; i < nr && d.err == nil; i++ {
			row := make([]storage.Value, 0, nc)
			for j := 0; j < nc && d.err == nil; j++ {
				row = append(row, d.value())
			}
			r.Rows = append(r.Rows, row)
		}
	}
	return d.done()
}
