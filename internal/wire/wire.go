// Package wire implements the message framing and encoding shared by
// every daemon protocol in the TDP reproduction: the attribute space
// protocol (LASS/CASS), the Condor daemon protocols, the Paradyn
// front-end protocol, and the proxy control channel.
//
// A message on the wire is a 4-byte big-endian length followed by that
// many payload bytes. The payload is a Message encoded as a compact
// textual record: the verb, then a sequence of key/value fields, each
// length-prefixed so values may contain any byte sequence. The format
// is deliberately simple (the paper constrains attribute values to
// strings) and has no external dependencies.
//
// The codec is allocation-conscious: AppendEncode appends into a
// caller-supplied buffer in map order (no sort), DecodeInto reuses a
// Message and interns the protocol's fixed key/verb vocabulary, and
// Conn keeps per-connection scratch buffers so a steady-state
// Send/Recv cycle allocates only the decoded value strings. Encode
// remains deterministic (sorted keys) for tests and logs.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tdp/internal/telemetry"
)

// MaxFrameSize bounds a single frame. Attribute values are small
// configuration strings in TDP; 16 MiB is far beyond any legitimate
// message and protects servers from hostile or corrupt peers.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when an incoming frame header announces
// a payload larger than MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrMalformed is returned when a payload cannot be decoded as a Message.
var ErrMalformed = errors.New("wire: malformed message")

// Reserved field names. Keys beginning with "_" are reserved for the
// protocol layer: current peers use the two below for cross-daemon
// span tracing, and decoders MUST carry unknown "_"-prefixed keys
// through untouched (they are a newer peer's protocol extensions, not
// application data). Verb handlers read named fields only, so unknown
// reserved keys are safely ignored end to end; IsReserved lets
// generic code (snapshot dumps, attribute iteration) skip them.
const (
	// FieldTraceID carries the telemetry trace ID across daemons.
	FieldTraceID = "_tid"
	// FieldSpanID carries the sender's span ID (the receiver's parent).
	FieldSpanID = "_sid"
	// FieldStream carries the mux stream ID a message rides (see Mux);
	// absent means stream 0, the uncontrolled control stream.
	FieldStream = "_stream"
	// FieldWindow piggybacks flow-control credit grants ("sid:credits"
	// pairs, comma separated) on any outgoing message.
	FieldWindow = "_win"
)

// IsReserved reports whether a field key belongs to the protocol
// layer rather than the application.
func IsReserved(key string) bool { return strings.HasPrefix(key, "_") }

// interned holds the protocol's fixed vocabulary of verbs and field
// keys. Decoders look incoming byte slices up here before converting,
// so the hot path allocates no strings for the keys and verbs that
// make up almost every message. The map is built once at init and
// read-only afterwards, hence safe for concurrent use. Lookups with a
// []byte key (`interned[string(b)]`) do not allocate.
var interned = map[string]string{}

func init() {
	words := []string{
		// Attribute space verbs (requests and replies).
		"HELLO", "PUT", "MPUT", "GET", "TRYGET", "DELETE", "SNAP", "SUB",
		"STATS", "EXIT", "OK", "VALUE", "NOTFOUND", "SNAPV", "STATSV",
		"ERROR", "EVENT", "CLOSE",
		// Global-forwarding verbs (LASS → CASS relay).
		"GPUT", "GMPUT", "GGET", "GTRYGET", "GDEL", "GSNAP",
		"GSNAPM", "GCTXS",
		// Context-explicit verbs (shard router → CASS shard):
		// the pooled per-shard connection names the target context in a
		// ctx field on every request instead of joining one at HELLO.
		"CPUT", "CMPUT", "CGET", "CDEL", "CSNAP", "CCTXS",
		// Batched uplink flush (mrnet node→node, granted as tbatch).
		"TBATCH",
		// Tool-stream verbs (paradyn front-end protocol, mrnet
		// reduction network, proxy handshake) — the monitoring fan-in
		// hot path, where a pool of daemons emits a message per metric
		// per sample interval.
		"REGISTER", "SAMPLE", "TSAMPLE", "DONE", "RUN",
		"CONNECT", "REFUSED",
		// Delta snapshots, flow-control window updates, and wire-level
		// liveness probes.
		"SNAPD", "DELTA", "WINUP", "PING", "PONG",
		// The client's shared-memory cutover request.
		"SHMRDY",
		// Common field keys.
		"id", "attr", "value", "context", "error", "daemon", "json",
		"n", "seq", "op", "who", "lost", "seqs", "reason", "conn",
		"fn", "calls", "time_us", "status", "host", "executable",
		"pid", "rank", "kind", "name", "scope", "target", "resume",
		"caps", "since", "part", "more", "total",
		"ctx", "wait", "shard", "smv", "shmfile",
		FieldTraceID, FieldSpanID, FieldStream, FieldWindow,
	}
	// Batched put / snapshot field keys k0..k31, v0..v31 (plus the
	// per-entry seq keys s0..s31 of a versioned snapshot and the o0..o31
	// op markers of a delta); larger batches fall back to ordinary
	// string conversion.
	for i := 0; i < 32; i++ {
		words = append(words, "k"+strconv.Itoa(i), "v"+strconv.Itoa(i),
			"s"+strconv.Itoa(i), "o"+strconv.Itoa(i))
	}
	for _, w := range words {
		interned[w] = w
	}
}

// intern returns the canonical string for s when it is in the
// protocol's fixed vocabulary. Callers pass views of an already-copied
// payload, so the miss path allocates nothing either — interning here
// is purely canonicalization (verb dispatch compares pointers first).
func intern(s string) string {
	if c, ok := interned[s]; ok {
		return c
	}
	return s
}

// Message is a verb plus a set of string key/value fields. It is the
// unit of exchange on every control connection.
type Message struct {
	Verb   string
	Fields map[string]string
}

// msgPool recycles messages handed back by Release, so a request path
// that releases what it is done with builds its messages without
// allocating.
var msgPool = sync.Pool{New: func() any { return &Message{Fields: make(map[string]string)} }}

// releaseMaxFields bounds the messages Release keeps: a snapshot-sized
// message's map would otherwise stay pinned in the pool.
const releaseMaxFields = 16

// NewMessage returns a Message with the given verb and an empty field set.
func NewMessage(verb string) *Message {
	m := msgPool.Get().(*Message)
	m.Verb = verb
	return m
}

// Release hands m back for reuse by NewMessage. Call it only once
// nothing references m any more — after the message has been sent, or
// once its reply's fields have been read. Strings read from m stay
// valid. A nil m is ignored.
func (m *Message) Release() {
	if m == nil || len(m.Fields) > releaseMaxFields {
		return
	}
	clear(m.Fields)
	m.Verb = ""
	msgPool.Put(m)
}

// Set stores a field and returns the message for chaining.
func (m *Message) Set(key, value string) *Message {
	if m.Fields == nil {
		m.Fields = make(map[string]string)
	}
	m.Fields[key] = value
	return m
}

// SetInt stores an integer field.
func (m *Message) SetInt(key string, value int) *Message {
	return m.Set(key, strconv.Itoa(value))
}

// Get returns the value for key, or "" when absent.
func (m *Message) Get(key string) string {
	return m.Fields[key]
}

// Lookup returns the value for key and whether it was present.
func (m *Message) Lookup(key string) (string, bool) {
	v, ok := m.Fields[key]
	return v, ok
}

// SetTrace stamps the reserved span-tracing fields on the message.
// Empty IDs clear nothing and stamp nothing, so untraced paths add no
// bytes to the wire.
func (m *Message) SetTrace(traceID, spanID string) *Message {
	if traceID != "" {
		m.Set(FieldTraceID, traceID)
	}
	if spanID != "" {
		m.Set(FieldSpanID, spanID)
	}
	return m
}

// Trace returns the reserved span-tracing fields ("" when untraced).
func (m *Message) Trace() (traceID, spanID string) {
	return m.Fields[FieldTraceID], m.Fields[FieldSpanID]
}

// Int returns the integer value of a field, or the provided default
// when the field is absent or unparseable.
func (m *Message) Int(key string, def int) int {
	v, ok := m.Fields[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// String renders the message for logs and error text. The buffer is
// presized from the actual key/value lengths and values are quoted in
// place with AppendQuote, so rendering a message with long values is
// one allocation-and-copy pass instead of a per-field Quote allocation
// feeding an undersized builder that regrows (and re-copies) as each
// chunk lands.
func (m *Message) String() string {
	keys := sortedFieldKeys(m.Fields)
	size := len(m.Verb)
	for _, k := range keys {
		// ' ' + key + '=' + '"' + value + '"'; escapes may add more,
		// but that growth is amortized against an almost-right base.
		size += len(k) + len(m.Fields[k]) + 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, m.Verb...)
	for _, k := range keys {
		buf = append(buf, ' ')
		buf = append(buf, k...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, m.Fields[k])
	}
	return string(buf)
}

// EncodedSize returns the exact number of payload bytes Encode and
// AppendEncode produce for m.
func (m *Message) EncodedSize() int {
	n := varStrSize(len(m.Verb)) + decimalDigits(len(m.Fields)) + 1
	for k, v := range m.Fields {
		n += varStrSize(len(k)) + varStrSize(len(v))
	}
	return n
}

// Encode serializes the message payload (without the frame header).
//
// Layout: varstr(verb) varint(nfields) { varstr(key) varstr(value) }*
// where varstr is a decimal length, ':', then the bytes.
//
// Encode emits fields in sorted key order — the deterministic mode
// tests and golden files rely on. The transmit hot path (Conn.Send)
// uses AppendEncode instead, which skips the sort: receivers are
// order-insensitive, so field order is not part of the protocol.
func (m *Message) Encode() []byte {
	buf := make([]byte, 0, m.EncodedSize())
	buf = appendVarStr(buf, m.Verb)
	buf = strconv.AppendInt(buf, int64(len(m.Fields)), 10)
	buf = append(buf, ';')
	for _, k := range sortedFieldKeys(m.Fields) {
		buf = appendVarStr(buf, k)
		buf = appendVarStr(buf, m.Fields[k])
	}
	return buf
}

// AppendEncode appends the encoded payload to buf and returns the
// extended slice. Fields are emitted in map order — no per-message
// key sort and no allocation beyond (amortized) buffer growth, which
// a caller reusing buf across messages pays only once. Use Encode
// when deterministic bytes matter.
func (m *Message) AppendEncode(buf []byte) []byte {
	buf = appendVarStr(buf, m.Verb)
	buf = strconv.AppendInt(buf, int64(len(m.Fields)), 10)
	buf = append(buf, ';')
	for k, v := range m.Fields {
		buf = appendVarStr(buf, k)
		buf = appendVarStr(buf, v)
	}
	return buf
}

// sortedFieldKeys returns the field keys in sorted order. Small key
// sets (every protocol message; snapshots excepted) sort by insertion
// into a stack-backed array, avoiding the sort.Strings allocation.
func sortedFieldKeys(fields map[string]string) []string {
	n := len(fields)
	var arr [16]string
	keys := arr[:0]
	if n > len(arr) {
		keys = make([]string, 0, n)
	}
	for k := range fields {
		keys = append(keys, k)
	}
	if n > 32 {
		sort.Strings(keys)
		return keys
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Decode parses a payload produced by Encode or AppendEncode.
func Decode(payload []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a payload into m, reusing m's field map when
// present (it is cleared first). Decoded messages share no memory with
// payload, so callers may reuse the payload buffer immediately: the
// payload is copied into a single string up front and every decoded
// verb, key, and value is a zero-copy view of that one copy — a
// message with f fields costs one allocation, not f+1. (The flip side:
// retaining any one field value keeps the whole message's bytes alive,
// which for kilobyte-scale protocol messages is the right trade.)
// On error m's contents are unspecified.
func DecodeInto(m *Message, payload []byte) error {
	s := string(payload)
	verb, rest, err := readVarStr(s)
	if err != nil {
		return err
	}
	n, rest, err := readCount(rest)
	if err != nil {
		return err
	}
	m.Verb = intern(verb)
	// Cap the map size hint by what the remaining bytes could possibly
	// hold (a field is at least 4 bytes: "0:0:"), so a hostile count
	// cannot force a huge allocation before parsing fails.
	hint := n
	if max := len(rest) / 4; hint > max {
		hint = max
	}
	if m.Fields == nil {
		m.Fields = make(map[string]string, hint)
	} else {
		clear(m.Fields)
	}
	for i := 0; i < n; i++ {
		var k, v string
		k, rest, err = readVarStr(rest)
		if err != nil {
			return err
		}
		v, rest, err = readVarStr(rest)
		if err != nil {
			return err
		}
		m.Fields[k] = v
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(rest))
	}
	return nil
}

func appendVarStr(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, ':')
	return append(buf, s...)
}

// varStrSize is the encoded size of a string of length l.
func varStrSize(l int) int { return decimalDigits(l) + 1 + l }

// decimalDigits is the width of n (>= 0) in base 10.
func decimalDigits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// parseLen parses a non-negative decimal length from b. It accepts
// only plain digit runs (no sign, no spaces) of at most 9 digits —
// anything longer necessarily exceeds MaxFrameSize.
func parseLen(b string) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func readCount(b string) (int, string, error) {
	i := 0
	for i < len(b) && b[i] != ';' {
		i++
	}
	if i == len(b) {
		return 0, "", fmt.Errorf("%w: missing field count", ErrMalformed)
	}
	n, ok := parseLen(b[:i])
	if !ok {
		return 0, "", fmt.Errorf("%w: bad field count", ErrMalformed)
	}
	return n, b[i+1:], nil
}

// readVarStr slices one length-prefixed string out of b. The returned
// string shares b's backing — for DecodeInto that is the message's own
// payload copy, so retaining it is safe.
func readVarStr(b string) (string, string, error) {
	i := 0
	for i < len(b) && b[i] != ':' {
		i++
	}
	if i == len(b) {
		return "", "", fmt.Errorf("%w: missing length separator", ErrMalformed)
	}
	n, ok := parseLen(b[:i])
	if !ok {
		return "", "", fmt.Errorf("%w: bad length", ErrMalformed)
	}
	rest := b[i+1:]
	if len(rest) < n {
		return "", "", fmt.Errorf("%w: short string", ErrMalformed)
	}
	return rest[:n], rest[n:], nil
}

// scratchKeepCap bounds how much scratch buffer a connection keeps
// between messages; a single oversized message (a big SNAPV, say) must
// not pin its buffer for the connection's lifetime.
const scratchKeepCap = 64 << 10

// Conn wraps an io.ReadWriter with framed Message I/O. Reads and
// writes are independently serialized, so one goroutine may read while
// another writes, and multiple goroutines may send concurrently.
type Conn struct {
	rmu  sync.Mutex
	rbuf []byte // payload scratch, guarded by rmu
	br   *bufio.Reader
	w    io.Writer
	rw   io.ReadWriter

	wmu     sync.Mutex
	wbuf    []byte // frame scratch / cork accumulator, guarded by wmu
	corked  int    // Cork depth, guarded by wmu
	pending int    // messages accumulated while corked, guarded by wmu

	// Optional telemetry, installed by Instrument. Held behind an
	// atomic pointer — NOT the r/w mutexes — because a reader
	// goroutine may sit blocked inside Recv (holding rmu) for the
	// connection's whole life, and Instrument must not wait for it.
	metrics atomic.Pointer[connCounters]
}

// connCounters bundles a connection's installed counters; any may be
// nil.
type connCounters struct {
	txBytes, rxBytes *telemetry.Counter
	txMsgs, rxMsgs   *telemetry.Counter
}

// NewConn returns a framed connection over rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{br: bufio.NewReader(rw), w: rw, rw: rw}
}

// Instrument installs byte and message counters (any may be nil) that
// the connection bumps on every framed send and receive. Byte counts
// include the 4-byte frame headers — they are what crossed the wire.
// The counters typically come from the owning daemon's
// telemetry.Registry; installation is safe at any time, including
// while another goroutine is blocked in Recv.
func (c *Conn) Instrument(txBytes, rxBytes, txMsgs, rxMsgs *telemetry.Counter) {
	c.metrics.Store(&connCounters{
		txBytes: txBytes, rxBytes: rxBytes, txMsgs: txMsgs, rxMsgs: rxMsgs,
	})
}

// InstrumentRegistry installs the standard wire counters
// ("wire.tx.bytes", "wire.rx.bytes", "wire.tx.msgs", "wire.rx.msgs")
// from reg. Several connections may share one registry; the counters
// then aggregate across them.
func (c *Conn) InstrumentRegistry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.Instrument(
		reg.Counter("wire.tx.bytes"), reg.Counter("wire.rx.bytes"),
		reg.Counter("wire.tx.msgs"), reg.Counter("wire.rx.msgs"),
	)
}

// Underlying returns the wrapped stream (e.g. to close it).
func (c *Conn) Underlying() io.ReadWriter { return c.rw }

// Detach returns a reader that first drains any bytes this framed
// connection has already buffered and then continues from the
// underlying stream. Use it when switching a connection from framed
// messages to a raw byte stream (e.g. after a proxy handshake).
func (c *Conn) Detach() io.Reader { return c.br }

// SwapRead replaces the connection's read side with r. It is the
// receive half of a transport cutover (the shm upgrade): the Conn —
// and any Mux layered on it — keeps its identity while the bytes start
// arriving from somewhere else. The caller must guarantee that no
// framed bytes remain on (or will ever again arrive from) the old
// stream, and must not call this while another goroutine is blocked in
// Recv — in practice the owner's read loop performs the swap between
// two of its own Recv calls, which satisfies both.
func (c *Conn) SwapRead(r io.Reader) {
	c.rmu.Lock()
	c.br = bufio.NewReader(r)
	c.rmu.Unlock()
}

// SwapWrite replaces the connection's write side with w, the transmit
// half of a transport cutover. Safe at any time with respect to
// concurrent Sends (the write mutex orders the swap against them); the
// caller's protocol must guarantee the peer is ready to read from the
// new stream before anything is sent on it.
func (c *Conn) SwapWrite(w io.Writer) {
	c.wmu.Lock()
	c.w = w
	c.wmu.Unlock()
}

// Send frames and writes one message. Header and payload go out in a
// single Write on the underlying stream (one syscall, and on TCP one
// packet for small messages), encoded into a per-connection scratch
// buffer so a steady-state Send allocates nothing.
func (c *Conn) Send(m *Message) error {
	size := m.EncodedSize()
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(size))
	c.wbuf = append(c.wbuf, hdr[:]...)
	c.wbuf = m.AppendEncode(c.wbuf)
	c.pending++
	if c.corked > 0 {
		return nil
	}
	return c.flushLocked()
}

// Flush writes out any frames buffered by an enclosing Cork without
// changing the cork depth. Every buffered frame is complete, so an
// early flush is always safe; it only forfeits some batching. A
// flow-controlled sender (Mux.SendOn) flushes before blocking on a
// window so the frames whose receipt will fund the awaited grants
// actually reach the peer.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// Cork suspends transmission: subsequent Sends accumulate frames in
// the connection's write buffer instead of writing them out. Each
// Cork must be balanced by Uncork, which flushes the accumulated
// frames in a single Write. Use it for reply bursts (event pushes,
// pipelined acknowledgements) to pay one syscall for the burst.
// Cork/Uncork pairs nest.
func (c *Conn) Cork() {
	c.wmu.Lock()
	c.corked++
	c.wmu.Unlock()
}

// Uncork ends a Cork section, writing every frame accumulated since
// the matching Cork (plus any sent under outer Cork levels) in one
// Write once the outermost section ends.
func (c *Conn) Uncork() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.corked == 0 {
		return nil
	}
	c.corked--
	if c.corked > 0 {
		return nil
	}
	return c.flushLocked()
}

// flushLocked writes the accumulated frames and resets the scratch
// buffer. Callers hold wmu.
func (c *Conn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	n := len(c.wbuf)
	msgs := c.pending
	_, err := c.w.Write(c.wbuf)
	if cap(c.wbuf) > scratchKeepCap {
		c.wbuf = nil
	} else {
		c.wbuf = c.wbuf[:0]
	}
	c.pending = 0
	if err != nil {
		return err
	}
	if m := c.metrics.Load(); m != nil {
		if m.txBytes != nil {
			m.txBytes.Add(int64(n))
		}
		if m.txMsgs != nil {
			m.txMsgs.Add(int64(msgs))
		}
	}
	return nil
}

// Recv reads and decodes one message, blocking until a full frame
// arrives or the stream errors.
func (c *Conn) Recv() (*Message, error) {
	m := new(Message)
	if err := c.RecvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// RecvInto reads one message into m, reusing m's field map and the
// connection's internal payload buffer. It is the receive half of the
// zero-allocation hot path: a caller that owns its Message (a server
// request loop dispatching synchronously) avoids the per-message
// Message and map allocations of Recv. The decoded message shares no
// memory with the connection's buffers.
func (c *Conn) RecvInto(m *Message) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return err
	}
	if cm := c.metrics.Load(); cm != nil {
		if cm.rxBytes != nil {
			cm.rxBytes.Add(int64(len(hdr)) + int64(n))
		}
		if cm.rxMsgs != nil {
			cm.rxMsgs.Inc()
		}
	}
	err := DecodeInto(m, payload)
	if cap(c.rbuf) > scratchKeepCap {
		c.rbuf = nil
	}
	return err
}

// Close closes the underlying stream when it is an io.Closer.
func (c *Conn) Close() error {
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
