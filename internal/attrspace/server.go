// Package attrspace implements the TDP attribute space servers and
// their client. A LASS (Local Attribute Space Server) runs on every
// execution host; the CASS (Central Attribute Space Server) runs on
// the host with the tool front-end (paper §2.1, Figure 2). Both are
// the same server — the distinction is purely where they run and who
// connects — so one implementation serves both roles.
//
// The protocol is framed wire.Messages:
//
//	client → server:
//	  HELLO   context=<name>                 join a context
//	  PUT     id=<n> attr=<a> value=<v>      store, ack with OK
//	  MPUT    id=<n> n=<c> k0=.. v0=.. k1=.. store c pairs in order, one OK
//	  GET     id=<n> attr=<a>                blocking get, reply VALUE
//	  TRYGET  id=<n> attr=<a>                non-blocking, VALUE or NOTFOUND
//	  DELETE  id=<n> attr=<a>                remove, ack with OK
//	  SNAP    id=<n> [seqs=1]                dump all attributes; seqs=1
//	                                         adds per-entry s<i> + context seq
//	  SUB     id=<n>                         start event push, ack with OK
//	  STATS   id=<n> [scope=tree]            dump daemon telemetry (no HELLO needed);
//	                                         scope=tree merges in child snapshots
//	  EXIT                                   leave context and disconnect
//
//	client → LASS (global forwarding; LASS relays to its CASS):
//	  GPUT    id=<n> attr=<a> value=<v>      global put, write-through
//	  GMPUT   id=<n> n=<c> k0=.. v0=..       global batched put
//	  GGET    id=<n> attr=<a>                blocking global get (cache first)
//	  GTRYGET id=<n> attr=<a>                non-blocking global get (cache first)
//	  GDEL    id=<n> attr=<a>                global delete, write-through
//	  GSNAP   id=<n>                         global snapshot (never cached)
//
//	server → client:
//	  OK      id=<n> [seq=<s>]
//	  VALUE   id=<n> attr=<a> value=<v> [seq=<s>]
//	  NOTFOUND id=<n> attr=<a>
//	  SNAPV   id=<n> n=<count> k0=.. v0=.. k1=..
//	  STATSV  id=<n> daemon=<name> json=<telemetry snapshot>
//	  ERROR   id=<n> error=<text>
//	  EVENT   attr=<a> value=<v> op=<put|delete|destroy> seq=<n> [lost=<d>]
//	  CLOSE   reason=<r>                     GOAWAY: server draining; no new
//	                                         requests, in-flight replies land
//
// Every reply carries the request id, so a client may keep many
// blocking GETs outstanding on one connection — this is what makes the
// paper's tdp_async_get natural to implement. MPUT batches a burst of
// puts (a tool daemon publishing its startup attributes) into one
// round trip.
//
// Every connection is stream-multiplexed (wire.Mux) from the moment it
// is accepted, and every verb above — plus SNAPD, PING and the C*
// context-explicit verbs — is always served. HELLO negotiates exactly
// one thing: the shared-memory ring (wire.CapShm), which depends on the
// client being on the same host, not on its version.
//
// Mutating acks and VALUE replies carry the per-context sequence
// number of the write they report (seq), which is what versions the
// LASS read cache. EVENT may carry lost=<d>: the number of updates the
// server's fan-out ring had to drop for this subscriber since the last
// event — a nonzero delta tells a mirroring consumer (the cache) that
// its picture has a gap and must be flushed. The G* verbs are answered
// by a LASS started with an upstream CASS (see EnableGlobalCache):
// reads are served from a local cache kept coherent by the LASS's own
// subscription to the CASS, writes go through to the CASS and update
// the cache with the CASS-assigned seq before the ack, so a client
// reads its own global writes through the same LASS.
//
// Requests may additionally carry the reserved _tid/_sid span-tracing
// fields (wire.FieldTraceID); the server then records its share of the
// operation in its span log under the caller's trace ID, which is how
// one Put can be followed front-end → CASS → proxy → LASS.
package attrspace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/attr"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// serverVerbs are the request verbs the server counts and times; one
// counter "attrspace.ops.<verb>" and one latency histogram
// "attrspace.latency.<verb>" exist per verb.
var serverVerbs = []string{"hello", "put", "mput", "get", "tryget", "delete", "snap", "snapd", "sub",
	"stats", "ping", "gput", "gmput", "gget", "gtryget", "gdel", "gsnap", "gsnapm", "gctxs",
	"cput", "cmput", "cget", "cdel", "csnap", "cctxs"}

// verbMetrics caches one verb's hot-path metric handles.
type verbMetrics struct {
	ops *telemetry.Counter
	lat *telemetry.Histogram
}

// telemetryHandles is an immutable snapshot of the server's telemetry
// wiring. The request path loads it through one atomic pointer read —
// no mutex — so concurrent requests never contend on observation, and
// SetTelemetry swaps the whole bundle at once (registry, tracer, and
// the per-verb handles derived from the registry stay consistent).
type telemetryHandles struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	verbs  map[string]verbMetrics // by wire verb; read-only after construction
	gConns *telemetry.Gauge

	// Event fan-out accounting (the asynchronous subscriber path).
	evPushed    *telemetry.Counter // events written to subscribers
	evLost      *telemetry.Counter // updates dropped on ring overflow
	evCoalesced *telemetry.Counter // updates coalesced-to-latest on overflow
	evDepth     *telemetry.Gauge   // last observed ring depth (high-water hint)

	// Global read-cache accounting (the LASS→CASS forwarding path).
	cacheHits  *telemetry.Counter
	cacheMiss  *telemetry.Counter
	cacheFills *telemetry.Counter
	cacheInval *telemetry.Counter // entries invalidated by upstream events
	cacheFlush *telemetry.Counter // whole-context flushes (lost events, teardown)
}

// Server is one attribute space server instance (a LASS or the CASS).
type Server struct {
	space *attr.Space

	// mu guards connection lifecycle (listeners/conns/closed) and
	// serializes SetTelemetry stores. It is NOT taken on the request
	// fast path — per-request observation goes through tel.
	mu        sync.Mutex
	listeners []net.Listener // every Serve'd listener (tcp and/or unix)
	conns     map[*serverConn]struct{}
	closed    bool
	draining  bool // Shutdown in progress; Serve exits cleanly

	// noShm withholds the shared-memory ring from every client; see
	// SetShm.
	noShm atomic.Bool

	// inflight counts requests currently inside their synchronous
	// dispatch (reply not yet written). Blocked GETs hand off to a
	// goroutine and leave the count — a drain must not wait for a get
	// that may block forever; closing the connection cancels it.
	inflight atomic.Int64

	// tel is the current telemetry bundle; never nil after NewServer.
	tel    atomic.Pointer[telemetryHandles]
	logger atomic.Pointer[telemetry.Logger]

	// statsKids, when set, supplies child snapshots folded into a
	// `STATS scope=tree` reply. See SetStatsChildren.
	statsKids atomic.Pointer[func() []telemetry.Snapshot]

	// evBuf sizes the fan-out ring + delivery channel of subscriptions
	// created by SUB; see SetEventBuffer.
	evBuf atomic.Int32

	// gcache, when non-nil, serves the G* global-forwarding verbs: this
	// server is a LASS with an upstream CASS. See EnableGlobalCache.
	gcache atomic.Pointer[GlobalCache]

	// shard, when non-nil, makes this server one partition of a sharded
	// CASS: HELLO (and the C* verbs) refuse contexts whose hash places
	// them on a different shard. See SetShard.
	shard atomic.Pointer[shardSpec]
}

// shardSpec is a server's position in a sharded CASS pool.
type shardSpec struct {
	idx, total int
}

// NewServer returns a server around a fresh attribute space.
func NewServer() *Server {
	return NewServerWithSpace(attr.NewSpace())
}

// NewServerWithSpace returns a server around an existing space, which
// lets tests and the in-process fast path share state with the server.
func NewServerWithSpace(space *attr.Space) *Server {
	s := &Server{
		space: space,
		conns: make(map[*serverConn]struct{}),
	}
	s.evBuf.Store(DefaultEventBuffer)
	s.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("attrspace"))
	return s
}

// SetShm sets whether HELLO may grant the shared-memory ring transport
// (on by default; lassd/cassd -shm=false turns it off). Without it a
// same-host client stays on its unix socket. Connections already
// cut over are unaffected.
func (s *Server) SetShm(on bool) { s.noShm.Store(!on) }

// SetShard declares this server to be shard idx of a total-way
// partitioned CASS (the cassd -shard i/n flag). From then on HELLO and
// the C* verbs refuse contexts whose name hashes to a different shard
// — a misrouted client gets a "wrong shard" error instead of silently
// splitting one context's attributes across two daemons. Contexts
// under InfraContextPrefix are exempt: router health probes and
// monitor self-publication must exist on every shard.
func (s *Server) SetShard(idx, total int) error {
	if total < 1 || idx < 0 || idx >= total {
		return fmt.Errorf("attrspace: shard %d/%d out of range", idx, total)
	}
	s.shard.Store(&shardSpec{idx: idx, total: total})
	return nil
}

// shardRefuses reports whether this server's shard assignment excludes
// the named context, with the owner's index for the error message.
func (s *Server) shardRefuses(name string) (owner int, refused bool) {
	sp := s.shard.Load()
	if sp == nil || strings.HasPrefix(name, InfraContextPrefix) {
		return 0, false
	}
	owner = ShardIndex(name, sp.total)
	return owner, owner != sp.idx
}

// DefaultEventBuffer is the per-subscription fan-out ring size used
// for SUB when SetEventBuffer was not called.
const DefaultEventBuffer = 64

// SetEventBuffer sizes the per-subscription ring buffer (and delivery
// channel) for subscriptions created by subsequent SUB requests.
// Larger buffers absorb bigger bursts before the overflow policy
// (coalesce-to-latest, then drop-oldest) engages; see attr.Subscription.
func (s *Server) SetEventBuffer(n int) {
	if n < 1 {
		n = 1
	}
	s.evBuf.Store(int32(n))
}

// SetTelemetry installs the registry this server counts into and the
// tracer holding its span log. Either may be nil to keep the current
// one. The tracer's actor name is what distinguishes a CASS from a
// LASS in cross-daemon traces; cmd/cassd passes NewTracer("cassd").
// Safe to call at any time: in-flight requests finish against the old
// bundle, subsequent requests (and subsequently accepted connections)
// observe into the new one.
func (s *Server) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &telemetryHandles{}
	if cur := s.tel.Load(); cur != nil {
		*h = *cur
	}
	if reg != nil {
		h.reg = reg
		h.verbs = make(map[string]verbMetrics, len(serverVerbs))
		for _, v := range serverVerbs {
			h.verbs[strings.ToUpper(v)] = verbMetrics{
				ops: reg.Counter("attrspace.ops." + v),
				lat: reg.Histogram("attrspace.latency."+v, nil),
			}
		}
		h.gConns = reg.Gauge("attrspace.conns")
		h.evPushed = reg.Counter("attrspace.events.pushed")
		h.evLost = reg.Counter("attrspace.events.lost")
		h.evCoalesced = reg.Counter("attrspace.events.coalesced")
		h.evDepth = reg.Gauge("attrspace.events.depth")
		h.cacheHits = reg.Counter("attrspace.cache.hits")
		h.cacheMiss = reg.Counter("attrspace.cache.misses")
		h.cacheFills = reg.Counter("attrspace.cache.fills")
		h.cacheInval = reg.Counter("attrspace.cache.invalidations")
		h.cacheFlush = reg.Counter("attrspace.cache.flushes")
	}
	if tracer != nil {
		h.tracer = tracer
	}
	s.tel.Store(h)
}

// SetStatsChildren installs a callback that supplies the telemetry
// snapshots of this daemon's children (e.g. the aggregated subtree of
// an mrnet reduction root, or downstream LASSes known to a CASS). A
// `STATS scope=tree` request merges them with the daemon's own
// registry — counters sum, gauges take the maximum, histograms merge —
// so one request yields the whole subtree's picture. Nil uninstalls;
// plain STATS is unaffected.
func (s *Server) SetStatsChildren(fn func() []telemetry.Snapshot) {
	if fn == nil {
		s.statsKids.Store(nil)
		return
	}
	s.statsKids.Store(&fn)
}

// Telemetry returns the server's metrics registry.
func (s *Server) Telemetry() *telemetry.Registry {
	return s.tel.Load().reg
}

// Tracer returns the server's span log.
func (s *Server) Tracer() *telemetry.Tracer {
	return s.tel.Load().tracer
}

// SetLogger installs the leveled logger used for connection-level
// diagnostics and serve errors. The default (nil) discards, which is
// what tests want.
func (s *Server) SetLogger(l *telemetry.Logger) {
	s.logger.Store(l)
}

// SetLogf installs a printf-style logging function (e.g. log.Printf).
// It is the legacy form of SetLogger; both paths now feed the same
// leveled logger.
func (s *Server) SetLogf(f func(format string, args ...any)) {
	s.SetLogger(telemetry.FuncLogger(f))
}

func (s *Server) log() *telemetry.Logger {
	return s.logger.Load()
}

// Space returns the underlying attribute space.
func (s *Server) Space() *attr.Space { return s.space }

// Stats returns operation counters since start. It reads through the
// same atomically-snapshotted handle bundle the request path uses, so
// it never races a concurrent SetTelemetry and always reports one
// registry's counters consistently.
func (s *Server) Stats() (puts, gets, tryGets, deletes int64) {
	reg := s.tel.Load().reg
	return reg.Counter("attrspace.ops.put").Value(),
		reg.Counter("attrspace.ops.get").Value(),
		reg.Counter("attrspace.ops.tryget").Value(),
		reg.Counter("attrspace.ops.delete").Value()
}

// observe bumps a wire verb's counter and starts the stopwatch that
// records its latency once the reply is out. Lock-free: one atomic load
// plus a probe of an immutable map.
func (s *Server) observe(verb string) telemetry.Stopwatch {
	vm, ok := s.tel.Load().verbs[verb]
	if !ok {
		return telemetry.Stopwatch{}
	}
	vm.ops.Inc()
	return vm.lat.Start()
}

// Serve accepts connections on l until Close is called or the listener
// fails. It blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed || s.draining
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Re-read the current registry per accept, so connections made
		// after SetTelemetry count into the new registry.
		tel := s.tel.Load()
		wc := wire.NewConn(c)
		wc.InstrumentRegistry(tel.reg)
		sc := &serverConn{srv: s, wc: wc, raw: c,
			mux: wire.NewMux(wc, wire.MuxConfig{Registry: tel.reg})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		tel.gConns.Set(int64(len(s.conns)))
		s.mu.Unlock()
		s.log().Debugf("attrspace: accepted %v", c.RemoteAddr())
		go sc.run()
	}
}

// Close stops the listener and disconnects every client.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.raw.Close()
	}
	if gc := s.gcache.Load(); gc != nil {
		gc.Close()
	}
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, announces the drain to every connected client with a
// GOAWAY-style CLOSE verb, waits for in-flight synchronous replies to
// finish (bounded by ctx), then closes everything. Blocked GETs are not
// waited for — they may block indefinitely by design — and are
// cancelled by the final close, erroring their callers. Returns
// ctx.Err() when the deadline cut the drain short, nil otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ls := s.listeners
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		// Best effort: a peer that is already gone fails the send and
		// will be reaped by its own read loop.
		c.wc.Send(wire.NewMessage("CLOSE").Set("reason", "drain"))
	}
	var err error
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-tick.C:
			continue
		}
		break
	}
	s.Close()
	return err
}

func (s *Server) dropConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.tel.Load().gConns.Set(int64(len(s.conns)))
	s.mu.Unlock()
}

// StartMonitorPublisher periodically self-publishes this server's
// registry metrics as attributes named
// "tdp.monitor.<daemon>.<metric>" into contextName, so tools observe
// the daemon with the same Get/Snapshot they use for everything else
// (the paper's own mechanism, turned on the daemons). Histograms
// publish their count and p50/p99 estimates. The publisher holds a
// context reference until stop is called, so the published attributes
// outlive transient clients.
func (s *Server) StartMonitorPublisher(contextName, daemon string, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	ref := s.space.Join(contextName)
	done := make(chan struct{})
	var once sync.Once
	publish := func() {
		snap := s.tel.Load().reg.Snapshot()
		prefix := telemetry.MonitorPrefix + daemon + "."
		pairs := make([]attr.KV, 0, len(snap.Counters)+len(snap.Gauges)+3*len(snap.Histograms))
		for name, v := range snap.Counters {
			pairs = append(pairs, attr.KV{Key: prefix + name, Value: strconv.FormatInt(v, 10)})
		}
		for name, v := range snap.Gauges {
			pairs = append(pairs, attr.KV{Key: prefix + name, Value: strconv.FormatInt(v, 10)})
		}
		for name, h := range snap.Histograms {
			pairs = append(pairs,
				attr.KV{Key: prefix + name + ".count", Value: strconv.FormatInt(h.Count, 10)},
				attr.KV{Key: prefix + name + ".p50", Value: strconv.FormatFloat(h.Quantile(0.5), 'g', 6, 64)},
				attr.KV{Key: prefix + name + ".p99", Value: strconv.FormatFloat(h.Quantile(0.99), 'g', 6, 64)})
		}
		ref.PutBatch(pairs)
	}
	publish()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				publish()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			ref.Leave()
		})
	}
}

// serverConn is one client session.
type serverConn struct {
	srv *Server
	wc  *wire.Conn
	raw net.Conn
	mux *wire.Mux

	mu  sync.Mutex
	ref *attr.Ref // joined context, nil until HELLO
	sub *attr.Subscription

	// Transport-v3 cutover state: the segment created at HELLO (and its
	// file, removed once the client maps it — or at teardown if the
	// client never does), and the ring endpoint handed from the SHMRDY
	// handler to the read loop, which swaps its read side after the
	// dispatch returns (the client's SHMRDY was its last framed socket
	// write).
	shmSeg  *wire.ShmSegment
	shmPath string
	shmEP   *wire.ShmEndpoint
}

func (c *serverConn) run() {
	srv := c.srv
	defer srv.dropConn(c)
	// Per-connection context cancels blocked GETs when the peer goes away.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer func() {
		c.mu.Lock()
		ref, sub := c.ref, c.sub
		c.ref, c.sub = nil, nil
		shmPath := c.shmPath
		c.shmPath = ""
		c.mu.Unlock()
		if sub != nil && ref != nil {
			ref.Unsubscribe(sub)
		}
		if ref != nil {
			ref.Leave()
		}
		if shmPath != "" {
			// Granted shm at HELLO but the client never sent SHMRDY: the
			// segment file is still on disk. (After a completed cutover
			// the SHMRDY handler already unlinked it.)
			os.Remove(shmPath)
		}
		// Closing the socket also kills the doorbell after a cutover,
		// which wakes anything parked on the ring.
		c.raw.Close()
	}()

	// One request message is reused across the connection's whole
	// life: every handler either finishes with the message before the
	// next RecvInto or extracts plain strings first (the blocking-GET
	// goroutine), so nothing retains it.
	m := new(wire.Message)
	for {
		if err := c.wc.RecvInto(m); err != nil {
			c.mux.Fail(err) // wake event/chunk senders blocked on windows
			return          // disconnect
		}
		if _, handled := c.mux.Accept(m); handled {
			continue // pure transport (WINUP), nothing to dispatch
		}
		// The inflight window covers only the synchronous part of the
		// dispatch: once dispatch returns, any still-pending reply
		// belongs to a blocked GET goroutine, which a drain deliberately
		// does not wait for.
		srv.inflight.Add(1)
		exit := c.dispatch(ctx, m)
		srv.inflight.Add(-1)
		if exit {
			return
		}
		c.mu.Lock()
		ep := c.shmEP
		c.shmEP = nil
		c.mu.Unlock()
		if ep != nil {
			// The dispatch we just returned from was SHMRDY: the client's
			// request was its last framed socket write and our OK was
			// ours, so the socket now belongs to the doorbell and every
			// further frame — starting with the next RecvInto — rides the
			// ring.
			ep.Activate()
			c.wc.SwapRead(ep)
		}
	}
}

// dispatch handles one request; it returns true when the connection
// should end (EXIT).
func (c *serverConn) dispatch(ctx context.Context, m *wire.Message) bool {
	srv := c.srv
	switch m.Verb {
	case "HELLO":
		done := srv.observe("HELLO")
		name := m.Get("context")
		if owner, refused := srv.shardRefuses(name); refused {
			c.reply(wire.NewMessage("ERROR").Set("id", m.Get("id")).
				Set("error", fmt.Sprintf("wrong shard: context %q belongs to shard %d", name, owner)))
			done.End()
			return false
		}
		// The shm ring is the one negotiated upgrade, granted when the
		// client offered it, this server allows it, and the connection is
		// provably same-host on a build that can mmap. A segment creation
		// failure (full temp dir, exotic fs) quietly withdraws the grant:
		// the client stays on the socket.
		wantShm := wire.ParseCaps(m.Get("caps"))[wire.CapShm] &&
			!srv.noShm.Load() && wire.ShmSupported() && sameHostConn(c.raw)
		c.mu.Lock()
		already := c.ref != nil
		var shmPath string
		if !already {
			c.ref = srv.space.Join(name)
			if wantShm {
				path := shmSegmentPath()
				if seg, err := wire.CreateShmSegment(path, 0); err == nil {
					c.shmSeg, c.shmPath, shmPath = seg, path, path
				} else {
					srv.log().Debugf("attrspace: shm segment create: %v", err)
				}
			}
		}
		c.mu.Unlock()
		if already {
			c.reply(wire.NewMessage("ERROR").Set("id", m.Get("id")).Set("error", "already joined"))
			done.End()
			return false
		}
		ok := wire.NewMessage("OK").Set("id", m.Get("id"))
		if shmPath != "" {
			ok.Set("caps", wire.CapShm).Set("shmfile", shmPath)
		}
		c.reply(ok)
		done.End()
	case "SHMRDY":
		// Transport-v3 cutover request: the client has mapped the
		// segment announced at HELLO and this frame is the last framed
		// byte it will ever write to the socket. Reply OK (our own last
		// framed socket write), swap the write side onto the ring, and
		// hand the endpoint to the read loop, which swaps its read side
		// before the next RecvInto. The segment file is no longer
		// needed once both ends hold mappings, so unlink it here.
		c.mu.Lock()
		seg := c.shmSeg
		c.mu.Unlock()
		if seg == nil {
			c.unknownVerb(m) // no shm grant on this connection
			return false
		}
		ep := seg.Endpoint(true, c.raw)
		c.reply(wire.NewMessage("OK").Set("id", m.Get("id")))
		c.wc.SwapWrite(ep)
		c.mu.Lock()
		c.shmEP = ep
		c.shmSeg = nil // a second SHMRDY is an unknown verb, not a re-swap
		if c.shmPath != "" {
			os.Remove(c.shmPath)
			c.shmPath = ""
		}
		c.mu.Unlock()
	case "EXIT":
		return true
	case "PING":
		// Wire-level liveness probe. Answered inline on the read loop —
		// which is the point: a client's heartbeat must get through even
		// while bulk replies stream from side goroutines.
		done := srv.observe("PING")
		c.reply(wire.NewMessage("PONG").Set("id", m.Get("id")))
		done.End()
		return false
	case "STATS":
		// STATS needs no context: it reports on the daemon, not on
		// any attribute space, so monitoring tools can probe a
		// server without joining (and without bumping refcounts).
		c.handleStats(m)
	case "PUT", "MPUT", "GET", "TRYGET", "DELETE", "SNAP", "SNAPD", "SUB":
		c.handleOp(ctx, m)
	case "CPUT", "CMPUT", "CGET", "CDEL", "CSNAP", "CCTXS":
		// Context-explicit ops: the shard router's pooled connections
		// name the target context per message instead of being bound to
		// one at HELLO.
		c.handleCtxOp(m)
	case "GPUT", "GMPUT", "GGET", "GTRYGET", "GDEL", "GSNAP", "GSNAPM", "GCTXS":
		c.handleGlobal(ctx, m)
	default:
		c.unknownVerb(m)
	}
	return false
}

// unknownVerb answers a verb this server does not serve.
func (c *serverConn) unknownVerb(m *wire.Message) {
	c.reply(wire.NewMessage("ERROR").Set("id", m.Get("id")).
		Set("error", fmt.Sprintf("unknown verb %q", m.Verb)))
}

// startSpan opens this daemon's span for a request when the caller
// sent trace IDs; untraced requests record nothing.
func (c *serverConn) startSpan(m *wire.Message) *telemetry.Span {
	tid, sid := m.Trace()
	if tid == "" {
		return nil
	}
	tracer := c.srv.tel.Load().tracer
	return tracer.StartChild("attrspace."+strings.ToLower(m.Verb), tid, sid)
}

func (c *serverConn) handleStats(m *wire.Message) {
	srv := c.srv
	done := srv.observe("STATS")
	sp := c.startSpan(m)
	tel := srv.tel.Load()
	snap := tel.reg.Snapshot()
	if m.Get("scope") == "tree" {
		if fn := srv.statsKids.Load(); fn != nil {
			snap = telemetry.MergeSnapshots(append([]telemetry.Snapshot{snap}, (*fn)()...)...)
		}
	}
	data, err := json.Marshal(snap)
	reply := errReply(m.Get("id"), err)
	if err == nil {
		reply = wire.NewMessage("STATSV").
			Set("id", m.Get("id")).
			Set("daemon", tel.tracer.Actor()).
			Set("json", string(data))
	}
	c.finish(sp, done, reply)
}

func (c *serverConn) handleOp(ctx context.Context, m *wire.Message) {
	c.mu.Lock()
	ref := c.ref
	c.mu.Unlock()
	id := m.Get("id")
	if ref == nil {
		c.reply(wire.NewMessage("ERROR").Set("id", id).Set("error", "HELLO required"))
		return
	}
	srv := c.srv
	done := srv.observe(m.Verb)
	sp := c.startSpan(m)
	if sp != nil && m.Get("attr") != "" {
		sp.Set("attr", m.Get("attr"))
	}
	var reply *wire.Message
	switch m.Verb {
	case "PUT":
		seq, err := ref.PutSeq(m.Get("attr"), m.Get("value"))
		reply = ackReply(id, seq, err)
	case "MPUT":
		pairs, err := decodeBatch(m)
		var seq uint64
		if err == nil {
			seq, err = ref.PutBatchSeq(pairs)
		}
		reply = ackReply(id, seq, err)
	case "TRYGET":
		v, seq, err := ref.TryGetSeq(m.Get("attr"))
		reply = lookupReply(id, m.Get("attr"), v, seq, err)
	case "GET":
		attribute := m.Get("attr")
		// Fast path: when the attribute is already present the GET
		// cannot block, so answer inline and skip the per-request
		// goroutine entirely — the common case once a job is running.
		if v, seq, err := ref.TryGetSeq(attribute); err == nil {
			reply = valueReply(id, attribute, v, seq)
			break
		}
		// Blocking get: serve it on its own goroutine so this session
		// keeps processing other requests (the multiplexing that makes
		// async gets possible on a single connection). The latency
		// histogram therefore includes the time spent blocked — the
		// number a tool writer actually experiences.
		go func() {
			v, seq, err := ref.GetSeq(ctx, attribute)
			reply := errReply(id, err)
			if err == nil {
				reply = valueReply(id, attribute, v, seq)
			}
			c.finish(sp, done, reply)
		}()
		return
	case "DELETE":
		seq, err := ref.DeleteSeq(m.Get("attr"))
		reply = ackReply(id, seq, err)
	case "SNAPD":
		// Delta resync: ship only the mutations after the client's seq
		// watermark, falling back to a full versioned snapshot when the
		// bounded change log no longer covers the gap.
		since, err := strconv.ParseUint(m.Get("since"), 10, 64)
		if err != nil {
			reply = errReply(id, fmt.Errorf("snapd: bad since %q", m.Get("since")))
			break
		}
		changes, ctxSeq, covered, err := ref.ChangesSince(since)
		if err != nil {
			reply = errReply(id, err)
			break
		}
		if covered {
			sp.End()
			c.sendEntryChunks("DELTA", id, deltaEntries(changes), ctxSeq, done)
			return
		}
		snap, ctxSeq, err := ref.SnapshotSeq()
		if err != nil {
			reply = errReply(id, err)
			break
		}
		sp.End()
		c.sendEntryChunks("SNAPV", id, versionedEntries(snap), ctxSeq, done)
		return
	case "SNAP":
		// seqs=1 asks for the versioned form: each entry carries its
		// write seq (s<i>) and the reply carries the context seq, which
		// is what a reconnecting session needs to resync without letting
		// a stale snapshot value clobber a newer live event.
		if m.Get("seqs") == "1" {
			snap, ctxSeq, err := ref.SnapshotSeq()
			if err != nil {
				reply = errReply(id, err)
				break
			}
			sp.End()
			c.sendEntryChunks("SNAPV", id, versionedEntries(snap), ctxSeq, done)
			return
		}
		snap, err := ref.Snapshot()
		reply = snapReply(id, snap, err)
	case "SUB":
		c.mu.Lock()
		already := c.sub != nil
		var err error
		if !already {
			c.sub, err = ref.Subscribe(int(srv.evBuf.Load()))
		}
		sub := c.sub
		c.mu.Unlock()
		switch {
		case already:
			reply = errReply(id, errors.New("already subscribed"))
		case err != nil:
			reply = errReply(id, err)
		default:
			go c.pushEvents(sub)
			reply = wire.NewMessage("OK").Set("id", id)
		}
	}
	c.finish(sp, done, reply)
}

// finish completes a request: it ends the request's span, writes and
// releases the reply, then records the latency. The span ends first so that a
// client already holding its reply always finds the server's span in
// the log; the latency includes the reply write.
func (c *serverConn) finish(sp *telemetry.Span, done telemetry.Stopwatch, reply *wire.Message) {
	sp.End()
	c.reply(reply)
	reply.Release()
	done.End()
}

// errReply is the ERROR reply for err, or nil when err is nil.
func errReply(id string, err error) *wire.Message {
	if err == nil {
		return nil
	}
	return wire.NewMessage("ERROR").Set("id", id).Set("error", err.Error())
}

// ackReply acknowledges a mutation with the seq it was assigned.
func ackReply(id string, seq uint64, err error) *wire.Message {
	if err != nil {
		return errReply(id, err)
	}
	return wire.NewMessage("OK").Set("id", id).Set("seq", strconv.FormatUint(seq, 10))
}

func valueReply(id, attribute, v string, seq uint64) *wire.Message {
	return wire.NewMessage("VALUE").Set("id", id).Set("attr", attribute).
		Set("value", v).Set("seq", strconv.FormatUint(seq, 10))
}

// lookupReply answers a non-blocking read: VALUE, NOTFOUND or ERROR.
func lookupReply(id, attribute, v string, seq uint64, err error) *wire.Message {
	switch {
	case errors.Is(err, attr.ErrNotFound):
		return wire.NewMessage("NOTFOUND").Set("id", id).Set("attr", attribute)
	case err != nil:
		return errReply(id, err)
	}
	return valueReply(id, attribute, v, seq)
}

// snapReply is the unversioned single-message snapshot reply.
func snapReply(id string, snap map[string]string, err error) *wire.Message {
	if err != nil {
		return errReply(id, err)
	}
	reply := wire.NewMessage("SNAPV").Set("id", id).SetInt("n", len(snap))
	i := 0
	for k, v := range snap {
		reply.Set("k"+strconv.Itoa(i), k)
		reply.Set("v"+strconv.Itoa(i), v)
		i++
	}
	return reply
}

// handleCtxOp serves the C* context-explicit verbs: single-context
// operations whose target context rides in the message (ctx field)
// rather than in the connection's HELLO binding, which is what lets
// one pooled connection carry every context a shard owns. Ops join the
// context only for the op's duration, and only when somebody already
// holds it (Refs > 0) — the shard router's per-context subscription
// connection provides that reference, so a C* op can never create a
// context as a side effect or apply a write to one that everyone has
// already left. CGET is deliberately non-blocking (tryget semantics):
// the router's drain cycle must never stall behind an op that could
// wait forever — blocking reads stay on the per-context path.
func (c *serverConn) handleCtxOp(m *wire.Message) {
	srv := c.srv
	id := m.Get("id")
	done := srv.observe(m.Verb)
	sp := c.startSpan(m)
	if m.Verb == "CCTXS" {
		c.finish(sp, done, namesReply(id, srv.space.Contexts()))
		return
	}
	name := m.Get("ctx")
	if name == "" {
		c.finish(sp, done, errReply(id, errors.New("ctxop: missing ctx")))
		return
	}
	if owner, refused := srv.shardRefuses(name); refused {
		c.finish(sp, done, errReply(id, fmt.Errorf("wrong shard: context %q belongs to shard %d", name, owner)))
		return
	}
	if srv.space.Refs(name) == 0 {
		c.finish(sp, done, errReply(id, fmt.Errorf("ctxop: no such context %q", name)))
		return
	}
	ref := srv.space.Join(name)
	defer ref.Leave()
	var reply *wire.Message
	switch m.Verb {
	case "CPUT":
		seq, err := ref.PutSeq(m.Get("attr"), m.Get("value"))
		reply = ackReply(id, seq, err)
	case "CMPUT":
		pairs, err := decodeBatch(m)
		var seq uint64
		if err == nil {
			seq, err = ref.PutBatchSeq(pairs)
		}
		reply = ackReply(id, seq, err)
	case "CGET":
		v, seq, err := ref.TryGetSeq(m.Get("attr"))
		reply = lookupReply(id, m.Get("attr"), v, seq, err)
	case "CDEL":
		seq, err := ref.DeleteSeq(m.Get("attr"))
		reply = ackReply(id, seq, err)
	case "CSNAP":
		snap, ctxSeq, err := ref.SnapshotSeq()
		if err != nil {
			reply = errReply(id, err)
			break
		}
		sp.End()
		c.sendEntryChunks("SNAPV", id, versionedEntries(snap), ctxSeq, done)
		return
	}
	c.finish(sp, done, reply)
}

// namesReply lists context names as k<i> fields of an OK.
func namesReply(id string, names []string) *wire.Message {
	reply := wire.NewMessage("OK").Set("id", id).SetInt("n", len(names))
	for i, name := range names {
		reply.Set("k"+strconv.Itoa(i), name)
	}
	return reply
}

// decodeBatch extracts the k0/v0..k(n-1)/v(n-1) pairs of an MPUT. The
// count must be sane before any per-pair work happens: a hostile n
// cannot cost more than the fields actually present.
func decodeBatch(m *wire.Message) ([]attr.KV, error) {
	n, ok := m.Lookup("n")
	if !ok {
		return nil, errors.New("mput: missing n")
	}
	count, err := strconv.Atoi(n)
	if err != nil || count < 0 || count > len(m.Fields) {
		return nil, fmt.Errorf("mput: bad n %q", n)
	}
	pairs := make([]attr.KV, 0, count)
	for i := 0; i < count; i++ {
		k, ok := m.Lookup("k" + strconv.Itoa(i))
		if !ok {
			return nil, fmt.Errorf("mput: missing k%d", i)
		}
		v, ok := m.Lookup("v" + strconv.Itoa(i))
		if !ok {
			return nil, fmt.Errorf("mput: missing v%d", i)
		}
		pairs = append(pairs, attr.KV{Key: k, Value: v})
	}
	return pairs, nil
}

// SnapChunkEntries is the entry-count threshold above which versioned
// snapshot and delta replies are split into part/more chunks on the
// bulk stream. 256 entries keep each frame well under 64KiB for
// typical attribute sizes while leaving few enough parts that chunking
// overhead is negligible.
const SnapChunkEntries = 256

// snapEntry is one attribute in a snapshot or delta reply.
type snapEntry struct {
	k, v string
	seq  uint64
	del  bool
}

func versionedEntries(snap map[string]attr.Versioned) []snapEntry {
	out := make([]snapEntry, 0, len(snap))
	for k, v := range snap {
		out = append(out, snapEntry{k: k, v: v.Value, seq: v.Seq})
	}
	return out
}

func deltaEntries(changes []attr.Change) []snapEntry {
	out := make([]snapEntry, 0, len(changes))
	for _, ch := range changes {
		out = append(out, snapEntry{k: ch.Attr, v: ch.Value, seq: ch.Seq, del: ch.Delete})
	}
	return out
}

func appendEntries(m *wire.Message, entries []snapEntry) {
	for i, e := range entries {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, e.k)
		if e.del {
			m.Set("o"+idx, "d")
		} else {
			m.Set("v"+idx, e.v)
		}
		m.Set("s"+idx, strconv.FormatUint(e.seq, 10))
	}
}

// sendEntryChunks streams entries as `verb` replies. Small replies get
// the single-message form. Large replies are split into parts of
// SnapChunkEntries each and sent from their own goroutine on the bulk
// stream, so the read loop keeps servicing the connection — PING
// heartbeats and window updates interleave with the replay instead of
// queueing behind it. done is stopped once the last part (or the
// single reply) is out.
func (c *serverConn) sendEntryChunks(verb, id string, entries []snapEntry, ctxSeq uint64, done telemetry.Stopwatch) {
	seqStr := strconv.FormatUint(ctxSeq, 10)
	if len(entries) <= SnapChunkEntries {
		m := wire.NewMessage(verb).Set("id", id).SetInt("n", len(entries)).Set("seq", seqStr)
		appendEntries(m, entries)
		c.reply(m)
		done.End()
		return
	}
	go func() {
		defer done.End()
		total := len(entries)
		for lo := 0; lo < total; lo += SnapChunkEntries {
			hi := lo + SnapChunkEntries
			if hi > total {
				hi = total
			}
			m := wire.NewMessage(verb).Set("id", id).SetInt("n", hi-lo).
				Set("seq", seqStr).SetInt("part", lo/SnapChunkEntries).SetInt("total", total)
			if hi < total {
				m.Set("more", "1")
			}
			appendEntries(m, entries[lo:hi])
			if err := c.mux.SendOn(wire.StreamBulk, m); err != nil {
				c.srv.log().Debugf("attrspace: chunked %s to %v failed: %v", verb, c.raw.RemoteAddr(), err)
				return
			}
		}
	}()
}

// pushEvents forwards subscription updates to the peer. Bursts (a
// batched put, a publisher faster than the network) are drained under
// one Cork so the whole burst leaves in a single write. Once per burst
// it samples the ring's overflow counters; any drops since the last
// sample ride the next EVENT as a lost=<delta> field so a mirroring
// consumer knows its picture has a gap.
func (c *serverConn) pushEvents(sub *attr.Subscription) {
	tel := c.srv.tel.Load()
	// The mux puts events on their own flow-controlled stream: a
	// subscriber that stops reading stalls only this goroutine, never
	// the request/reply path.
	updates := sub.Updates()
	var reportedLost, reportedCoal uint64
	for u := range updates {
		var lostDelta uint64
		if l := sub.Lost(); l > reportedLost {
			lostDelta = l - reportedLost
			reportedLost = l
			tel.evLost.Add(int64(lostDelta))
		}
		if cl := sub.Coalesced(); cl > reportedCoal {
			tel.evCoalesced.Add(int64(cl - reportedCoal))
			reportedCoal = cl
		}
		tel.evDepth.Set(int64(sub.Depth()))
		c.wc.Cork()
		err := c.sendEvent(u, lostDelta)
		sent := 1
	drain:
		for err == nil {
			select {
			case u, ok := <-updates:
				if !ok {
					break drain
				}
				err = c.sendEvent(u, 0)
				sent++
			default:
				break drain
			}
		}
		if uerr := c.wc.Uncork(); err == nil {
			err = uerr
		}
		if err != nil {
			return
		}
		tel.evPushed.Add(int64(sent))
	}
}

func (c *serverConn) sendEvent(u attr.Update, lost uint64) error {
	m := wire.NewMessage("EVENT").
		Set("attr", u.Attr).
		Set("value", u.Value).
		Set("op", u.Op.String()).
		Set("seq", strconv.FormatUint(u.Seq, 10))
	if lost > 0 {
		m.Set("lost", strconv.FormatUint(lost, 10))
	}
	return c.mux.SendOn(wire.StreamEvents, m)
}

// handleGlobal serves the G* forwarding verbs: this server acting as a
// LASS relays the operation to its upstream CASS through the global
// cache. Reads are answered from the cache when it holds a live entry
// for the attribute; everything else is one upstream round trip whose
// result (with the CASS-assigned seq) lands in the cache before the
// reply, so a client observes its own writes through the same LASS.
func (c *serverConn) handleGlobal(ctx context.Context, m *wire.Message) {
	c.mu.Lock()
	ref := c.ref
	c.mu.Unlock()
	id := m.Get("id")
	if ref == nil {
		c.reply(wire.NewMessage("ERROR").Set("id", id).Set("error", "HELLO required"))
		return
	}
	gc := c.srv.gcache.Load()
	if gc == nil {
		c.reply(wire.NewMessage("ERROR").Set("id", id).Set("error", "global forwarding not enabled"))
		return
	}
	srv := c.srv
	done := srv.observe(m.Verb)
	sp := c.startSpan(m)
	if sp != nil && m.Get("attr") != "" {
		sp.Set("attr", m.Get("attr"))
	}
	contextName := ref.Context()
	var reply *wire.Message
	switch m.Verb {
	case "GPUT":
		seq, err := gc.Put(ctx, contextName, m.Get("attr"), m.Get("value"))
		reply = ackReply(id, seq, err)
	case "GMPUT":
		pairs, err := decodeBatch(m)
		var seq uint64
		if err == nil {
			seq, err = gc.PutBatch(ctx, contextName, pairs)
		}
		reply = ackReply(id, seq, err)
	case "GTRYGET":
		v, seq, err := gc.TryGet(ctx, contextName, m.Get("attr"))
		reply = lookupReply(id, m.Get("attr"), v, seq, err)
	case "GGET":
		attribute := m.Get("attr")
		// Cache hit: answer inline, no upstream traffic — the steady
		// state the cache exists for.
		if v, seq, err := gc.TryGet(ctx, contextName, attribute); err == nil {
			reply = valueReply(id, attribute, v, seq)
			break
		}
		// Miss: block on the CASS from a goroutine, like local GET.
		go func() {
			v, seq, err := gc.Get(ctx, contextName, attribute)
			reply := errReply(id, err)
			if err == nil {
				reply = valueReply(id, attribute, v, seq)
			}
			c.finish(sp, done, reply)
		}()
		return
	case "GDEL":
		seq, err := gc.Delete(ctx, contextName, m.Get("attr"))
		reply = ackReply(id, seq, err)
	case "GSNAP":
		snap, err := gc.Snapshot(ctx, contextName)
		reply = snapReply(id, snap, err)
	case "GSNAPM":
		// Multi-context snapshot: scatter-gather across the CASS shards.
		// Strict by design — any unreachable context fails the request,
		// because a snapshot that silently omits contexts reads as "they
		// are empty".
		n, aerr := strconv.Atoi(m.Get("n"))
		if aerr != nil || n < 0 || n > len(m.Fields) {
			reply = errReply(id, fmt.Errorf("gsnapm: bad n %q", m.Get("n")))
			break
		}
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			names = append(names, m.Get("k"+strconv.Itoa(i)))
		}
		snaps, err := gc.SnapshotMany(ctx, names)
		if err == nil {
			reply, err = encodeSnapshotMany(id, snaps)
		}
		if err != nil {
			reply = errReply(id, err)
		}
	case "GCTXS":
		// Global context listing: the deduplicated union over every
		// reachable shard. Best-effort by design — a down shard hides
		// its contexts but does not hide the survivors'.
		names, _ := gc.GlobalContexts(ctx)
		reply = namesReply(id, names)
	}
	c.finish(sp, done, reply)
}

func (c *serverConn) reply(m *wire.Message) {
	// Replies ride the control stream; routing them through the mux
	// piggybacks accumulated credit grants on traffic the client was
	// waiting for anyway.
	if err := c.mux.SendOn(wire.StreamControl, m); err != nil {
		c.srv.log().Debugf("attrspace: send to %v failed: %v", c.raw.RemoteAddr(), err)
	}
}

// ListenAndServe starts the server on a network address and returns
// the bound address. A plain host:port listens on TCP; the form
// "unix:/path/to.sock" listens on a unix-domain socket (the same-host
// fast path — stale socket files from a crashed predecessor are
// removed first). Used by cmd/lassd and cmd/cassd; a daemon may call
// it more than once to serve TCP and unix simultaneously.
func (s *Server) ListenAndServe(addr string) (string, error) {
	network, address := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, address = "unix", path
		os.Remove(path)
	}
	l, err := net.Listen(network, address)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(l); err != nil {
			s.log().Errorf("attrspace: serve: %v", err)
		}
	}()
	if network == "unix" {
		return "unix:" + l.Addr().String(), nil
	}
	return l.Addr().String(), nil
}

// ListenUnixBeside derives the conventional same-host socket path for a
// TCP address this server is already serving and listens there too, so
// local clients can skip the TCP stack (see AutoDial). It returns the
// "unix:..." address, or "" with a nil error when the TCP address has
// no usable port.
func (s *Server) ListenUnixBeside(tcpAddr string) (string, error) {
	path := SocketPathFor(tcpAddr)
	if path == "" {
		return "", nil
	}
	return s.ListenAndServe("unix:" + path)
}
