// Package mrnet implements a software multicast/reduction network for
// scalable tools — the auxiliary-service kind the paper requires the
// resource manager to be able to launch ("software multicast/reduction
// networks are crucial to scalable tool use", §2, citing MRNet). With
// hundreds of daemons, a front-end cannot hold one connection per
// daemon; a tree of internal nodes multicasts control downstream and
// reduces data upstream.
//
// A Node interposes transparently on the paradyn front-end protocol:
//
//   - downstream it acts like a front-end: accepts daemon REGISTER
//     messages, forwards the RUN command, receives SAMPLE/DONE;
//   - upstream it acts like a single daemon: registers itself as an
//     aggregate, forwards reduced samples, and reports DONE when every
//     child is done.
//
// Reduction sums per-function call counts and times across children —
// exactly the merge the front-end would do, moved into the tree.
// Nodes compose: a node's parent may be another node, forming trees of
// any fan-in and depth.
//
// Beyond the profile reduction, the tree doubles as the pool's
// observability plane. Children publish their telemetry registries as
// TSAMPLE streams; each node applies a per-kind aggregation filter
// (counters sum, gauges last/max, histograms merge — see stream.go)
// and forwards one Cork-batched update per stream per flush, so the
// front-end's message rate depends on the number of distinct metrics,
// not the number of daemons. Each node also injects its own registry
// and topology (subtree daemon count, tree depth) into the streams,
// answers `STATS scope=tree` with the merged subtree snapshot, and
// surfaces child failure as a synthetic host_down sample plus an
// mrnet.hosts.down counter. A node that loses its parent reconnects
// with resume semantics and re-publishes its cumulative state, which
// is safe because every stream carries latest values, never deltas.
package mrnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tdp/internal/paradyn"
	"tdp/internal/telemetry"
	"tdp/internal/toolapi"
	"tdp/internal/wire"
)

// Uplink capabilities a node offers in its REGISTER and a parent node
// grants in an OK. The paradyn front-end never acks them, so a node
// registered directly with it keeps a bare connection.
const (
	// muxCap: samples ride a byte-window flow-controlled stream.
	muxCap = "mux"
	// tbatchCap: a whole drain cycle's SAMPLE and TSAMPLE updates pack
	// into one TBATCH frame.
	tbatchCap = "tbatch"
)

// DialFunc opens the upstream connection (to the parent node or the
// real front-end).
type DialFunc func(addr string) (net.Conn, error)

// Config parameterizes a Node.
type Config struct {
	// Name identifies this node in its upstream registration.
	Name string
	// Listener accepts downstream (daemon or child-node) connections.
	Listener net.Listener
	// ParentAddr is the upstream address (front-end or parent node).
	ParentAddr string
	// Dial opens the upstream connection; nil uses TCP.
	Dial DialFunc
	// FlushInterval is how often reduced samples flow upstream.
	// Zero means 5ms.
	FlushInterval time.Duration
	// ExpectedChildren, when > 0, delays the upstream REGISTER until
	// that many children have registered, so the aggregate announces
	// itself once, completely. Zero registers upstream immediately.
	ExpectedChildren int
	// StreamBuffer bounds the telemetry dirty set: when that many
	// distinct streams have pending updates, the absorbing child
	// handler flushes synchronously before accepting more
	// (back-pressure). Zero means a generous default.
	StreamBuffer int
	// Registry is the node's own telemetry; nil creates a private one.
	// Its metrics self-publish into the stream plane every flush.
	Registry *telemetry.Registry
	// Tracer records the node's spans (TSAMPLE receipt, uplink
	// flushes); nil creates one named after the node.
	Tracer *telemetry.Tracer
}

// Node is one process of the reduction network.
type Node struct {
	cfg     Config
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	streams *streamAgg

	mu           sync.Mutex
	up           *wire.Conn
	upMux        *wire.Mux // non-nil once the parent granted the mux cap
	upBatch      bool      // parent granted tbatch: whole drain cycles ride one frame
	reconnecting bool
	children     map[string]*childState
	totals       map[string]paradyn.FuncStats
	synthetic    map[string]paradyn.FuncStats // host_down and friends
	lastSelf     telemetry.Snapshot           // last self-published registry state
	fnsDirty     bool                         // a profile sample arrived since the last reduce
	selfEvery    int                          // flush cycles between self-registry publications
	selfCount    int                          // cycles until the next one (0 = due now)
	selfForce    bool                         // publish self on the next flush regardless
	doneCount    int
	exitAgg      string
	closed       bool
	ranSent      bool
	runRecvd     bool
	upReadyOnce  sync.Once
	upReady      chan struct{}
	sessionDone  chan struct{}
	wg           sync.WaitGroup
}

type childState struct {
	name string
	host string
	kind string // "daemon" or "node"
	conn *wire.Conn
	// latest per-function sample from this child; reduction recomputes
	// totals from the latest value of every child, so repeated samples
	// do not double-count.
	latest map[string]paradyn.FuncStats
	done   bool
	gone   bool // connection died before DONE (host down)
}

// ChildInfo is one downstream registration, for topology views.
type ChildInfo struct {
	Name string
	Host string
	Kind string
	Done bool
	Gone bool
}

// ErrNoParent is returned when the node cannot reach its parent.
var ErrNoParent = errors.New("mrnet: cannot reach parent")

// NewNode starts a node. It begins accepting children immediately and
// connects upstream (immediately, or after ExpectedChildren register).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Listener == nil {
		return nil, errors.New("mrnet: Config.Listener is required")
	}
	if cfg.ParentAddr == "" {
		return nil, errors.New("mrnet: Config.ParentAddr is required")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.Name == "" {
		cfg.Name = "mrnet-node"
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(cfg.Name)
	}
	n := &Node{
		cfg:         cfg,
		reg:         cfg.Registry,
		tracer:      cfg.Tracer,
		children:    make(map[string]*childState),
		totals:      make(map[string]paradyn.FuncStats),
		synthetic:   make(map[string]paradyn.FuncStats),
		upReady:     make(chan struct{}),
		sessionDone: make(chan struct{}),
	}
	// Self-registry publication rides the flush loop but at a coarser
	// cadence (~100ms, at most every 16th cycle): snapshotting and
	// diffing the registry every millisecond-scale cycle costs more CPU
	// than forwarding the children's streams does, and the node's own
	// wire counters change on every message, so publishing them each
	// cycle keeps every uplink permanently dirty. Event edges that must
	// not wait (child death, resync, session end) force an immediate
	// publication, and TreeSnapshot publishes on demand.
	n.selfEvery = int(100 * time.Millisecond / cfg.FlushInterval)
	if n.selfEvery < 1 {
		n.selfEvery = 1
	} else if n.selfEvery > 16 {
		n.selfEvery = 16
	}
	n.streams = newStreamAgg(cfg.StreamBuffer, newStreamMetrics(n.reg))
	if cfg.ExpectedChildren <= 0 {
		if err := n.connectUpstream(false); err != nil {
			cfg.Listener.Close()
			return nil, err
		}
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.flushLoop()
	return n, nil
}

// Addr returns the address daemons (or child nodes) should dial.
func (n *Node) Addr() string { return n.cfg.Listener.Addr().String() }

// Registry returns the node's own telemetry registry.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Tracer returns the node's span tracer.
func (n *Node) Tracer() *telemetry.Tracer { return n.tracer }

// connectUpstream dials the parent and registers. With resume set the
// registration replaces a prior session (after a reconnect) and the
// node re-publishes its full cumulative state, which latest-value
// semantics make safe.
func (n *Node) connectUpstream(resume bool) error {
	raw, err := n.cfg.Dial(n.cfg.ParentAddr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoParent, err)
	}
	up := wire.NewConn(raw)
	up.InstrumentRegistry(n.reg)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		up.Close()
		return errors.New("mrnet: node closed")
	}
	children := len(n.children)
	n.mu.Unlock()
	reg := wire.NewMessage("REGISTER").
		Set("daemon", n.cfg.Name).
		Set("host", "mrnet").
		Set("kind", "node").
		Set("executable", fmt.Sprintf("aggregate(%d children)", children)).
		SetInt("pid", 0).
		SetInt("rank", 0).
		// Offer the mux and batched flushes. A parent node acks with OK
		// caps=mux,tbatch and the uplink upgrades; the real front-end
		// ignores the field and the uplink stays bare. (The shm cap is
		// not offered here: tree links cross hosts by construction, and
		// a co-located daemon's attribute traffic already rides the
		// attrspace clients, which negotiate shm on their own.)
		Set("caps", muxCap+","+tbatchCap)
	if resume {
		reg.Set("resume", "1")
	}
	if err := up.Send(reg); err != nil {
		up.Close()
		return err
	}
	n.mu.Lock()
	n.up = up
	n.upMux = nil
	n.upBatch = false
	n.reconnecting = false
	if resume {
		// The new parent session starts from nothing: resend every
		// function total and the self registry on the next flush.
		clear(n.totals)
		n.fnsDirty = true
		n.selfForce = true
	}
	n.mu.Unlock()
	if resume {
		n.streams.dirtyAll()
	}
	n.upReadyOnce.Do(func() { close(n.upReady) })
	// Upstream RUN handling: multicast to children. A receive error
	// means the parent is gone; hand off to the reconnect path.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			m, err := up.Recv()
			if err != nil {
				n.upstreamLost(up)
				return
			}
			n.mu.Lock()
			x := n.upMux
			n.mu.Unlock()
			if x != nil {
				if _, handled := x.Accept(m); handled {
					continue // WINUP: grants applied, flush unblocked
				}
			}
			switch m.Verb {
			case "OK":
				// A parent node acking our registration: upgrade the
				// uplink per granted cap — mux puts samples on a
				// flow-controlled stream, tbatch collapses each drain
				// cycle into one frame.
				caps := wire.ParseCaps(m.Get("caps"))
				n.mu.Lock()
				if n.up == up {
					if caps[muxCap] && n.upMux == nil {
						n.upMux = wire.NewMux(up, wire.MuxConfig{Registry: n.reg})
					}
					if caps[tbatchCap] {
						n.upBatch = true
					}
				}
				n.mu.Unlock()
			case "RUN":
				n.multicastRun()
			}
		}
	}()
	return nil
}

// upstreamLost reacts to a dead parent connection: drop it and start
// (at most one) background reconnect loop.
func (n *Node) upstreamLost(up *wire.Conn) {
	n.mu.Lock()
	if n.closed || n.up != up {
		n.mu.Unlock()
		return
	}
	n.up = nil
	x := n.upMux
	n.upMux = nil
	n.upBatch = false
	if n.reconnecting {
		n.mu.Unlock()
		if x != nil {
			x.Fail(nil)
		}
		return
	}
	n.reconnecting = true
	n.mu.Unlock()
	if x != nil {
		// Wake any flush blocked on window credits the dead parent will
		// never grant.
		x.Fail(nil)
	}
	up.Close()
	n.reg.Counter("mrnet.up.reconnects").Inc()
	n.wg.Add(1)
	go n.reconnectLoop()
}

func (n *Node) reconnectLoop() {
	defer n.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		if err := n.connectUpstream(true); err == nil {
			return
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// multicastRun forwards the front-end's RUN to every child, including
// children that register later.
func (n *Node) multicastRun() {
	n.mu.Lock()
	n.runRecvd = true
	conns := make([]*wire.Conn, 0, len(n.children))
	for _, c := range n.children {
		if !c.gone {
			conns = append(conns, c.conn)
		}
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Send(wire.NewMessage("RUN"))
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.cfg.Listener.Accept()
		if err != nil {
			return
		}
		go n.handleChild(c)
	}
}

// rejectChild replies with an ERROR frame naming the reason, then
// closes — a malformed registration must not be a silent drop.
func rejectChild(wc *wire.Conn, raw net.Conn, reason string) {
	wc.Send(wire.NewMessage("ERROR").Set("error", reason))
	raw.Close()
}

func (n *Node) handleChild(raw net.Conn) {
	wc := wire.NewConn(raw)
	wc.InstrumentRegistry(n.reg)
	first, err := wc.Recv()
	if err != nil {
		raw.Close()
		return
	}
	// A connection may open with STATS instead of REGISTER: a
	// monitoring client (tdptop) polling the subtree rollup.
	if first.Verb == "STATS" {
		n.serveStatsConn(wc, raw, first)
		return
	}
	if first.Verb != "REGISTER" {
		rejectChild(wc, raw, fmt.Sprintf("mrnet: expected REGISTER, got %s", first.Verb))
		return
	}
	name := first.Get("daemon")
	if name == "" {
		rejectChild(wc, raw, "mrnet: REGISTER without daemon name")
		return
	}
	kind := first.Get("kind")
	if kind == "" {
		kind = "daemon"
	}
	resume := first.Get("resume") == "1"
	child := &childState{
		name:   name,
		host:   first.Get("host"),
		kind:   kind,
		conn:   wc,
		latest: make(map[string]paradyn.FuncStats),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		raw.Close()
		return
	}
	if old, ok := n.children[name]; ok {
		if old.done || (!resume && !old.gone) {
			n.mu.Unlock()
			rejectChild(wc, raw, fmt.Sprintf("mrnet: duplicate registration for %q", name))
			return
		}
		// Reconnect (resume, or replacing a downed host): inherit the
		// old function totals and telemetry streams as the starting
		// point so the reduction stays monotone while the child
		// re-publishes; cumulative values overwrite in place, so
		// nothing double-counts.
		child.latest = old.latest
		old.conn.Close()
	}
	replacing := n.children[name] != nil
	n.children[name] = child
	count := len(n.children)
	runAlready := n.runRecvd
	needUpstream := n.up == nil && !n.reconnecting && n.cfg.ExpectedChildren > 0 && count >= n.cfg.ExpectedChildren
	n.selfForce = true // topology changed: republish mrnet.tree.* promptly
	n.mu.Unlock()

	// Grant the mux and tbatch caps to children that offered them
	// (child nodes do; plain daemons offer nothing and never see the
	// ack). The mux runs receive-side here: Accept meters the child's
	// stamped samples and returns window credit as WINUPs. tbatch lets
	// the child pack each drain cycle into one TBATCH frame.
	var cm *wire.Mux
	childCaps := wire.ParseCaps(first.Get("caps"))
	var granted []string
	if childCaps[muxCap] {
		// Windows count bytes: a sample burst is bounded in bytes, so one
		// fat TBATCH cannot eat the same window as dozens of small
		// flushes.
		cm = wire.NewMux(wc, wire.MuxConfig{Registry: n.reg})
		granted = append(granted, muxCap)
	}
	if childCaps[tbatchCap] {
		granted = append(granted, tbatchCap)
	}
	if len(granted) > 0 {
		wc.Send(wire.NewMessage("OK").Set("caps", strings.Join(granted, ",")))
	}

	if replacing {
		n.streams.revive(name)
	}
	if needUpstream {
		if err := n.connectUpstream(false); err != nil {
			// Parent unreachable right now: keep absorbing children and
			// retry in the background. The retry registers with resume
			// semantics, which a parent that never saw us treats as a
			// fresh registration.
			n.mu.Lock()
			if !n.closed && n.up == nil && !n.reconnecting {
				n.reconnecting = true
				n.wg.Add(1)
				go n.reconnectLoop()
			}
			n.mu.Unlock()
		}
	}
	if runAlready {
		wc.Send(wire.NewMessage("RUN"))
	}

	// The receive loop owns its message and dispatches synchronously, so
	// RecvInto's map reuse applies: at fan-in rates (64 daemons × one
	// sample per cycle) the per-message allocation is measurable.
	m := new(wire.Message)
	for {
		if err := wc.RecvInto(m); err != nil {
			n.childGone(child)
			raw.Close()
			return
		}
		if cm != nil {
			if _, handled := cm.Accept(m); handled {
				continue
			}
		}
		switch m.Verb {
		case "SAMPLE":
			calls, _ := strconv.ParseInt(m.Get("calls"), 10, 64)
			us, _ := strconv.ParseInt(m.Get("time_us"), 10, 64)
			n.mu.Lock()
			child.latest[m.Get("fn")] = paradyn.FuncStats{Calls: calls, TimeMicros: us}
			n.fnsDirty = true
			n.mu.Unlock()
		case "TBATCH":
			// One whole drain cycle from a batching child: its dirty
			// profile functions and telemetry streams in one frame.
			profs, tels, err := wire.ParseTBatch(m)
			if err != nil {
				wc.Send(wire.NewMessage("ERROR").Set("error", err.Error()))
				continue
			}
			n.mu.Lock()
			for _, p := range profs {
				child.latest[p.Fn] = paradyn.FuncStats{Calls: p.Calls, TimeMicros: p.TimeUS}
			}
			if len(profs) > 0 {
				n.fnsDirty = true
			}
			n.mu.Unlock()
			needFlush := false
			for _, ts := range tels {
				// Batched items carry no per-item trace spans — the
				// tradeoff of one frame per cycle; the cycle itself is
				// still counted by the flush metrics.
				if n.streams.update(child.name, ts, "", "") {
					needFlush = true
				}
			}
			if needFlush {
				n.flush()
			}
		case "TSAMPLE":
			ts, err := wire.ParseTSample(m)
			if err != nil {
				wc.Send(wire.NewMessage("ERROR").Set("error", err.Error()))
				continue
			}
			tid, sid := m.Trace()
			if tid != "" {
				// Record this hop so the daemon→root chain has no gaps;
				// the uplink flush will continue the chain from here.
				sp := n.tracer.StartChild("mrnet.tsample", tid, sid)
				sp.End()
				sid = sp.SpanID()
			}
			if n.streams.update(child.name, ts, tid, sid) {
				// Dirty set full: flush before absorbing more, which
				// stalls this child's connection — back-pressure.
				n.flush()
			}
		case "STATS":
			n.replyStats(wc, m)
		case "DONE":
			n.mu.Lock()
			if !child.done {
				child.done = true
				n.doneCount++
				if n.exitAgg == "" {
					n.exitAgg = m.Get("status")
				} else if m.Get("status") != n.exitAgg {
					n.exitAgg = "mixed"
				}
			}
			allDone := n.cfg.ExpectedChildren > 0 && n.doneCount >= n.cfg.ExpectedChildren
			if allDone {
				n.selfForce = true // final flush carries the full self state
			}
			n.mu.Unlock()
			if allDone {
				n.flush()
				n.sendDone()
			}
		}
	}
}

// childGone handles a connection that died before DONE: the host is
// down. Its profile totals stay in the reduction (monotone); its
// telemetry streams retire (counters/hists keep counting, gauges drop
// out); the failure surfaces as an mrnet.hosts.down counter and a
// synthetic host_down function sample that sums up the tree like any
// profile entry.
func (n *Node) childGone(child *childState) {
	n.mu.Lock()
	if n.closed || child.done || child.gone || n.children[child.name] != child {
		n.mu.Unlock()
		return
	}
	child.gone = true
	s := n.synthetic["host_down"]
	s.Calls++
	n.synthetic["host_down"] = s
	n.fnsDirty = true
	n.selfForce = true // hosts.down must not wait for the self cadence
	n.mu.Unlock()
	n.reg.Counter("mrnet.hosts.down").Inc()
	n.streams.retire(child.name)
}

// serveStatsConn answers STATS queries on a connection that never
// registered — a monitoring client. It loops until the client hangs
// up.
func (n *Node) serveStatsConn(wc *wire.Conn, raw net.Conn, first *wire.Message) {
	m := first
	for {
		n.replyStats(wc, m)
		next, err := wc.Recv()
		if err != nil || next.Verb != "STATS" {
			raw.Close()
			return
		}
		m = next
	}
}

// replyStats answers one STATS message: scope=tree returns the merged
// subtree rollup, anything else the node's own registry. The reply
// shape (STATSV daemon= json=) matches the attrspace servers, so one
// monitoring client can poll either.
func (n *Node) replyStats(wc *wire.Conn, m *wire.Message) {
	var snap telemetry.Snapshot
	if m.Get("scope") == "tree" {
		snap = n.TreeSnapshot()
	} else {
		snap = n.reg.Snapshot()
	}
	data, err := json.Marshal(snap)
	if err != nil {
		wc.Send(wire.NewMessage("ERROR").Set("error", err.Error()))
		return
	}
	reply := wire.NewMessage("STATSV").
		Set("daemon", n.cfg.Name).
		Set("json", string(data))
	if id := m.Get("id"); id != "" {
		reply.Set("id", id)
	}
	wc.Send(reply)
}

// TreeSnapshot returns the merged telemetry of the whole subtree:
// every child's published registry (recursively — child nodes stream
// their own aggregates) plus this node's. This is what `STATS
// scope=tree` serves.
func (n *Node) TreeSnapshot() telemetry.Snapshot {
	n.publishSelf()
	return n.streams.snapshot()
}

// Topology lists the node's direct children, sorted by name.
func (n *Node) Topology() []ChildInfo {
	n.mu.Lock()
	out := make([]ChildInfo, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, ChildInfo{Name: c.name, Host: c.host, Kind: c.kind, Done: c.done, Gone: c.gone})
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// publishSelf injects the node's own registry changes and topology
// into the stream plane, so they aggregate up the tree like any
// daemon's telemetry.
func (n *Node) publishSelf() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	cur := n.reg.Snapshot()
	diff := telemetry.SnapshotDiff(n.lastSelf, cur)
	n.lastSelf = cur
	daemons := 0
	for _, c := range n.children {
		if c.kind == "daemon" && !c.gone {
			daemons++
		}
	}
	n.mu.Unlock()
	for _, ts := range wire.AppendSnapshotSamples(nil, diff) {
		n.streams.inject(ts)
	}
	// Topology streams: direct daemon count sums to the pool total at
	// the root; depth is one more than the deepest child node reports.
	n.streams.inject(wire.TelemetrySample{
		Kind: wire.KindCounter, Name: "mrnet.tree.daemons", Value: int64(daemons),
	})
	childDepth := n.streams.childMax(streamKey{kind: wire.KindGaugeMax, name: "mrnet.tree.depth"})
	n.streams.inject(wire.TelemetrySample{
		Kind: wire.KindGaugeMax, Name: "mrnet.tree.depth", Value: childDepth + 1,
	})
}

// reduce recomputes per-function totals from every child's latest
// sample plus the node's synthetic entries (host_down).
func (n *Node) reduce() map[string]paradyn.FuncStats {
	totals := make(map[string]paradyn.FuncStats)
	for fn, s := range n.synthetic {
		totals[fn] = s
	}
	for _, c := range n.children {
		for fn, s := range c.latest {
			t := totals[fn]
			t.Calls += s.Calls
			t.TimeMicros += s.TimeMicros
			totals[fn] = t
		}
	}
	return totals
}

func (n *Node) flushLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.FlushInterval)
	defer ticker.Stop()
	for range ticker.C {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		n.flush()
	}
}

// Flush drives one flush cycle by hand: reduced samples and telemetry
// aggregates that changed since the last cycle go upstream now. Safe
// to call from any goroutine, concurrently with the timer-driven
// flushLoop. Harnesses configure a very long FlushInterval and call
// this (bottom-up across a tree — see Tree.FlushUp) so convergence is
// a function of flush rounds, not wall-clock timing.
func (n *Node) Flush() { n.flush() }

// flush sends upstream, in one corked burst, every function whose
// reduced value changed and every telemetry stream whose aggregate
// changed. With the parent gone it leaves state dirty for the
// reconnect resync.
func (n *Node) flush() {
	n.mu.Lock()
	doSelf := n.selfForce || n.selfCount <= 0
	if doSelf {
		n.selfForce = false
		n.selfCount = n.selfEvery
	}
	n.selfCount--
	n.mu.Unlock()
	if doSelf {
		n.publishSelf()
	}
	n.mu.Lock()
	up := n.up
	upX := n.upMux
	batch := n.upBatch
	if up == nil || n.closed {
		n.mu.Unlock()
		return
	}
	var reduced map[string]paradyn.FuncStats
	var dirty []string
	if n.fnsDirty {
		// Recomputing the profile reduction walks every child's latest
		// map; skip the walk entirely on the (steady-state) cycles where
		// no SAMPLE arrived, since the totals cannot have changed.
		n.fnsDirty = false
		reduced = n.reduce()
		for fn, s := range reduced {
			if n.totals[fn] != s {
				n.totals[fn] = s
				dirty = append(dirty, fn)
			}
		}
	}
	n.mu.Unlock()
	items := n.streams.takeDirty()
	if len(dirty) == 0 && len(items) == 0 {
		return
	}
	n.streams.met.flushes.Inc()
	sort.Strings(dirty)
	// With a muxed uplink, samples ride the flow-controlled samples
	// stream: a slow parent throttles this node without the unbounded
	// buffering a bare connection would accumulate. SendOn flushes the
	// cork before blocking on credits, so the two compose safely.
	send := up.Send
	if upX != nil {
		send = func(m *wire.Message) error { return upX.SendOn(wire.StreamSamples, m) }
	}
	if batch {
		// tbatch uplink: the drain cycle's dirty profile functions
		// and untraced telemetry streams leave as one TBATCH frame. This
		// is what keeps a reduction level from costing more frames than
		// it saves: without it the self-published registry diffs alone
		// keep ~6 streams dirty per node per cycle, and each level of
		// the tree multiplies that into per-stream frames. Items
		// carrying a trace context stay on individual TSAMPLEs — the
		// per-hop span chain is the point of stamping them, and they are
		// rare enough not to matter for frame rate.
		profs := make([]wire.BatchProfileSample, 0, len(dirty))
		for _, fn := range dirty {
			s := reduced[fn]
			profs = append(profs, wire.BatchProfileSample{Fn: fn, Calls: s.Calls, TimeUS: s.TimeMicros})
		}
		tels := make([]wire.TelemetrySample, 0, len(items))
		var traced []flushItem
		for _, it := range items {
			if it.tid != "" {
				traced = append(traced, it)
				continue
			}
			tels = append(tels, it.sample)
		}
		up.Cork()
		var err error
		if len(profs)+len(tels) > 0 {
			m, merr := wire.EncodeTBatch(profs, tels)
			if merr == nil {
				err = send(m)
			}
		}
		for _, it := range traced {
			if err != nil {
				break
			}
			msg, merr := it.sample.Message()
			if merr != nil {
				continue
			}
			sp := n.tracer.StartChild("mrnet.flush", it.tid, it.sid)
			msg.SetTrace(it.tid, sp.SpanID())
			sp.End()
			err = send(msg)
		}
		if uerr := up.Uncork(); err == nil {
			err = uerr
		}
		if err != nil {
			n.streams.met.lost.Add(int64(len(items)))
			n.upstreamLost(up)
		}
		return
	}
	up.Cork()
	var err error
	for _, fn := range dirty {
		s := reduced[fn]
		if err = send(wire.NewMessage("SAMPLE").
			Set("fn", fn).
			Set("calls", strconv.FormatInt(s.Calls, 10)).
			Set("time_us", strconv.FormatInt(s.TimeMicros, 10))); err != nil {
			break
		}
	}
	if err == nil {
		for _, it := range items {
			msg, merr := it.sample.Message()
			if merr != nil {
				continue
			}
			if it.tid != "" {
				// Continue the daemon's trace across the uplink hop.
				sp := n.tracer.StartChild("mrnet.flush", it.tid, it.sid)
				msg.SetTrace(it.tid, sp.SpanID())
				sp.End()
			}
			if err = send(msg); err != nil {
				break
			}
		}
	}
	if uerr := up.Uncork(); err == nil {
		err = uerr
	}
	if err != nil {
		// These aggregates never reached the parent. The reconnect
		// resync (dirtyAll) will re-publish current values; the lost
		// counter records that a gap happened.
		n.streams.met.lost.Add(int64(len(items)))
		n.upstreamLost(up)
	}
}

func (n *Node) sendDone() {
	n.mu.Lock()
	up := n.up
	status := n.exitAgg
	done := n.ranSent
	n.ranSent = true
	n.mu.Unlock()
	if up == nil || done {
		return
	}
	up.Send(wire.NewMessage("DONE").Set("status", status))
	close(n.sessionDone)
}

// SessionDone returns a channel closed once every expected child has
// reported DONE and the aggregate DONE has been written upstream. Use
// it to shut the node down without racing the final flush.
func (n *Node) SessionDone() <-chan struct{} { return n.sessionDone }

// ChildCount reports registered children.
func (n *Node) ChildCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.children)
}

// DoneCount reports children that sent DONE.
func (n *Node) DoneCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.doneCount
}

// Close tears the node down (children and upstream).
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	children := make([]*childState, 0, len(n.children))
	for _, c := range n.children {
		children = append(children, c)
	}
	up := n.up
	n.mu.Unlock()
	n.cfg.Listener.Close()
	for _, c := range children {
		c.conn.Close()
	}
	if up != nil {
		up.Close()
	}
}

// AuxService adapts a single reduction node to the RM auxiliary
// service interface (toolapi.AuxFactory): the resource manager's
// starter launches it with the front-end address as the parent, and
// the tool daemon is given the node's address instead — transparent
// interposition. fanIn is how many daemons the node waits for before
// registering upstream and how many DONEs complete the session (1 for
// a sequential job's single daemon).
func AuxService(fanIn int) func(env toolapi.Env, args []string, parentAddr string) (string, func(), error) {
	if fanIn < 1 {
		fanIn = 1
	}
	return func(env toolapi.Env, args []string, parentAddr string) (string, func(), error) {
		if parentAddr == "" {
			return "", nil, errors.New("mrnet: aux service needs a front-end address (set +FrontendAddr)")
		}
		var l net.Listener
		var err error
		var dial DialFunc
		if env.Dial != nil {
			// Simulated network: bind on the execution host.
			dial = func(addr string) (net.Conn, error) { return env.Dial(addr) }
		}
		l, err = listenFor(env)
		if err != nil {
			return "", nil, err
		}
		name := fmt.Sprintf("mrnet-%s", env.Context)
		node, err := NewNode(Config{
			Name:             name,
			Listener:         l,
			ParentAddr:       parentAddr,
			Dial:             dial,
			ExpectedChildren: fanIn,
			// A named registry/tracer: the RM-launched node's own
			// telemetry flows up to the front-end like any daemon's.
			Registry: telemetry.NewRegistry(),
			Tracer:   telemetry.NewTracer(name),
		})
		if err != nil {
			return "", nil, err
		}
		shutdown := func() {
			// Let the session's final reduction and DONE drain before
			// tearing the node down.
			select {
			case <-node.SessionDone():
			case <-time.After(5 * time.Second):
			}
			node.Close()
		}
		return node.Addr(), shutdown, nil
	}
}

// listenFor binds a listener on the execution host: loopback TCP by
// default; the host's simulated network when the machine lives there.
func listenFor(env toolapi.Env) (net.Listener, error) {
	if env.NetListen != nil {
		return env.NetListen()
	}
	return net.Listen("tcp", "127.0.0.1:0")
}
