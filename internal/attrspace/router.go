package attrspace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// This file is the LASS-side shard router: the piece that turns the
// GlobalCache from a relay onto one CASS into a relay onto a ShardMap
// of them. It owns one shardConn per shard, each holding
//
//   - a health Session ("tdp.router" context) whose reconnect loop and
//     heartbeats track shard liveness, so a dead shard fails its ops
//     fast (ErrShardDown) instead of hanging every caller on dial
//     timeouts — and so one shard's death degrades only its hash range
//     while the others keep serving;
//   - a pooled, muxed data connection speaking the context-explicit C*
//     verbs: any context's ops ride this one connection,
//     named per message by a ctx field. Ops destined for the same
//     shard coalesce into Cork-batched drain cycles — one corked write
//     and one bounded in-flight window per shard — which both
//     amortizes the per-frame cost and bounds how many operations can
//     be in limbo when a shard dies mid-batch.
//
// Multi-context scatter-gather (SnapshotMany, Contexts listing,
// per-shard STATS) fans out concurrently across shardConns and merges.

// ErrShardDown reports an operation routed to a shard whose health
// session is currently disconnected: the op fails fast rather than
// queueing behind a dial that cannot succeed. Ops on other shards are
// unaffected — this error is the degraded mode, not an outage of the
// global space.
var ErrShardDown = errors.New("attrspace: shard down")

// defaultShardBatch bounds the operations one drain cycle corks into a
// single write when CacheConfig.ShardBatch is zero. The bound is the
// router's flow control: at most this many ops are in flight per shard
// (so a shard crash strands a bounded set), and no single shard's burst
// can monopolize the sender.
const defaultShardBatch = 64

// routerContext is the infrastructure context each shard health
// session joins. It carries no data; its HELLO/heartbeat traffic is
// the liveness probe. The InfraContextPrefix exempts it from shard
// ownership enforcement, since it must exist on every shard.
const routerContext = InfraContextPrefix + "router"

// shardOp is one queued operation awaiting a drain cycle.
type shardOp struct {
	m    *wire.Message
	done chan shardReply
}

// shardReply carries an op's outcome: the raw reply plus, for a
// chunked reply, its interior parts in order.
type shardReply struct {
	reply *wire.Message
	parts []*wire.Message
	err   error
}

// shardConn is the router's state for one shard.
type shardConn struct {
	gc   *GlobalCache
	idx  int
	addr string
	sess *Session // health: reconnect + heartbeat; nil in tests only

	mu       sync.Mutex
	pool     *Client // pooled C* connection; nil until first use or after loss
	queue    []*shardOp
	draining bool

	gUp       *telemetry.Gauge
	gErrors   *telemetry.Counter
	gInflight *telemetry.Gauge
	cPooled   *telemetry.Counter
}

func (gc *GlobalCache) newShardConn(idx int) *shardConn {
	reg := gc.srv.tel.Load().reg
	prefix := "attrspace.router.shard." + strconv.Itoa(idx) + "."
	sh := &shardConn{
		gc:        gc,
		idx:       idx,
		addr:      gc.shards.Addr(idx),
		gUp:       reg.Gauge(prefix + "up"),
		gErrors:   reg.Counter(prefix + "errors"),
		gInflight: reg.Gauge(prefix + "inflight"),
		cPooled:   reg.Counter("attrspace.router.pooled"),
	}
	sh.sess = NewSession(SessionConfig{
		Dial:        gc.dial,
		Addr:        sh.addr,
		Context:     routerContext,
		MaxAttempts: -1, // a shard outage outlasts any finite budget
		Heartbeat:   gc.heartbeat,
		ConnectWait: 5 * time.Second,
		Registry:    reg,
		Logger:      gc.srv.log(),
	})
	return sh
}

// down reports whether the shard should fail fast: its health session
// has connected before and is currently not connected. Before the
// first connect the router gives the shard the benefit of the doubt
// (ops attempt their own dial), so startup ordering — LASS before
// CASS — keeps working.
func (sh *shardConn) down() bool {
	return sh.sess != nil && sh.sess.HasConnected() && !sh.sess.Up()
}

// downErr wraps ErrShardDown with this shard's identity and counts the
// failed op; every fail-fast site returns through here.
func (sh *shardConn) downErr() error {
	sh.gErrors.Inc()
	return fmt.Errorf("%w: shard %d (%s)", ErrShardDown, sh.idx, sh.addr)
}

func (sh *shardConn) close() {
	sh.mu.Lock()
	pool := sh.pool
	sh.pool = nil
	queue := sh.queue
	sh.queue = nil
	sh.mu.Unlock()
	for _, op := range queue {
		op.done <- shardReply{err: ErrClientClosed}
	}
	if pool != nil {
		pool.Close()
	}
	if sh.sess != nil {
		sh.sess.Close()
	}
	sh.gUp.Set(0)
}

// healthTick refreshes the shard's up gauge; called from the cache's
// background loop so tdptop sees state changes even on an idle router.
func (sh *shardConn) healthTick() {
	up := int64(0)
	if sh.sess != nil && sh.sess.Up() {
		up = 1
	}
	sh.gUp.Set(up)
}

// dialPool opens (or returns) the pooled data connection. The
// connection joins the router context; the C* ops it carries name
// their real target per message.
func (sh *shardConn) dialPool(ctx context.Context) (*Client, error) {
	sh.mu.Lock()
	pool := sh.pool
	sh.mu.Unlock()
	if pool != nil {
		return pool, nil
	}
	pool, err := DialCtx(ctx, sh.gc.dial, sh.addr, routerContext)
	if err != nil {
		sh.gErrors.Inc()
		return nil, err
	}
	pool.OnClose(func(error) {
		sh.mu.Lock()
		if sh.pool == pool {
			sh.pool = nil
		}
		sh.mu.Unlock()
	})
	sh.mu.Lock()
	sh.pool = pool
	sh.mu.Unlock()
	return pool, nil
}

// do queues one C* request for the next drain cycle and waits for its
// reply. Fails fast when the shard is down.
func (sh *shardConn) do(ctx context.Context, m *wire.Message) (*wire.Message, []*wire.Message, error) {
	if sh.down() {
		return nil, nil, sh.downErr()
	}
	op := &shardOp{m: m, done: make(chan shardReply, 1)}
	sh.mu.Lock()
	if sh.gc.isClosed() {
		sh.mu.Unlock()
		return nil, nil, errCacheClosed
	}
	sh.queue = append(sh.queue, op)
	kick := !sh.draining
	if kick {
		sh.draining = true
	}
	sh.mu.Unlock()
	if kick {
		go sh.drain(ctx)
	}
	select {
	case r := <-op.done:
		if r.err != nil {
			sh.gErrors.Inc()
			return nil, nil, r.err
		}
		return r.reply, r.parts, nil
	case <-ctx.Done():
		// The drain loop still completes the op (done is buffered);
		// this caller just stops waiting.
		return nil, nil, ctx.Err()
	}
}

// drain is the per-shard group-commit loop: while ops are queued, take
// up to shardDrainBatch of them, send them upstream in one corked
// write, then wait for all their replies before starting the next
// cycle. One cycle in flight per shard — a bounded window that
// back-pressures producers, keeps any one shard from monopolizing the
// router, and caps the ops in limbo when the shard dies mid-cycle.
// Independent shards' cycles overlap, which is where the aggregate
// throughput beyond one daemon comes from.
func (sh *shardConn) drain(ctx context.Context) {
	for {
		sh.mu.Lock()
		if len(sh.queue) == 0 {
			sh.draining = false
			sh.mu.Unlock()
			return
		}
		n := len(sh.queue)
		if n > sh.gc.batch {
			n = sh.gc.batch
		}
		batch := sh.queue[:n:n]
		sh.queue = append([]*shardOp(nil), sh.queue[n:]...)
		sh.mu.Unlock()

		pool, err := sh.dialPool(ctx)
		if err != nil {
			for _, op := range batch {
				op.done <- shardReply{err: err}
			}
			continue
		}
		type sent struct {
			op *shardOp
			s  *replySlot
		}
		sends := make([]sent, 0, len(batch))
		pool.wc.Cork()
		for _, op := range batch {
			s, err := pool.send(op.m)
			if err != nil {
				op.done <- shardReply{err: err}
				continue
			}
			sends = append(sends, sent{op: op, s: s})
		}
		pool.wc.Uncork()
		sh.gInflight.Set(int64(len(sends)))
		for _, s := range sends {
			// Always answered: a real reply, or the synthetic conn-error
			// reply fail() injects when the transport dies.
			reply, parts, _ := pool.wait(context.Background(), s.s)
			s.op.done <- shardReply{reply: reply, parts: parts}
		}
		sh.gInflight.Set(0)
		sh.cPooled.Add(int64(len(sends)))
	}
}

// ctxVerb builds a C* request naming its target context.
func ctxVerb(verb, contextName string) *wire.Message {
	return wire.NewMessage(verb).Set("ctx", contextName)
}

// --- single-context pooled operations -------------------------------

func (sh *shardConn) put(ctx context.Context, contextName, attribute, value string) (uint64, error) {
	reply, _, err := sh.do(ctx, ctxVerb("CPUT", contextName).Set("attr", attribute).Set("value", value))
	if err != nil {
		return 0, err
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return strconv.ParseUint(reply.Get("seq"), 10, 64)
}

func (sh *shardConn) putBatch(ctx context.Context, contextName string, pairs []KV) (uint64, error) {
	m := ctxVerb("CMPUT", contextName).SetInt("n", len(pairs))
	for i, p := range pairs {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, p.Key)
		m.Set("v"+idx, p.Value)
	}
	reply, _, err := sh.do(ctx, m)
	if err != nil {
		return 0, err
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return strconv.ParseUint(reply.Get("seq"), 10, 64)
}

func (sh *shardConn) tryGet(ctx context.Context, contextName, attribute string) (string, uint64, error) {
	reply, _, err := sh.do(ctx, ctxVerb("CGET", contextName).Set("attr", attribute))
	if err != nil {
		return "", 0, err
	}
	if reply.Verb == "NOTFOUND" {
		return "", 0, ErrNotFound
	}
	if err := replyErr(reply); err != nil {
		return "", 0, err
	}
	seq, _ := strconv.ParseUint(reply.Get("seq"), 10, 64)
	return reply.Get("value"), seq, nil
}

func (sh *shardConn) delete(ctx context.Context, contextName, attribute string) (uint64, error) {
	reply, _, err := sh.do(ctx, ctxVerb("CDEL", contextName).Set("attr", attribute))
	if err != nil {
		return 0, err
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return strconv.ParseUint(reply.Get("seq"), 10, 64)
}

func (sh *shardConn) snapshot(ctx context.Context, contextName string) (map[string]string, error) {
	reply, parts, err := sh.do(ctx, ctxVerb("CSNAP", contextName))
	if err != nil {
		return nil, err
	}
	if err := replyErr(reply); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, part := range append(parts, reply) {
		n, _ := strconv.Atoi(part.Get("n"))
		for i := 0; i < n; i++ {
			idx := strconv.Itoa(i)
			out[part.Get("k"+idx)] = part.Get("v" + idx)
		}
	}
	return out, nil
}

func (sh *shardConn) contexts(ctx context.Context) ([]string, error) {
	reply, _, err := sh.do(ctx, wire.NewMessage("CCTXS"))
	if err != nil {
		return nil, err
	}
	if err := replyErr(reply); err != nil {
		return nil, err
	}
	n, _ := strconv.Atoi(reply.Get("n"))
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, reply.Get("k"+strconv.Itoa(i)))
	}
	return names, nil
}

// --- scatter-gather -------------------------------------------------

// SnapshotMany snapshots several contexts in one scatter-gather: the
// names group by owning shard, each shard's snapshots coalesce into
// Cork-batched drain cycles on its pooled connection, and the shards
// run concurrently. The result maps context name → snapshot for every
// context that answered; err is the first failure (down shard, shard
// error) with the successes still returned — a degraded pool
// yields a partial, labeled picture rather than nothing.
func (gc *GlobalCache) SnapshotMany(ctx context.Context, names []string) (map[string]map[string]string, error) {
	type result struct {
		name string
		snap map[string]string
		err  error
	}
	results := make(chan result, len(names))
	for _, name := range names {
		go func(name string) {
			snap, err := gc.shard(name).snapshot(ctx, name)
			results <- result{name: name, snap: snap, err: err}
		}(name)
	}
	out := make(map[string]map[string]string, len(names))
	var firstErr error
	for range names {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("context %q: %w", r.name, r.err)
			}
			continue
		}
		out[r.name] = r.snap
	}
	return out, firstErr
}

// GlobalContexts lists the context names alive across every shard
// (deduplicated, unsorted). Shards that are down are skipped — the
// listing is best-effort by design, like the paper's monitoring
// verbs — with err reporting the first skip cause when any shard could
// not answer.
func (gc *GlobalCache) GlobalContexts(ctx context.Context) ([]string, error) {
	n := gc.shards.Len()
	type result struct {
		names []string
		err   error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(sh *shardConn) {
			names, err := sh.contexts(ctx)
			results <- result{names: names, err: err}
		}(gc.shardAt(i))
	}
	seen := make(map[string]struct{})
	var out []string
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for _, name := range r.names {
			if _, dup := seen[name]; !dup {
				seen[name] = struct{}{}
				out = append(out, name)
			}
		}
	}
	return out, firstErr
}

// ShardStats fetches each live shard's telemetry snapshot
// concurrently — the scatter half of `STATS scope=tree` on a sharded
// LASS. Down or unreachable shards contribute nothing; the rollup is
// the surviving pool's picture.
func (gc *GlobalCache) ShardStats() []telemetry.Snapshot {
	n := gc.shards.Len()
	results := make(chan *telemetry.Snapshot, n)
	for i := 0; i < n; i++ {
		go func(sh *shardConn) {
			if sh.down() {
				results <- nil
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			pool, err := sh.dialPool(ctx)
			if err != nil {
				results <- nil
				return
			}
			_, snap, err := pool.ServerStats(ctx)
			if err != nil {
				results <- nil
				return
			}
			results <- &snap
		}(gc.shardAt(i))
	}
	var out []telemetry.Snapshot
	for i := 0; i < n; i++ {
		if s := <-results; s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// encodeSnapshotMany renders a SnapshotMany result as the GSNAPM reply
// payload: one k/v pair per context, the value a JSON object of the
// context's attributes.
func encodeSnapshotMany(id string, snaps map[string]map[string]string) (*wire.Message, error) {
	reply := wire.NewMessage("SNAPV").Set("id", id).SetInt("n", len(snaps))
	i := 0
	for name, snap := range snaps {
		data, err := json.Marshal(snap)
		if err != nil {
			return nil, err
		}
		idx := strconv.Itoa(i)
		reply.Set("k"+idx, name)
		reply.Set("v"+idx, string(data))
		i++
	}
	return reply, nil
}
