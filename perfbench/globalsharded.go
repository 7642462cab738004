package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tdp"
	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// global-sharded: two tool handles use GlobalViaLASS on a caching LASS
// (tdp.ServeCachingLASS) routed to two CASS shards over loopback TCP.
// Each handle's context lives on a different shard. The shards hold 64
// preloaded contexts of 128 attributes. The closed-loop mix is ~60%
// TryGetGlobal (cache hits), ~39.5% PutGlobal (write-through plus
// invalidation) and a rare ~0.5% SnapshotGlobalMany over 16 contexts
// (scatter-gather); more snapshots starve the cached gets. The work
// moves to the attrspace router and cache and the TCP hop to the CASS;
// the local shm hop becomes a minor share.

const (
	globalContexts = 64
	globalAttrs    = 128
	globalSnapSize = 16
	globalSnapSets = 64
)

type globalSharded struct {
	contexts []string
	attrs    []string
	preload  [][]string // per context, per attribute
	own      [2]int     // the handles' contexts, one per shard
	snapSets [][]string // contexts no handle writes
	streams  [2]rpcStream

	spaces [2]*attr.Space
	shards [2]*attrspace.Server
	addrs  [2]string
	refs   []*attr.Ref
	lass   *attrspace.Server
	h      [2]*tdp.Handle
	last   [2][]string
	snapAt [2]int
}

func newGlobalSharded(seed int64) *globalSharded {
	rng := rand.New(rand.NewSource(seed))
	w := &globalSharded{}
	tag := rng.Uint32()
	for i := 0; i < globalAttrs; i++ {
		w.attrs = append(w.attrs, fmt.Sprintf("a%03d", i))
	}
	for i := 0; i < globalContexts; i++ {
		w.contexts = append(w.contexts, fmt.Sprintf("job-%08x-%02d", tag, i))
		vals := make([]string, globalAttrs)
		for a := range vals {
			vals[a] = randValue(rng, rpcValueLen)
		}
		w.preload = append(w.preload, vals)
	}
	// One handle context per shard, in seeded order.
	w.own = [2]int{-1, -1}
	for _, c := range rng.Perm(globalContexts) {
		if s := attrspace.ShardIndex(w.contexts[c], 2); w.own[s] < 0 {
			w.own[s] = c
		}
	}
	var untouched []string
	for c, name := range w.contexts {
		if c != w.own[0] && c != w.own[1] {
			untouched = append(untouched, name)
		}
	}
	for i := 0; i < globalSnapSets; i++ {
		set := make([]string, globalSnapSize)
		for j, k := range rng.Perm(len(untouched))[:globalSnapSize] {
			set[j] = untouched[k]
		}
		w.snapSets = append(w.snapSets, set)
	}
	for h := range w.streams {
		s := &w.streams[h]
		s.keys = w.attrs
		for v := 0; v < rpcValues; v++ {
			s.vals = append(s.vals, randValue(rng, rpcValueLen))
		}
		s.ops = make([]rpcOp, rpcStreamLen)
		for i := range s.ops {
			kind := uint8(opTryGet)
			switch r := rng.Intn(1000); {
			case r >= 995:
				kind = opSnapMany
			case r >= 600:
				kind = opPut
			}
			s.ops[i] = rpcOp{kind: kind, key: uint8(rng.Intn(globalAttrs)), val: uint16(rng.Intn(rpcValues))}
		}
	}
	return w
}

func (w *globalSharded) setup() error {
	for i := range w.shards {
		w.spaces[i] = attr.NewSpace()
		srv := attrspace.NewServerWithSpace(w.spaces[i])
		w.shards[i] = srv
		if err := srv.SetShard(i, 2); err != nil {
			w.teardown()
			return err
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			w.teardown()
			return err
		}
		w.addrs[i] = addr
	}
	// Preload straight into each shard's space, holding the refs, so no
	// extra connections exist during the run.
	for c, name := range w.contexts {
		ref := w.spaces[attrspace.ShardIndex(name, 2)].Join(name)
		w.refs = append(w.refs, ref)
		pairs := make([]attr.KV, globalAttrs)
		for a, key := range w.attrs {
			pairs[a] = attr.KV{Key: key, Value: w.preload[c][a]}
		}
		if err := ref.PutBatch(pairs); err != nil {
			w.teardown()
			return fmt.Errorf("preload %s: %w", name, err)
		}
	}
	lass, addr, err := tdp.ServeCachingLASS("127.0.0.1:0", w.addrs[0]+","+w.addrs[1], attrspace.TCPDial)
	if err != nil {
		w.teardown()
		return err
	}
	w.lass = lass
	if _, err := lass.ListenUnixBeside(addr); err != nil {
		w.teardown()
		return err
	}
	for i := range w.h {
		c := w.own[i]
		h, err := tdp.Init(tdp.Config{Context: w.contexts[c], LASSAddr: addr, GlobalViaLASS: true,
			Identity: fmt.Sprintf("tool-%d", i)})
		if err != nil {
			w.teardown()
			return err
		}
		w.h[i] = h
		w.last[i] = append([]string(nil), w.preload[c]...)
	}
	return nil
}

func (w *globalSharded) run(d time.Duration, tr *tracer, st *runStats) {
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	deadline := time.Now().Add(d)
	g := loadGoroutines(len(w.h))
	stats := make([]runStats, g)
	var wg sync.WaitGroup
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rec := tr.recorder("global-sharded")
			for n := int64(0); ; n++ {
				var end time.Time
				for hi := gi; hi < len(w.h); hi += g {
					end = w.step(ctx, hi, rec, int64(gi)<<40|n, &stats[gi])
				}
				if end.After(deadline) {
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for i := range stats {
		st.merge(&stats[i])
	}
}

func (w *globalSharded) step(ctx context.Context, hi int, rec *recorder, opID int64, st *runStats) time.Time {
	h, s := w.h[hi], &w.streams[hi]
	op := s.next()
	key := s.keys[op.key]
	st.attempted++
	var (
		got, name string
		snap      map[string]map[string]string
		set       []string
		err       error
	)
	t0 := time.Now()
	switch op.kind {
	case opPut:
		name = "tdp.put_global"
		err = h.PutGlobal(key, s.vals[op.val])
	case opTryGet:
		name = "tdp.get_global"
		got, err = h.TryGetGlobal(key)
	default:
		name = "tdp.snapshot_global_many"
		set = w.snapSets[w.snapAt[hi]%globalSnapSets]
		w.snapAt[hi]++
		snap, err = h.SnapshotGlobalMany(ctx, set)
	}
	t1 := time.Now()
	rec.record(rec.newID(), name, t0, t1, 0, opID)
	st.op.add(t1.Sub(t0))
	switch {
	case err != nil:
		st.fail("%s %s: %v", name, key, err)
	case op.kind == opPut:
		w.last[hi][op.key] = s.vals[op.val]
	case op.kind == opTryGet:
		if got != w.last[hi][op.key] {
			st.fail("%s %s = %q, last written %q", name, key, got, w.last[hi][op.key])
		}
	default:
		w.checkSnap(set, snap, st)
	}
	return t1
}

// checkSnap compares snapshots of untouched contexts with the preload.
func (w *globalSharded) checkSnap(set []string, snap map[string]map[string]string, st *runStats) {
	for _, name := range set {
		c := w.contextIndex(name)
		got := snap[name]
		if len(got) != globalAttrs {
			st.fail("snapshot %s has %d attributes, preloaded %d", name, len(got), globalAttrs)
			continue
		}
		for a, key := range w.attrs {
			if got[key] != w.preload[c][a] {
				st.fail("snapshot %s %s = %q, preloaded %q", name, key, got[key], w.preload[c][a])
				break
			}
		}
	}
}

func (w *globalSharded) contextIndex(name string) int {
	for c, n := range w.contexts {
		if n == name {
			return c
		}
	}
	return -1
}

// check reads every attribute of each handle's context back through
// the caching LASS, and snapshots every untouched context.
func (w *globalSharded) check(st *runStats) {
	for hi, h := range w.h {
		for a, key := range w.attrs {
			if got, err := h.TryGetGlobal(key); err != nil || got != w.last[hi][a] {
				st.fail("final global read %s = %q (%v), last written %q", key, got, err, w.last[hi][a])
			}
		}
	}
	for _, set := range w.snapSets[:4] {
		snap, err := w.h[0].SnapshotGlobalMany(context.Background(), set)
		if err != nil {
			st.fail("final snapshot: %v", err)
			continue
		}
		w.checkSnap(set, snap, st)
	}
}

func (w *globalSharded) teardown() {
	for i, h := range w.h {
		if h != nil {
			h.Exit()
			w.h[i] = nil
		}
	}
	if w.lass != nil {
		w.lass.Close()
		w.lass = nil
	}
	for _, r := range w.refs {
		r.Leave()
	}
	w.refs = nil
	for i, s := range w.shards {
		if s != nil {
			s.Close()
			w.shards[i] = nil
		}
	}
}

func (w *globalSharded) server() *attrspace.Server { return w.lass }

func (w *globalSharded) sample() (req, reply *wire.Message, keys []string) {
	req = wire.NewMessage("GPUT").Set("id", "731").Set("attr", w.attrs[0]).Set("value", w.streams[0].vals[0])
	reply = wire.NewMessage("OK").Set("id", "731").Set("seq", "40512")
	return req, reply, w.attrs
}
