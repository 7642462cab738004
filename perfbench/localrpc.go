package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// local-rpc: two handles (RM and tool identities) share one context on
// a LASS reached by AutoDial, so requests ride the shm ring. Each runs
// a closed loop of 50% tdp_put, 40% tdp_try_get and 10% blocking
// tdp_get of a present key over its own 32 of the context's 64
// attributes, with no subscribers. It saturates the per-request path:
// codec, framing, ring spin path, mux, server dispatch and reply
// wake-up; attr.Space apply and event fan-out do almost no work.

const (
	rpcKeysPerHandle = 32
	rpcValues        = 256
	rpcValueLen      = 24
	rpcStreamLen     = 1 << 16
)

const (
	opPut = iota
	opTryGet
	opGet
	opSnapMany
)

type rpcOp struct {
	kind uint8
	key  uint8
	val  uint16
}

// rpcStream is one handle's generated inputs: its keys, a value pool
// and the operation order, cycled when the run outlasts it.
type rpcStream struct {
	keys []string
	vals []string
	ops  []rpcOp
	pos  int
}

func (s *rpcStream) next() rpcOp {
	op := s.ops[s.pos]
	s.pos++
	if s.pos == len(s.ops) {
		s.pos = 0
	}
	return op
}

type localRPC struct {
	ctxName string
	streams [2]rpcStream

	srv  *attrspace.Server
	h    [2]*tdp.Handle
	last [2][]string // last value each handle wrote to each of its keys
}

func randValue(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

func newLocalRPC(seed int64) *localRPC {
	rng := rand.New(rand.NewSource(seed))
	w := &localRPC{ctxName: fmt.Sprintf("lrpc-%08x", rng.Uint32())}
	for h := range w.streams {
		s := &w.streams[h]
		for k := 0; k < rpcKeysPerHandle; k++ {
			s.keys = append(s.keys, fmt.Sprintf("h%d.attr%02d", h, k))
		}
		for v := 0; v < rpcValues; v++ {
			s.vals = append(s.vals, randValue(rng, rpcValueLen))
		}
		s.ops = make([]rpcOp, rpcStreamLen)
		for i := range s.ops {
			kind := uint8(opPut)
			switch r := rng.Intn(100); {
			case r >= 90:
				kind = opGet
			case r >= 50:
				kind = opTryGet
			}
			s.ops[i] = rpcOp{kind: kind, key: uint8(rng.Intn(rpcKeysPerHandle)), val: uint16(rng.Intn(rpcValues))}
		}
	}
	return w
}

func (w *localRPC) setup() error {
	srv, addr, err := serveLASS()
	if err != nil {
		return err
	}
	w.srv = srv
	for i, id := range []string{"rm", "tool"} {
		h, err := tdp.Init(tdp.Config{Context: w.ctxName, LASSAddr: addr, Identity: id})
		if err != nil {
			w.teardown()
			return err
		}
		w.h[i] = h
		s := &w.streams[i]
		pairs := make([]tdp.KV, len(s.keys))
		w.last[i] = make([]string, len(s.keys))
		for k, key := range s.keys {
			pairs[k] = tdp.KV{Key: key, Value: s.vals[0]}
			w.last[i][k] = s.vals[0]
		}
		if err := h.PutBatch(pairs); err != nil {
			w.teardown()
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (w *localRPC) run(d time.Duration, tr *tracer, st *runStats) {
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
			rec := tr.recorder("local-rpc")
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

func (w *localRPC) step(ctx context.Context, hi int, rec *recorder, opID int64, st *runStats) time.Time {
	h, s := w.h[hi], &w.streams[hi]
	op := s.next()
	key := s.keys[op.key]
	st.attempted++
	var (
		got, name string
		err       error
	)
	t0 := time.Now()
	switch op.kind {
	case opPut:
		name = "tdp.put"
		err = h.Put(key, s.vals[op.val])
	case opTryGet:
		name = "tdp.tryget"
		got, err = h.TryGet(key)
	default:
		name = "tdp.get"
		got, err = h.Get(ctx, key)
	}
	t1 := time.Now()
	rec.record(rec.newID(), name, t0, t1, 0, opID)
	st.op.add(t1.Sub(t0))
	switch {
	case err != nil:
		st.fail("%s %s: %v", name, key, err)
	case op.kind == opPut:
		w.last[hi][op.key] = s.vals[op.val]
	case got != w.last[hi][op.key]:
		st.fail("%s %s = %q, last written %q", name, key, got, w.last[hi][op.key])
	}
	return t1
}

// check reads back every key of each handle: it must hold the last
// value that handle wrote.
func (w *localRPC) check(st *runStats) {
	for hi, h := range w.h {
		for k, key := range w.streams[hi].keys {
			if got, err := h.TryGet(key); err != nil || got != w.last[hi][k] {
				st.fail("final read %s = %q (%v), last written %q", key, got, err, w.last[hi][k])
			}
		}
	}
}

func (w *localRPC) teardown() {
	for i, h := range w.h {
		if h != nil {
			h.Exit()
			w.h[i] = nil
		}
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *localRPC) server() *attrspace.Server { return w.srv }

func (w *localRPC) sample() (req, reply *wire.Message, keys []string) {
	s := &w.streams[0]
	req = wire.NewMessage("PUT").Set("id", "1041").Set("attr", s.keys[0]).Set("value", s.vals[0])
	reply = wire.NewMessage("OK").Set("id", "1041").Set("seq", "88211")
	return req, reply, append(append([]string(nil), w.streams[0].keys...), w.streams[1].keys...)
}
