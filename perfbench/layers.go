package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/events"
	"tdp/internal/procsim"
	"tdp/internal/wire"
)

// The ladder times each layer's public functions in isolation, from the
// benchmark's own files: no tracing runs inside the program. Each
// measurement runs for ladderTime, and every batch of calls becomes one
// span. Times are medians over batches (or over single calls where one
// call is the unit, as for the idle ring).

const (
	ladderTime  = 250 * time.Millisecond
	ladderBatch = 32
)

type ladder struct {
	rec *recorder
	m   map[string]float64 // per-layer metric name -> value
}

// batched runs fn in batches of ladderBatch calls for ladderTime and
// returns the median time of one call in ns.
func (l *ladder) batched(name string, fn func(i int) error) (float64, error) {
	return l.batchedGC(name, false, fn)
}

// batchedGC is batched, with a garbage collection between batches when
// gc is set. Shm segments are unmapped by finalizers: a tight loop that
// allocates little would pile up hundreds of live mappings, which the
// workloads, collecting often, never have.
func (l *ladder) batchedGC(name string, gc bool, fn func(i int) error) (float64, error) {
	var per []float64
	end := time.Now().Add(ladderTime)
	for i := 0; len(per) < 5 || time.Now().Before(end); {
		if gc {
			runtime.GC()
		}
		t0 := time.Now()
		for j := 0; j < ladderBatch; j++ {
			if err := fn(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/ladderBatch)
		l.rec.span("ladder."+name, t0, 0, int64(len(per)))
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// single times each call of fn on its own (fn returns the latency it
// measured, for calls whose end is observed elsewhere) and returns the
// median in µs.
func (l *ladder) single(name string, n int, fn func(i int) (time.Duration, error)) (float64, error) {
	var h hist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d, err := fn(i)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		h.add(d)
		l.rec.span("ladder."+name, t0, 0, int64(i))
	}
	return h.quantile(0.5), nil
}

// runLadder measures every standalone layer metric. req/reply are the
// workload's own request and reply messages; keys its attribute set.
func runLadder(rec *recorder, req, reply *wire.Message, keys []string) (map[string]float64, error) {
	l := &ladder{rec: rec, m: make(map[string]float64)}
	steps := []func(*wire.Message, *wire.Message, []string) error{
		l.wireLayers, l.shmLayers, l.attrLayers, l.clientLayers, l.routerLayers, l.eventsLayer, l.procsimLayer,
	}
	for _, step := range steps {
		if err := step(req, reply, keys); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// wireLayers: codec, framing over net.Pipe, and the mux on top. Each
// unit is one request and its reply, so the three nest. Requests and
// replies ride the mux's control stream, as a client's calls do.
func (l *ladder) wireLayers(req, reply *wire.Message, _ []string) error {
	var buf []byte
	var m wire.Message
	codec, err := l.batched("wire.codec", func(int) error {
		buf = req.AppendEncode(buf[:0])
		if err := wire.DecodeInto(&m, buf); err != nil {
			return err
		}
		buf = reply.AppendEncode(buf[:0])
		return wire.DecodeInto(&m, buf)
	})
	if err != nil {
		return err
	}
	l.m["wire.codec_ns"] = codec

	for _, withMux := range []bool{false, true} {
		a, b := net.Pipe()
		ca, cb := wire.NewConn(a), wire.NewConn(b)
		var xa, xb *wire.Mux
		if withMux {
			xa = wire.NewMux(ca, wire.MuxConfig{ByteWindow: true})
			xb = wire.NewMux(cb, wire.MuxConfig{ByteWindow: true})
		}
		echoDone := make(chan struct{})
		go func() {
			defer close(echoDone)
			var in wire.Message
			for {
				if err := cb.RecvInto(&in); err != nil {
					return
				}
				if xb == nil {
					cb.Send(reply)
					continue
				}
				if _, handled := xb.Accept(&in); !handled {
					xb.SendOn(wire.StreamControl, reply)
				}
			}
		}()
		var in wire.Message
		name := "wire.conn"
		if withMux {
			name = "wire.mux"
		}
		ns, err := l.batched(name, func(int) error {
			if xa == nil {
				if err := ca.Send(req); err != nil {
					return err
				}
				return ca.RecvInto(&in)
			}
			if err := xa.SendOn(wire.StreamControl, req); err != nil {
				return err
			}
			for {
				if err := ca.RecvInto(&in); err != nil {
					return err
				}
				if _, handled := xa.Accept(&in); !handled {
					return nil
				}
			}
		})
		ca.Close()
		cb.Close()
		<-echoDone
		if err != nil {
			return err
		}
		l.m[name+"_ns"] = ns
	}
	return nil
}

// shmPair maps one ring segment from both ends, with an in-memory pipe
// as the doorbell, as a real connection does after its cutover.
func shmPair() (server, client *wire.ShmEndpoint, err error) {
	path := filepath.Join(os.TempDir(), "perfbench-ring.seg")
	seg, err := wire.CreateShmSegment(path, 0)
	if err != nil {
		return nil, nil, err
	}
	peer, err := wire.OpenShmSegment(path)
	os.Remove(path) // the mappings keep the pages alive
	if err != nil {
		return nil, nil, err
	}
	ss, cs := net.Pipe()
	server, client = seg.Endpoint(true, ss), peer.Endpoint(false, cs)
	server.Activate()
	client.Activate()
	return server, client, nil
}

// shmLayers: ring round trips back to back (spin path) and after a gap
// longer than the spin budget (park/doorbell path), and the cost of
// setting a ring pair up and down.
func (l *ladder) shmLayers(req, _ *wire.Message, _ []string) error {
	if !wire.ShmSupported() {
		return errors.New("shm ring not supported on this platform")
	}
	frame := append([]byte{0, 0, 0, 0}, req.Encode()...)
	server, client, err := shmPair()
	if err != nil {
		return err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		b := make([]byte, len(frame))
		for {
			if _, err := io.ReadFull(server, b); err != nil {
				return
			}
			if _, err := server.Write(b); err != nil {
				return
			}
		}
	}()
	back := make([]byte, len(frame))
	roundTrip := func() error {
		if _, err := client.Write(frame); err != nil {
			return err
		}
		_, err := io.ReadFull(client, back)
		return err
	}
	hot, err := l.batched("wire.shmring_hot", func(int) error { return roundTrip() })
	if err == nil {
		l.m["wire.shmring_hot_us"] = hot / 1e3
		// 400 µs is four times the ring's spin budget, so both sides
		// have parked on the doorbell before each message.
		l.m["wire.shmring_idle_us"], err = l.single("wire.shmring_idle", 300, func(int) (time.Duration, error) {
			time.Sleep(400 * time.Microsecond)
			t0 := time.Now()
			err := roundTrip()
			return time.Since(t0), err
		})
	}
	client.Close()
	server.Close()
	<-echoDone
	if err != nil {
		return err
	}
	setup, err := l.batchedGC("wire.shmring_setup", true, func(int) error {
		s, c, err := shmPair()
		if err != nil {
			return err
		}
		c.Close()
		return s.Close()
	})
	l.m["wire.shmring_setup_us"] = setup / 1e3
	return err
}

// attrLayers: the attribute engine's apply, fan-out and join/leave.
func (l *ladder) attrLayers(_, _ *wire.Message, keys []string) error {
	space := attr.NewSpace()
	ref := space.Join("ladder")
	defer ref.Leave()
	const value = "ladder-value-of-24-bytes"
	var err error
	if l.m["attr.put_ns"], err = l.batched("attr.put", func(i int) error {
		_, err := ref.PutSeq(keys[i%len(keys)], value)
		return err
	}); err != nil {
		return err
	}
	if l.m["attr.tryget_ns"], err = l.batched("attr.tryget", func(i int) error {
		_, _, err := ref.TryGetSeq(keys[i%len(keys)])
		return err
	}); err != nil {
		return err
	}
	sub, err := ref.Subscribe(64)
	if err != nil {
		return err
	}
	l.m["attr.fanout_us"], err = l.single("attr.fanout", 2000, func(i int) (time.Duration, error) {
		t0 := time.Now()
		if err := ref.Put(keys[i%len(keys)], value); err != nil {
			return 0, err
		}
		<-sub.Updates()
		return time.Since(t0), nil
	})
	ref.Unsubscribe(sub)
	if err != nil {
		return err
	}
	jl, err := l.batched("attr.join_leave", func(int) error { return space.Join("ladder-jl").Leave() })
	l.m["attr.join_leave_us"] = jl / 1e3
	return err
}

// pipeListener hands out in-memory pipe connections, so a Client and a
// Server.Serve talk without any transport below the framing.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (p *pipeListener) dial(string) (net.Conn, error) {
	a, b := net.Pipe()
	select {
	case p.conns <- b:
		return a, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// clientLayers: the attrspace client and server, over an in-memory pipe
// and over the shm ring, plus event delivery and dial.
func (l *ladder) clientLayers(_, _ *wire.Message, keys []string) error {
	const value = "ladder-value-of-24-bytes"
	pipeSrv := attrspace.NewServer()
	pl := newPipeListener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		pipeSrv.Serve(pl)
	}()
	pc, err := attrspace.Dial(pl.dial, "pipe", "ladder")
	if err == nil {
		var us float64
		us, err = l.batched("attrspace.client.pipe_put", func(i int) error { return pc.Put(keys[i%len(keys)], value) })
		l.m["attrspace.client.pipe_put_us"] = us / 1e3
		pc.Close()
	}
	pipeSrv.Close()
	pl.Close()
	<-served
	if err != nil {
		return err
	}

	srv, addr, err := serveLASS()
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := attrspace.Dial(nil, addr, "ladder")
	if err != nil {
		return err
	}
	defer c.Close()
	if wire.ShmSupported() && !c.ShmActive() {
		return errors.New("ladder client did not negotiate shm")
	}
	put, err := l.batched("attrspace.client.put", func(i int) error { return c.Put(keys[i%len(keys)], value) })
	if err != nil {
		return err
	}
	l.m["attrspace.client.put_us"] = put / 1e3
	get, err := l.batched("attrspace.client.tryget", func(i int) error {
		_, err := c.TryGet(keys[i%len(keys)])
		return err
	})
	if err != nil {
		return err
	}
	l.m["attrspace.client.tryget_us"] = get / 1e3

	watcher, err := attrspace.Dial(nil, addr, "ladder")
	if err != nil {
		return err
	}
	defer watcher.Close()
	arrived := make(chan time.Time, 1)
	var want string
	var mu sync.Mutex
	watcher.SetEventHandler(func(ev attrspace.Event) {
		mu.Lock()
		hit := ev.Value == want
		mu.Unlock()
		if hit {
			arrived <- time.Now()
		}
	})
	if err := watcher.Subscribe(); err != nil {
		return err
	}
	if l.m["attrspace.client.event_us"], err = l.single("attrspace.client.event", 2000, func(i int) (time.Duration, error) {
		v := fmt.Sprintf("event-%d", i)
		mu.Lock()
		want = v
		mu.Unlock()
		t0 := time.Now()
		if err := c.Put(keys[i%len(keys)], v); err != nil {
			return 0, err
		}
		return (<-arrived).Sub(t0), nil
	}); err != nil {
		return err
	}
	dial, err := l.batchedGC("attrspace.client.dial", true, func(int) error {
		d, err := attrspace.Dial(nil, addr, "ladder-dial")
		if err != nil {
			return err
		}
		return d.Close()
	})
	l.m["attrspace.client.dial_us"] = dial / 1e3
	return err
}

// routerLayers: a GlobalCache (EnableGlobalCache) routed to two CASS
// shards, called directly, and a client put straight to a shard.
func (l *ladder) routerLayers(_, _ *wire.Message, keys []string) error {
	const value = "ladder-value-of-24-bytes"
	var addrs [2]string
	var spaces [2]*attr.Space
	for i := range addrs {
		spaces[i] = attr.NewSpace()
		srv := attrspace.NewServerWithSpace(spaces[i])
		if err := srv.SetShard(i, 2); err != nil {
			return err
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs[i] = addr
	}
	var names []string
	for i := 0; i < globalSnapSize; i++ {
		name := fmt.Sprintf("ladder-ctx-%02d", i)
		names = append(names, name)
		ref := spaces[attrspace.ShardIndex(name, 2)].Join(name)
		defer ref.Leave()
		pairs := make([]attr.KV, len(keys))
		for a, k := range keys {
			pairs[a] = attr.KV{Key: k, Value: value}
		}
		if err := ref.PutBatch(pairs); err != nil {
			return err
		}
	}
	cacheSrv := attrspace.NewServer()
	defer cacheSrv.Close()
	gc := cacheSrv.EnableGlobalCache(addrs[0]+","+addrs[1], attrspace.CacheConfig{})
	ctx := context.Background()
	put, err := l.batched("attrspace.router.put", func(i int) error {
		_, err := gc.Put(ctx, names[0], keys[i%len(keys)], value)
		return err
	})
	if err != nil {
		return err
	}
	l.m["attrspace.router.put_us"] = put / 1e3
	snap, err := l.single("attrspace.router.snapshot_many", 60, func(int) (time.Duration, error) {
		t0 := time.Now()
		got, err := gc.SnapshotMany(ctx, names)
		if err == nil && len(got) != len(names) {
			err = fmt.Errorf("snapshot-many returned %d of %d contexts", len(got), len(names))
		}
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	l.m["attrspace.router.snapshot_many_us"] = snap
	name := names[1]
	c, err := attrspace.Dial(attrspace.TCPDial, addrs[attrspace.ShardIndex(name, 2)], name)
	if err != nil {
		return err
	}
	defer c.Close()
	cass, err := l.batched("attrspace.router.cass_put", func(i int) error { return c.Put(keys[i%len(keys)], value) })
	l.m["attrspace.router.cass_put_us"] = cass / 1e3
	return err
}

// eventsLayer: tdp's completion queue, from Post to the callback run by
// an Activity + Service poll loop.
func (l *ladder) eventsLayer(_, _ *wire.Message, _ []string) error {
	q := events.NewQueue()
	stop := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for {
			select {
			case <-stop:
				return
			case <-q.Activity():
				q.Service()
			}
		}
	}()
	ran := make(chan time.Time, 1)
	var err error
	l.m["events.post_to_run_us"], err = l.single("events.post_to_run", 5000, func(int) (time.Duration, error) {
		t0 := time.Now()
		q.Post(func() { ran <- time.Now() })
		return (<-ran).Sub(t0), nil
	})
	close(stop)
	<-loopDone
	return err
}

// procsimLayer: spawning a paused simulated process, running it to exit
// and reaping it.
func (l *ladder) procsimLayer(_, _ *wire.Message, _ []string) error {
	k := procsim.NewKernel()
	spawn, err := l.batched("procsim.spawn_paused", func(int) error {
		p, err := k.Spawn(procsim.Spec{Executable: "app", Program: app, Symbols: []string{"main", "work"}}, true)
		if err != nil {
			return err
		}
		if err := p.Continue(""); err != nil {
			return err
		}
		if _, err := p.WaitParent(); err != nil {
			return err
		}
		return k.Reap(p.PID())
	})
	l.m["procsim.spawn_paused_us"] = spawn / 1e3
	return err
}
