package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/procsim"
	"tdp/internal/wire"
)

// job-launch: a closed loop of one job at a time (paper Figs. 2 and 3).
// The RM runs tdp_init, tdp_create_process(paused) and puts the pid; a
// fresh tool runs tdp_init, gets the pid, tdp_attach, inserts a probe
// and tdp_continue, then waits for exit; both call tdp_exit, which
// destroys the context. It is the only workload where connection
// set-up (HELLO, shm segment create/map/cutover), context join/leave
// and procsim dominate.

type jobLaunch struct {
	prefix string // seeded context-name prefix; job n uses prefix+n
	args   []string

	srv    *attrspace.Server
	addr   string
	kernel *procsim.Kernel
	next   int
}

func newJobLaunch(seed int64) *jobLaunch {
	rng := rand.New(rand.NewSource(seed))
	return &jobLaunch{
		prefix: fmt.Sprintf("launch-%08x-", rng.Uint32()),
		args:   []string{"-p" + strconv.Itoa(1000+rng.Intn(9000)), "-P" + strconv.Itoa(1000+rng.Intn(9000))},
	}
}

func (w *jobLaunch) setup() error {
	srv, addr, err := serveLASS()
	if err != nil {
		return err
	}
	w.srv, w.addr, w.kernel, w.next = srv, addr, procsim.NewKernel(), 0
	return nil
}

// app is the launched program: main calls work once, so a probe on
// work fires exactly once.
var app = procsim.ProgramFunc(func(c *procsim.ProcContext) int {
	c.Call("work", nil)
	return 0
})

func (w *jobLaunch) run(d time.Duration, tr *tracer, st *runStats) {
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	rec := tr.recorder("job-launch")
	deadline := time.Now().Add(d)
	for {
		st.attempted++
		t0 := time.Now()
		op := rec.newID()
		err := w.launch(ctx, rec, op)
		t1 := time.Now()
		rec.record(op, "job.launch", t0, t1, 0, op)
		st.op.add(t1.Sub(t0))
		if err != nil {
			st.fail("launch %d: %v", w.next-1, err)
		}
		if t1.After(deadline) {
			return
		}
	}
}

func (w *jobLaunch) launch(ctx context.Context, rec *recorder, op int64) error {
	name := w.prefix + strconv.Itoa(w.next)
	w.next++
	cfg := tdp.Config{Context: name, LASSAddr: w.addr, Kernel: w.kernel}
	t := time.Now()
	cfg.Identity = "rm"
	rm, err := tdp.Init(cfg)
	t = spanNext(rec, "tdp.init", t, op)
	if err != nil {
		return err
	}
	defer rm.Exit()
	p, err := rm.CreateProcess(tdp.ProcessSpec{Executable: "app", Args: w.args, Program: app,
		Symbols: []string{"main", "work"}}, tdp.StartPaused)
	t = spanNext(rec, "tdp.create_process", t, op)
	if err != nil {
		return err
	}
	err = rm.PublishPID(p)
	t = spanNext(rec, "tdp.publish_pid", t, op)
	if err != nil {
		return err
	}

	cfg.Identity = "tool"
	tool, err := tdp.Init(cfg)
	t = spanNext(rec, "tdp.init", t, op)
	if err != nil {
		return err
	}
	defer tool.Exit()
	pid, err := tool.GetPID(ctx)
	t = spanNext(rec, "tdp.get_pid", t, op)
	if err != nil {
		return err
	}
	tp, err := tool.Attach(pid)
	t = spanNext(rec, "tdp.attach", t, op)
	if err != nil {
		return err
	}
	var fired atomic.Int32
	_, err = tp.InsertProbe("work", func(*procsim.ProcContext) { fired.Add(1) }, nil)
	t = spanNext(rec, "tdp.insert_probe", t, op)
	if err != nil {
		return err
	}
	err = tp.Continue()
	var status procsim.ExitStatus
	if err == nil {
		status, err = tp.Wait()
	}
	t = spanNext(rec, "tdp.continue_to_exit", t, op)
	if err != nil {
		return err
	}

	err = tool.Exit()
	t = spanNext(rec, "tdp.exit", t, op)
	if err != nil {
		return err
	}
	err = rm.Exit()
	spanNext(rec, "tdp.exit", t, op)
	if err != nil {
		return err
	}
	if err := w.kernel.Reap(pid); err != nil {
		return err
	}
	switch {
	case status.Code != 0 || status.Signaled():
		return fmt.Errorf("exit status %v", status)
	case fired.Load() != 1:
		return fmt.Errorf("probe fired %d times", fired.Load())
	}
	return nil
}

// spanNext records a span from t to now and returns now, for a
// sequence of calls timed back to back.
func spanNext(rec *recorder, name string, t time.Time, op int64) time.Time {
	now := time.Now()
	rec.record(rec.newID(), name, t, now, op, op)
	return now
}

// check waits for the LASS to destroy every job context: the server
// leaves a context when it sees the connection close, shortly after
// tdp_exit returns.
func (w *jobLaunch) check(st *runStats) {
	limit := time.Now().Add(10 * time.Second)
	for {
		var left []string
		for _, c := range w.srv.Space().Contexts() {
			if strings.HasPrefix(c, w.prefix) {
				left = append(left, c)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(limit) {
			st.fail("%d job contexts still in the LASS space after both exits, e.g. %s", len(left), left[0])
			st.failed += int64(len(left)) - 1
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *jobLaunch) teardown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *jobLaunch) server() *attrspace.Server { return w.srv }

func (w *jobLaunch) sample() (req, reply *wire.Message, keys []string) {
	req = wire.NewMessage("HELLO").Set("id", "1").Set("context", w.prefix+"0").
		Set("caps", "mux,snapd,chunk,ping,bytewin,shm")
	reply = wire.NewMessage("OK").Set("id", "1").Set("caps", "mux,snapd,chunk,ping,bytewin,shm").
		Set("shm", "tdp-shm-1-1.seg")
	return req, reply, []string{tdp.AttrPID}
}
