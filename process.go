package tdp

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"tdp/internal/procsim"
)

// This file implements the process-management services of §3.1:
// tdp_create_process (run | paused), tdp_attach, and
// tdp_continue_process, plus the control operations (stop, kill,
// detach, wait) the RM needs to own per §2.3.

// StartMode selects how CreateProcess leaves the new process.
type StartMode int

const (
	// StartRun starts the process immediately (§2.2 case 1 — tools
	// like Vampir that need no external initialization).
	StartRun StartMode = iota
	// StartPaused leaves the process created but stopped before its
	// first instruction — "stopped just after the execution of the
	// exec call" — so a tool can attach and instrument before main
	// (§2.2 case 2 — gdb, TotalView, Paradyn).
	StartPaused
)

// String names the mode as in the paper's figures ("run", "paused").
func (m StartMode) String() string {
	if m == StartPaused {
		return "paused"
	}
	return "run"
}

// ProcessSpec describes a process for CreateProcess.
type ProcessSpec struct {
	Executable string          // program name
	Args       []string        // argv
	Program    procsim.Program // code to run in the simulated process
	Symbols    []string        // discoverable function names
	Stdin      io.Reader       // RM-managed stdio (§2's stdio bullet)
	Stdout     io.Writer
	Stderr     io.Writer
	// RestartData resumes a checkpointable program from a saved point
	// (Condor standard-universe style migration); "" starts fresh.
	RestartData string
}

// Process is a TDP view of a managed process. Control operations go
// through the Handle that created or attached it, so the controlling
// identity is always explicit — the single-point-of-control discipline
// of §2.3.
type Process struct {
	h *Handle
	p *procsim.Process

	mu       sync.Mutex
	attached bool // this handle is the attached tracer
}

func (p *Process) isAttached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attached
}

// CreateProcess creates a new application (or tool) process. With
// StartPaused the process is created but not started; the caller — in
// the TDP division of labor, the RM — then publishes its pid in the
// attribute space so the RT can attach. This is tdp_create_process.
func (h *Handle) CreateProcess(spec ProcessSpec, mode StartMode) (*Process, error) {
	k, err := h.kernel()
	if err != nil {
		return nil, err
	}
	defer h.observe("create_process").End()
	h.traceStep("tdp_create_process", spec.Executable+","+mode.String())
	p, err := k.Spawn(procsim.Spec{
		Executable:  spec.Executable,
		Args:        spec.Args,
		Program:     spec.Program,
		Symbols:     spec.Symbols,
		Stdin:       spec.Stdin,
		Stdout:      spec.Stdout,
		Stderr:      spec.Stderr,
		Parent:      h.cfg.Identity,
		RestartData: spec.RestartData,
	}, mode == StartPaused)
	if err != nil {
		return nil, fmt.Errorf("tdp: create process: %w", err)
	}
	return &Process{h: h, p: p}, nil
}

// Attach takes control of an existing process by pid, pausing it if it
// is running (§2.2 case 3). For a process created with StartPaused the
// state is unchanged; the tool may then instrument it before main.
// This is tdp_attach.
func (h *Handle) Attach(pid procsim.PID) (*Process, error) {
	k, err := h.kernel()
	if err != nil {
		return nil, err
	}
	defer h.observe("attach").End()
	h.traceStep("tdp_attach", "pid="+strconv.Itoa(int(pid)))
	p, err := k.Process(pid)
	if err != nil {
		return nil, fmt.Errorf("tdp: attach: %w", err)
	}
	if err := p.Attach(h.cfg.Identity); err != nil {
		return nil, fmt.Errorf("tdp: attach: %w", err)
	}
	tp := &Process{h: h, p: p, attached: true}
	h.trackAttached(tp)
	return tp, nil
}

// FindProcess returns a TDP process wrapper for an existing pid
// without attaching — what an RM uses to control a process it created
// in a previous incarnation.
func (h *Handle) FindProcess(pid procsim.PID) (*Process, error) {
	k, err := h.kernel()
	if err != nil {
		return nil, err
	}
	p, err := k.Process(pid)
	if err != nil {
		return nil, err
	}
	return &Process{h: h, p: p}, nil
}

// PID returns the process id.
func (p *Process) PID() procsim.PID { return p.p.PID() }

// Executable returns the process's program name.
func (p *Process) Executable() string { return p.p.Executable() }

// State returns the current run state.
func (p *Process) State() procsim.State { return p.p.State() }

// controller is the identity used for kernel control calls: the
// attached tracer's identity when this handle attached, otherwise the
// anonymous owner identity.
func (p *Process) controller() string {
	if p.isAttached() {
		return p.h.cfg.Identity
	}
	return ""
}

// Continue resumes a created or stopped process. After an RT finishes
// initializing an application it created or attached to, Continue is
// how execution (re)starts — tdp_continue_process.
func (p *Process) Continue() error {
	defer p.h.observe("continue_process").End()
	p.h.traceStep("tdp_continue_process", "pid="+strconv.Itoa(int(p.p.PID())))
	return p.p.Continue(p.controller())
}

// Stop pauses the process at its next safe point.
func (p *Process) Stop() error {
	p.h.traceStep("tdp_stop_process", "pid="+strconv.Itoa(int(p.p.PID())))
	return p.p.Stop(p.controller())
}

// RequestStop asks the process to pause at its next safe point without
// waiting for the park. Safe to call from instrumentation callbacks
// executing on the process's own goroutine — the breakpoint mechanism.
func (p *Process) RequestStop() error {
	p.h.traceStep("tdp_stop_process", "pid="+strconv.Itoa(int(p.p.PID()))+",async")
	return p.p.RequestStop(p.controller())
}

// WaitStopped blocks until the process is parked (stopped, created, or
// exited).
func (p *Process) WaitStopped() { p.p.WaitStopped() }

// Kill terminates the process with the given signal name ("" means
// SIGKILL).
func (p *Process) Kill(signal string) error {
	p.h.traceStep("tdp_kill_process", "pid="+strconv.Itoa(int(p.p.PID())))
	return p.p.Kill(signal)
}

// Detach releases this handle's tracer attachment.
func (p *Process) Detach() error {
	p.mu.Lock()
	if !p.attached {
		p.mu.Unlock()
		return procsim.ErrNotAttached
	}
	p.attached = false
	p.mu.Unlock()
	p.h.untrackAttached(p)
	p.h.traceStep("tdp_detach", "pid="+strconv.Itoa(int(p.p.PID())))
	return p.p.Detach(p.h.cfg.Identity)
}

// Wait blocks until the process exits and returns its status as seen
// by this handle's role: the attached tracer waits on the tracer
// channel, anyone else on the parent channel (and may hit the §2.3
// status-routing quirk — the reason TDP centralizes monitoring in the
// RM and publishes status through the attribute space instead).
func (p *Process) Wait() (procsim.ExitStatus, error) {
	if p.isAttached() {
		st, ok := p.p.WaitTracer()
		if ok {
			return st, nil
		}
		// Routing delivered the status elsewhere, but the tracer
		// channel's close still signals exit; the kernel bookkeeping
		// has the status (a tracer can always inspect its tracee).
		if snap, recorded := p.p.ExitStatusSnapshot(); recorded {
			return snap, nil
		}
		return procsim.ExitStatus{}, procsim.ErrStatusStolen
	}
	return p.p.WaitParent()
}

// ExitStatus returns the recorded status after exit (authoritative
// bookkeeping, independent of routing). ok is false while alive.
func (p *Process) ExitStatus() (procsim.ExitStatus, bool) {
	return p.p.ExitStatusSnapshot()
}

// Symbols lists the functions a tool can instrument ("parsing the
// executable" in Paradyn's terms).
func (p *Process) Symbols() []string { return p.p.Symbols() }

// CheckpointData returns the program's latest saved checkpoint (see
// procsim.ProcContext.SaveCheckpoint) and whether one exists.
func (p *Process) CheckpointData() (string, bool) { return p.p.CheckpointData() }

// InsertProbe adds entry/exit instrumentation at a named function. The
// handle must be the attached tracer and the process paused — the
// Dyninst discipline that motivates the create-paused handshake.
func (p *Process) InsertProbe(point string, onEntry, onExit func(*procsim.ProcContext)) (int, error) {
	if !p.isAttached() {
		return 0, procsim.ErrNotAttached
	}
	return p.p.InsertProbe(p.h.cfg.Identity, point, onEntry, onExit)
}

// RemoveProbe removes instrumentation by probe id.
func (p *Process) RemoveProbe(id int) error {
	if !p.isAttached() {
		return procsim.ErrNotAttached
	}
	return p.p.RemoveProbe(p.h.cfg.Identity, id)
}

// PublishPID stores the process's pid under AttrPID — the step where
// the RM "sends information to the RT that identifies the application
// process" (§2.2).
func (h *Handle) PublishPID(p *Process) error {
	return h.Put(AttrPID, strconv.Itoa(int(p.PID())))
}

// GetPID blocks until the RM publishes AttrPID and parses it — the
// step where paradynd "immediately asks for the application pid"
// (§4.3 step 3).
func (h *Handle) GetPID(ctx context.Context) (procsim.PID, error) {
	v, err := h.Get(ctx, AttrPID)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("tdp: bad %s attribute %q: %w", AttrPID, v, err)
	}
	return procsim.PID(n), nil
}
