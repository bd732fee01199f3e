package fleet

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"github.com/autonomizer/autonomizer/internal/obs"
)

// Supervisor defaults.
const (
	DefaultBackoffBase      = 200 * time.Millisecond
	DefaultBackoffMax       = 10 * time.Second
	DefaultCrashLoopWindow  = 30 * time.Second
	DefaultCrashLoopCrashes = 5
	DefaultStopGrace        = 3 * time.Second
)

// WorkerState is one supervised process's lifecycle state. The
// machine (DESIGN.md §5i):
//
//	starting → up → (exit) → backoff → starting → ...
//	                   └ crash loop → dead   (terminal, until Stop/restart-all)
//	any state → stopped                      (on Stop)
type WorkerState string

const (
	// WorkerStarting: between spawn and a successful process start.
	WorkerStarting WorkerState = "starting"
	// WorkerUp: the process is running (liveness only — readiness is
	// the router's business, via the worker's own /healthz).
	WorkerUp WorkerState = "up"
	// WorkerBackoff: the process exited; the supervisor is waiting out
	// the exponential backoff before respawning.
	WorkerBackoff WorkerState = "backoff"
	// WorkerDead: crash-looping (CrashLoopCrashes exits inside
	// CrashLoopWindow); the supervisor gives up so a broken binary
	// can't burn CPU forever. The router rehashes the worker's models
	// away on its own health evidence.
	WorkerDead WorkerState = "dead"
	// WorkerStopped: deliberately stopped via Stop/Close.
	WorkerStopped WorkerState = "stopped"
)

// WorkerSpec describes one process the supervisor owns.
type WorkerSpec struct {
	// Name identifies the worker in logs, States and callbacks.
	Name string
	// Command is the argv to spawn (Command[0] resolved via PATH).
	Command []string
	// Env, when non-nil, replaces the inherited environment.
	Env []string
}

// SupervisorConfig tunes a Supervisor; zero values select the
// documented defaults.
type SupervisorConfig struct {
	// BackoffBase is the first restart delay (default 200ms); each
	// consecutive crash doubles it with ±25% jitter.
	BackoffBase time.Duration
	// BackoffMax caps the restart delay (default 10s).
	BackoffMax time.Duration
	// CrashLoopWindow and CrashLoopCrashes define the give-up rule:
	// CrashLoopCrashes exits within CrashLoopWindow mark the worker
	// dead (defaults 5 in 30s).
	CrashLoopWindow  time.Duration
	CrashLoopCrashes int
	// StopGrace is how long Stop waits after SIGTERM before SIGKILL
	// (default 3s).
	StopGrace time.Duration
	// Logger overrides the structured logger (default obs.Logger()).
	Logger *slog.Logger
	// OnStateChange, when set, observes every worker state transition
	// (called from the worker's own goroutine; keep it fast).
	OnStateChange func(name string, state WorkerState)
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = DefaultCrashLoopWindow
	}
	if c.CrashLoopCrashes < 1 {
		c.CrashLoopCrashes = DefaultCrashLoopCrashes
	}
	if c.StopGrace <= 0 {
		c.StopGrace = DefaultStopGrace
	}
	if c.Logger == nil {
		c.Logger = obs.Logger()
	}
	return c
}

// worker is one supervised process and its loop goroutine.
type worker struct {
	spec WorkerSpec

	mu       sync.Mutex
	state    WorkerState
	pid      int
	restarts int         // lifetime respawn count
	crashes  []time.Time // exits inside the crash-loop window
	proc     *os.Process

	stop chan struct{}
	done chan struct{}
}

// WorkerStatus is one worker's row in States (and the aufleet statusz).
type WorkerStatus struct {
	Name     string      `json:"name"`
	State    WorkerState `json:"state"`
	PID      int         `json:"pid,omitempty"`
	Restarts int         `json:"restarts"`
}

// Supervisor owns backend process lifecycle and nothing else: it
// spawns workers, watches for exits, restarts with jittered
// exponential backoff, and gives up on crash loops. It never routes,
// inspects or retries a request — request semantics live entirely in
// the workers and the router, which discovers a restarted worker
// through its own health probes. That separation keeps the supervisor
// a fully generic process babysitter: nothing in this file knows what
// an auserve is.
type Supervisor struct {
	cfg SupervisorConfig
	log *slog.Logger

	mu      sync.Mutex
	workers map[string]*worker
	closed  bool
}

// NewSupervisor builds an empty supervisor.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	cfg = cfg.withDefaults()
	return &Supervisor{
		cfg:     cfg,
		log:     cfg.Logger.With("component", "supervisor"),
		workers: make(map[string]*worker),
	}
}

// Start spawns a worker and begins supervising it. Names are unique;
// restarting a stopped/dead name replaces its record.
func (s *Supervisor) Start(spec WorkerSpec) error {
	if spec.Name == "" || len(spec.Command) == 0 {
		return fmt.Errorf("fleet: worker needs a name and a command")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("fleet: supervisor is closed")
	}
	if old, ok := s.workers[spec.Name]; ok {
		st := old.State()
		if st != WorkerStopped && st != WorkerDead {
			s.mu.Unlock()
			return fmt.Errorf("fleet: worker %q already running (%s)", spec.Name, st)
		}
	}
	w := &worker{
		spec:  spec,
		state: WorkerStarting,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.workers[spec.Name] = w
	s.mu.Unlock()
	go s.run(w)
	return nil
}

// Stop terminates one worker: SIGTERM, StopGrace, then SIGKILL. It
// waits for the worker loop to exit.
func (s *Supervisor) Stop(name string) error {
	s.mu.Lock()
	w, ok := s.workers[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: unknown worker %q", name)
	}
	w.requestStop()
	<-w.done
	return nil
}

// Close stops every worker and refuses further Starts.
func (s *Supervisor) Close() {
	s.mu.Lock()
	s.closed = true
	ws := make([]*worker, 0, len(s.workers))
	for _, w := range s.workers {
		ws = append(ws, w)
	}
	s.mu.Unlock()
	for _, w := range ws {
		w.requestStop()
	}
	for _, w := range ws {
		<-w.done
	}
}

// States reports every worker's status, sorted by name.
func (s *Supervisor) States() []WorkerStatus {
	s.mu.Lock()
	ws := make([]*worker, 0, len(s.workers))
	for _, w := range s.workers {
		ws = append(ws, w)
	}
	s.mu.Unlock()
	out := make([]WorkerStatus, 0, len(ws))
	for _, w := range ws {
		w.mu.Lock()
		st := WorkerStatus{Name: w.spec.Name, State: w.state, Restarts: w.restarts}
		if w.state == WorkerUp {
			st.PID = w.pid
		}
		out = append(out, st)
		w.mu.Unlock()
	}
	sortWorkerStatuses(out)
	return out
}

func sortWorkerStatuses(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Name < ws[j-1].Name; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func (w *worker) State() WorkerState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

func (w *worker) requestStop() {
	w.mu.Lock()
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	w.mu.Unlock()
}

func (s *Supervisor) setState(w *worker, st WorkerState) {
	w.mu.Lock()
	changed := w.state != st
	w.state = st
	w.mu.Unlock()
	if changed {
		s.log.Info("worker state", "worker", w.spec.Name, "state", st)
		if s.cfg.OnStateChange != nil {
			s.cfg.OnStateChange(w.spec.Name, st)
		}
	}
}

// run is one worker's supervision loop: spawn, wait, classify the
// exit, back off, respawn — until Stop or a crash-loop verdict.
func (s *Supervisor) run(w *worker) {
	defer close(w.done)
	consec := 0 // crashes since the process last stayed up a while
	for {
		select {
		case <-w.stop:
			s.setState(w, WorkerStopped)
			return
		default:
		}
		s.setState(w, WorkerStarting)
		cmd := exec.Command(w.spec.Command[0], w.spec.Command[1:]...)
		cmd.Env = w.spec.Env
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		// Each worker leads its own process group so Stop can signal the
		// whole tree: a worker that shells out must not leave orphans
		// holding ports (or the supervisor's stdio) after termination.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		started := time.Now()
		if err := cmd.Start(); err != nil {
			s.log.Error("worker spawn failed", "worker", w.spec.Name, "err", err)
			if s.recordCrash(w, &consec) {
				return
			}
			if !s.backoff(w, consec) {
				return
			}
			continue
		}
		w.mu.Lock()
		w.pid = cmd.Process.Pid
		w.proc = cmd.Process
		w.mu.Unlock()
		s.setState(w, WorkerUp)

		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		select {
		case <-w.stop:
			s.terminate(w, cmd, exited)
			s.setState(w, WorkerStopped)
			return
		case err := <-exited:
			uptime := time.Since(started)
			s.log.Warn("worker exited", "worker", w.spec.Name,
				"uptime", uptime.Round(time.Millisecond), "err", err)
			if uptime > s.cfg.CrashLoopWindow {
				// A long-lived process that finally died is a fresh
				// incident, not an escalation of the last one.
				consec = 0
			}
			if s.recordCrash(w, &consec) {
				return
			}
			if !s.backoff(w, consec) {
				return
			}
		}
	}
}

// recordCrash notes one exit; returns true when the crash-loop rule
// fires (worker marked dead, loop must stop).
func (s *Supervisor) recordCrash(w *worker, consec *int) bool {
	*consec++
	now := time.Now()
	w.mu.Lock()
	w.restarts++
	w.crashes = append(w.crashes, now)
	kept := w.crashes[:0]
	for _, t := range w.crashes {
		if now.Sub(t) <= s.cfg.CrashLoopWindow {
			kept = append(kept, t)
		}
	}
	w.crashes = kept
	looping := len(w.crashes) >= s.cfg.CrashLoopCrashes
	w.mu.Unlock()
	if looping {
		s.log.Error("worker crash-looping; giving up",
			"worker", w.spec.Name, "crashes", len(w.crashes),
			"window", s.cfg.CrashLoopWindow)
		s.setState(w, WorkerDead)
		return true
	}
	return false
}

// backoff waits out the jittered exponential delay before the next
// spawn; returns false when Stop interrupted the wait.
func (s *Supervisor) backoff(w *worker, consec int) bool {
	d := s.cfg.BackoffBase << uint(consec-1)
	if d <= 0 || d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	d = time.Duration(float64(d) * (0.75 + float64(0.5*rand.Float64())))
	s.setState(w, WorkerBackoff)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.stop:
		s.setState(w, WorkerStopped)
		return false
	case <-t.C:
		return true
	}
}

// terminate implements graceful stop: SIGTERM to the worker's process
// group, wait StopGrace, SIGKILL the group.
func (s *Supervisor) terminate(w *worker, cmd *exec.Cmd, exited <-chan error) {
	signalGroup(cmd.Process.Pid, syscall.SIGTERM)
	t := time.NewTimer(s.cfg.StopGrace)
	defer t.Stop()
	select {
	case <-exited:
	case <-t.C:
		signalGroup(cmd.Process.Pid, syscall.SIGKILL)
		<-exited
	}
}

// signalGroup signals a worker's whole process group, falling back to
// the lone process if the group is already gone.
func signalGroup(pid int, sig syscall.Signal) {
	if err := syscall.Kill(-pid, sig); err != nil {
		_ = syscall.Kill(pid, sig)
	}
}
