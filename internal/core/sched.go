// Package core implements the NetAgg agg box (§3.2.1): aggregation tasks
// executed by a cooperatively scheduled fixed thread pool with weighted
// fair queuing across applications (including the adaptive weight
// correction evaluated in Figs 25-26), a streaming local aggregation tree
// with back-pressure, and the network layer that receives partial results
// and forwards aggregated data towards the master.
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netagg/internal/stats"
)

// Task is one unit of aggregation computation, scheduled to run to
// completion on a pool thread (§3.2.1 "Task scheduler").
type Task func()

// SchedulerConfig configures the task scheduler.
type SchedulerConfig struct {
	// Workers is the fixed thread pool size; 0 defaults to 4.
	Workers int
	// Adaptive enables the adaptive weight correction: application weights
	// become w_i = s_i/t̄_i (share over measured mean task time) instead of
	// the fixed w_i = s_i, so CPU time rather than task count is shared
	// proportionally (§3.2.1, Figs 25-26).
	Adaptive bool
	// Seed makes the weighted random pick deterministic for tests.
	Seed int64
}

// ewmaAlpha smooths the per-application task time moving average.
const ewmaAlpha = 0.05

type appState struct {
	name  string
	share float64
	avg   *stats.EWMA
	queue []Task
	head  int
	cpu   time.Duration
}

func (a *appState) pending() int { return len(a.queue) - a.head }

func (a *appState) push(t Task) { a.queue = append(a.queue, t) }

func (a *appState) pop() Task {
	t := a.queue[a.head]
	a.queue[a.head] = nil
	a.head++
	if a.head > 64 && a.head*2 >= len(a.queue) {
		a.queue = append(a.queue[:0], a.queue[a.head:]...)
		a.head = 0
	}
	return t
}

// Scheduler runs aggregation tasks on a fixed pool with weighted fair
// queuing over per-application queues.
type Scheduler struct {
	cfg SchedulerConfig

	mu     sync.Mutex
	cond   *sync.Cond
	apps   map[string]*appState
	order  []*appState // registration order: keeps the seeded pick deterministic
	rng    *rand.Rand
	closed bool
	queued int

	wg sync.WaitGroup
}

// NewScheduler starts the pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Scheduler{
		cfg:  cfg,
		apps: make(map[string]*appState),
		rng:  rand.New(rand.NewSource(seed)),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Register adds an application with a target resource share s_i. Shares
// are relative; they need not sum to one.
func (s *Scheduler) Register(app string, share float64) {
	if share <= 0 {
		panic(fmt.Sprintf("core: share for %q must be > 0", app))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.apps[app]; dup {
		panic(fmt.Sprintf("core: application %q already registered", app))
	}
	st := &appState{name: app, share: share, avg: stats.NewEWMA(ewmaAlpha)}
	s.apps[app] = st
	s.order = append(s.order, st)
}

// Submit queues a task for an application. It returns an error if the
// application is unknown or the scheduler is closed.
func (s *Scheduler) Submit(app string, t Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("core: scheduler closed")
	}
	st, ok := s.apps[app]
	if !ok {
		return fmt.Errorf("core: unknown application %q", app)
	}
	st.push(t)
	s.queued++
	obsSchedQueue.Add(1)
	s.cond.Signal()
	return nil
}

// worker pops tasks according to the weighted fair policy and runs them to
// completion.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queued == 0 {
			s.cond.Wait()
		}
		if s.closed && s.queued == 0 {
			s.mu.Unlock()
			return
		}
		st := s.pickLocked()
		task := st.pop()
		s.queued--
		obsSchedQueue.Add(-1)
		s.mu.Unlock()

		t0 := time.Now()
		task()
		dt := time.Since(t0)

		s.mu.Lock()
		st.avg.Observe(dt.Seconds())
		st.cpu += dt
		s.mu.Unlock()
	}
}

// pickLocked chooses among applications with pending tasks, with
// probability proportional to the (possibly adapted) weights (§3.2.1:
// "the scheduler offers that thread to a task of application i with
// probability w_i/Σw").
func (s *Scheduler) pickLocked() *appState {
	// Iterate s.order, not the apps map: with a seeded rng the weighted
	// pick is only reproducible if the candidate order (and the float
	// summation order of the weights) is fixed across runs.
	fallback := s.fallbackAvgLocked()
	var total float64
	for _, st := range s.order {
		if st.pending() > 0 {
			total += s.weightLocked(st, fallback)
		}
	}
	r := s.rng.Float64() * total
	var last *appState
	for _, st := range s.order {
		if st.pending() == 0 {
			continue
		}
		last = st
		r -= s.weightLocked(st, fallback)
		if r < 0 {
			return st
		}
	}
	return last // floating point remainder: the last non-empty queue
}

// fallbackAvgLocked estimates a task time for applications that have not
// completed any task yet: the mean of the measured averages, or 1 if
// nothing has been measured. Without this bootstrap, a fresh application's
// raw share would compete against time-normalised weights that are orders
// of magnitude larger and it would starve until its first task ran.
func (s *Scheduler) fallbackAvgLocked() float64 {
	if !s.cfg.Adaptive {
		return 1
	}
	sum, n := 0.0, 0
	for _, st := range s.order {
		if st.avg.Initialized() && st.avg.Value() > 0 {
			sum += st.avg.Value()
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// weightLocked returns the application's current weight: its share under
// fixed WFQ, or share divided by the measured mean task time under the
// adaptive policy (w_i ∝ s_i/t̄_i, §3.2.1).
func (s *Scheduler) weightLocked(st *appState, fallbackAvg float64) float64 {
	if !s.cfg.Adaptive {
		return st.share
	}
	avg := fallbackAvg
	if st.avg.Initialized() && st.avg.Value() > 0 {
		avg = st.avg.Value()
	}
	return st.share / avg
}

// CPUTime returns the accumulated task execution time of an application,
// the measurement behind Figs 25-26.
func (s *Scheduler) CPUTime(app string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.apps[app]; ok {
		return st.cpu
	}
	return 0
}

// Pending reports the number of queued (not yet started) tasks.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Close drains remaining tasks and stops the pool. No Submit may follow.
func (s *Scheduler) Close() {
	s.closeWith(false)
}

// CloseNow stops the pool after the currently running tasks, dropping any
// queued tasks. Used by measurement harnesses that submit open-loop
// backlogs.
func (s *Scheduler) CloseNow() {
	s.closeWith(true)
}

func (s *Scheduler) closeWith(drop bool) {
	s.mu.Lock()
	s.closed = true
	if drop {
		for _, st := range s.order {
			st.queue = nil
			st.head = 0
		}
		obsSchedQueue.Add(int64(-s.queued))
		s.queued = 0
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
