package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/opt"
	"repro/internal/pebble"
)

// ErrQueueFull is returned by Submit when the bounded queue cannot
// accept another job. Match with errors.Is; the HTTP layer maps it to
// 429 Too Many Requests.
var ErrQueueFull = errors.New("server: job queue full")

// item is one unit of queued work. The parsed instance and resolved
// config ride along so workers never re-parse the request.
type item struct {
	id      string
	in      *pebble.Instance
	cfg     opt.Config
	timeout time.Duration
}

// Scheduler is the bounded worker pool behind the job API: Submit
// enqueues (never blocks — a full queue is a typed rejection), a fixed
// set of workers drains the queue, and every solve goes through
// opt.SolveCached against the shared cache. Per-job deadlines and API
// cancellation both travel the solver's existing context plumbing.
type Scheduler struct {
	store   JobStore
	cache   *opt.SolveCache
	metrics *Metrics
	queue   chan item
	wg      sync.WaitGroup

	mu      sync.Mutex
	running map[string]context.CancelFunc // mpp:guardedby mu
}

// NewScheduler wires a scheduler over the given store, solve cache
// (nil disables caching) and metrics. queueDepth bounds how many jobs
// may wait beyond the ones being solved; workers is fixed at Start.
func NewScheduler(store JobStore, sc *opt.SolveCache, m *Metrics, queueDepth int) *Scheduler {
	if queueDepth < 1 {
		queueDepth = 1024
	}
	return &Scheduler{
		store:   store,
		cache:   sc,
		metrics: m,
		queue:   make(chan item, queueDepth),
		running: make(map[string]context.CancelFunc),
	}
}

// Start launches n workers (0 means GOMAXPROCS) bound to ctx:
// canceling ctx stops every in-flight solve (their per-job contexts are
// children) and the workers exit once the queue stops yielding work.
// Call Wait to join.
func (s *Scheduler) Start(ctx context.Context, n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
}

// Wait blocks until every worker has exited (after their ctx is
// canceled).
func (s *Scheduler) Wait() { s.wg.Wait() }

// QueueDepth returns the number of jobs waiting (not yet picked up).
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Running returns the number of jobs currently being solved.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running)
}

// Submit enqueues an already-stored job. On a full queue the job record
// is removed again and ErrQueueFull returned — the submission never
// existed as far as the API is concerned.
func (s *Scheduler) Submit(id string, in *pebble.Instance, cfg opt.Config, timeout time.Duration) error {
	select {
	case s.queue <- item{id: id, in: in, cfg: cfg, timeout: timeout}:
		s.metrics.JobSubmitted()
		return nil
	default:
		s.metrics.JobRejected()
		if err := s.store.Delete(id); err != nil {
			return errors.Join(ErrQueueFull, err)
		}
		return ErrQueueFull
	}
}

// Cancel requests cancellation: a queued job is finished immediately as
// StateCanceled; a running job has its solve context canceled and lands
// in StateCanceled (with the partial bracket the solver returned) once
// its worker observes the stop. Canceling a terminal job is a no-op.
// The returned snapshot reflects the state after the request.
func (s *Scheduler) Cancel(id string) (Job, error) {
	fromQueue := false
	j, err := s.store.Update(id, func(j *Job) {
		if j.State.Terminal() {
			return
		}
		j.CancelRequested = true
		if j.State == StateQueued {
			j.State = StateCanceled
			j.Finished = time.Now()
			fromQueue = true
		}
	})
	if err != nil {
		return Job{}, err
	}
	if fromQueue {
		// Canceled straight out of the queue: the worker will skip it.
		s.metrics.JobFinished(StateCanceled, 0, false)
	}
	s.mu.Lock()
	cancel := s.running[id]
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j, nil
}

// worker drains the queue until ctx is canceled and the queue is idle.
func (s *Scheduler) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case it := <-s.queue:
			s.run(ctx, it)
		}
	}
}

// run executes one queued job: claim it (skipping jobs canceled while
// queued), derive the per-job context, solve through the shared cache,
// and classify the outcome. A deadline or budget stop is StateDone with
// a typed partial Result; only a Result-less failure is StateFailed.
func (s *Scheduler) run(ctx context.Context, it item) {
	claimed := false
	_, err := s.store.Update(it.id, func(j *Job) {
		if j.State == StateQueued && !j.CancelRequested {
			j.State = StateRunning
			j.Started = time.Now()
			claimed = true
		}
	})
	if err != nil || !claimed {
		return
	}

	var jctx context.Context
	var cancel context.CancelFunc
	if it.timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, it.timeout)
	} else {
		jctx, cancel = context.WithCancel(ctx)
	}
	s.mu.Lock()
	s.running[it.id] = cancel
	s.mu.Unlock()

	start := time.Now()
	res, serr := opt.SolveCached(jctx, it.in, it.cfg, s.cache)
	elapsed := time.Since(start)

	s.mu.Lock()
	delete(s.running, it.id)
	s.mu.Unlock()
	cancel()

	var final State
	_, err = s.store.Update(it.id, func(j *Job) {
		j.Finished = time.Now()
		j.Result = res
		if serr != nil {
			j.Err = serr.Error()
		}
		switch {
		case res == nil:
			j.State = StateFailed
		case j.CancelRequested && res.Status == opt.StatusCanceled:
			j.State = StateCanceled
		default:
			// Complete, budget-stopped, or deadline-stopped: all carry
			// a Result whose Status says how the search ended.
			j.State = StateDone
		}
		final = j.State
	})
	if err != nil {
		return
	}
	s.metrics.JobFinished(final, elapsed, true)
}
