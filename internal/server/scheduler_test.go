package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/pebble"
)

// opaqueCtx hides its parent from the context package's fast path: a
// child derived from it starts a goroutine that propagates cancellation
// and lives until the child is canceled. A per-job context the scheduler
// forgets to cancel therefore shows up as a leaked goroutine.
type opaqueCtx struct{ context.Context }

func (opaqueCtx) Value(any) any { return nil }

// TestTimedJobsReleaseContexts is the per-job context leak regression:
// run used to build a WithCancel child and then overwrite its cancel
// function with the WithTimeout child's, so every timed job left one
// live child of the server context behind until shutdown.
func TestTimedJobsReleaseContexts(t *testing.T) {
	parent, stop := context.WithCancel(context.Background())
	defer stop()
	base := opaqueCtx{parent}

	store := NewMemStore()
	s := NewScheduler(store, nil, NewMetrics(), 1)
	in := pebble.MustInstance(gen.Chain(3), pebble.MPP(1, 2, 1))
	cfg := opt.DefaultConfig(1000)
	cfg.Workers = 1

	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := store.Put(&Job{ID: id, State: StateQueued}); err != nil {
			t.Fatal(err)
		}
		s.run(base, item{id: id, in: in, cfg: cfg, timeout: time.Minute})
		if j, err := store.Get(id); err != nil || j.State != StateDone {
			t.Fatalf("%s: state %v, err %v", id, j.State, err)
		}
	}
	// Canceled children's propagation goroutines exit asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after 50 timed jobs, baseline %d: per-job contexts leak", n, baseline)
	}
}

// TestPanickingSolveFailsItsJob: a solve that panics (here a job with
// no instance, which the search dereferences) must end its own job in
// StateFailed with the panic in Err, leave no running entry behind and
// count as a failed job, while the worker goes on to solve the next job.
func TestPanickingSolveFailsItsJob(t *testing.T) {
	store := NewMemStore()
	m := NewMetrics()
	s := NewScheduler(store, nil, m, 1)
	cfg := opt.DefaultConfig(1000)
	for _, id := range []string{"bad", "good"} {
		if err := store.Put(&Job{ID: id, State: StateQueued}); err != nil {
			t.Fatal(err)
		}
	}

	s.run(context.Background(), item{id: "bad", cfg: cfg})
	j, err := store.Get("bad")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateFailed || j.Result != nil || !strings.Contains(j.Err, "panicked") {
		t.Fatalf("panicking job: state %v, result %v, err %q; want failed with the panic in Err", j.State, j.Result, j.Err)
	}
	if n := s.Running(); n != 0 {
		t.Fatalf("%d jobs still running after the panic", n)
	}
	var b strings.Builder
	if err := m.WriteTo(&b, Gauges{}); err != nil {
		t.Fatal(err)
	}
	if want := `mpp_jobs_finished_total{state="failed"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("metrics lack %q:\n%s", want, b.String())
	}

	in := pebble.MustInstance(gen.Chain(3), pebble.MPP(1, 2, 1))
	s.run(context.Background(), item{id: "good", in: in, cfg: cfg})
	if j, err := store.Get("good"); err != nil || j.State != StateDone || j.Result == nil {
		t.Fatalf("job after the panic: state %v, err %v; want done", j.State, err)
	}
}
