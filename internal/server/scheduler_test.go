package server

import (
	"context"
	"fmt"
	"runtime"
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
