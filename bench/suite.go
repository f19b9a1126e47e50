package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exp"
)

// suite runs the full-size experiment registry through exp.RunSafe, the
// entry point mppexp uses, pass after pass.
type suite struct {
	quick bool
	exps  []exp.Experiment
	// The last phase, for layers: milliseconds per experiment.
	ms map[string][]float64
}

func newSuite(o options) workload { return &suite{quick: o.tiny} }

// setup takes the registry and warms the solver pools and caches the
// experiments share with one quick-mode pass, whose tables the timed
// passes check at full size.
func (s *suite) setup() error {
	s.exps = exp.Registry()
	for _, e := range s.exps {
		if _, err := exp.RunSafe(context.Background(), e, exp.Config{Quick: true}); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

func (s *suite) close() {}

func (s *suite) measure(d time.Duration, tr *tracer) *phase {
	p := newPhase()
	s.ms = make(map[string][]float64)
	var passes []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		tp := time.Now()
		for _, e := range s.exps {
			p.attempted++
			t := time.Now()
			tab, err := exp.RunSafe(context.Background(), e, exp.Config{Quick: s.quick})
			te := time.Now()
			tr.add("exp.RunSafe", fmt.Sprintf("%s/p%d", e.ID, pass), t, te)
			ms := float64(te.Sub(t)) / 1e6
			s.ms[e.ID] = append(s.ms[e.ID], ms)
			p.opsMS = append(p.opsMS, ms)
			switch {
			case err != nil:
				p.fail("%s: %v", e.ID, err)
			case !tab.Pass():
				p.fail("%s: a shape check failed", e.ID)
			case tab.Partial:
				p.fail("%s: table is partial", e.ID)
			}
		}
		passes = append(passes, time.Since(tp).Seconds())
	}
	p.passS = median(passes)
	p.extra["suite_s"] = summarize(passes)
	return p
}

// check has nothing left to do: every table was checked as it returned.
func (s *suite) check(*phase) {}

func (s *suite) layers(_ *phase, _ []span, m metrics) {
	for id, xs := range s.ms {
		m.set("exp.ms."+id, median(xs), "ms")
	}
}
