// Package verdicttest seeds verdictcheck violations: solver results
// discarded or used without consulting Status/Verdict or the paired
// error.
package verdicttest

import (
	"context"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/pebble"
)

// Discarded drops the solver result on the floor.
func Discarded(ctx context.Context, in *pebble.Instance) {
	opt.ExactWith(ctx, in, opt.DefaultConfig(10)) // want "verdictcheck: result of ExactWith discarded"
}

// Blank binds the result to the blank identifier.
func Blank(ctx context.Context, g *dag.Graph) error {
	_, err := opt.ZeroIO(ctx, g, 2, 10) // want "verdictcheck: result of ZeroIO assigned to _"
	return err
}

// CostOnly reads Cost off a possibly-partial result and drops the error.
func CostOnly(ctx context.Context, in *pebble.Instance, sc *opt.SolveCache) int64 {
	res, _ := opt.SolveCached(ctx, in, opt.DefaultConfig(10), sc) // want "verdictcheck: Status/Verdict of SolveCached result res never consulted"
	return res.Cost
}

// FeasibleOnly trusts Feasible without checking the Verdict.
func FeasibleOnly(ctx context.Context, g *dag.Graph) bool {
	res, _ := opt.ZeroIOBig(ctx, g, 2, 10) // want "verdictcheck: Status/Verdict of ZeroIOBig result res never consulted"
	return res.Feasible
}

// StatusRead consults Status; no finding.
func StatusRead(ctx context.Context, in *pebble.Instance) int64 {
	res, _ := opt.ExactWith(ctx, in, opt.DefaultConfig(10))
	if res.Status != opt.StatusComplete {
		return -1
	}
	return res.Cost
}

// VerdictRead consults Verdict; no finding.
func VerdictRead(ctx context.Context, g *dag.Graph) bool {
	res, _ := opt.ZeroIO(ctx, g, 2, 10)
	return res.Verdict == opt.VerdictFeasible
}

// ErrChecked relies on the paired error, which is non-nil exactly when
// the result is partial; no finding.
func ErrChecked(ctx context.Context, in *pebble.Instance) (int64, error) {
	res, err := opt.ExactWith(ctx, in, opt.DefaultConfig(10))
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// Escapes hands the result to a consumer we cannot see; no finding.
func Escapes(ctx context.Context, in *pebble.Instance) *opt.Result {
	res, _ := opt.ExactWith(ctx, in, opt.DefaultConfig(10))
	return res
}

// WarmUp drops both results explicitly and visibly; no finding.
func WarmUp(ctx context.Context, in *pebble.Instance) {
	_, _ = opt.ExactWith(ctx, in, opt.DefaultConfig(10))
}
