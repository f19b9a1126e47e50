package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// benchExperiment runs one registered experiment per iteration (quick
// sizing) and fails the benchmark if any of its shape checks regress —
// so `go test -bench .` regenerates and re-verifies every figure/lemma.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := exp.RunSafe(context.Background(), e, exp.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if !tab.Pass() {
			for _, c := range tab.Checks {
				if !c.Pass {
					b.Fatalf("%s check %q failed: %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

func BenchmarkE01Fig1(b *testing.B)              { benchExperiment(b, "E01") }
func BenchmarkE02Lemma1Bounds(b *testing.B)      { benchExperiment(b, "E02") }
func BenchmarkE03GreedyUpper(b *testing.B)       { benchExperiment(b, "E03") }
func BenchmarkE04GreedyAdversarial(b *testing.B) { benchExperiment(b, "E04") }
func BenchmarkE05LowerBounds(b *testing.B)       { benchExperiment(b, "E05") }
func BenchmarkE06Tightness(b *testing.B)         { benchExperiment(b, "E06") }
func BenchmarkE07FairSpeedupLimit(b *testing.B)  { benchExperiment(b, "E07") }
func BenchmarkE08FairBlowup(b *testing.B)        { benchExperiment(b, "E08") }
func BenchmarkE09NonMonotone(b *testing.B)       { benchExperiment(b, "E09") }
func BenchmarkE10Superlinear(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11IOJumps(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12CliqueReduction(b *testing.B)   { benchExperiment(b, "E12") }
func BenchmarkE13VertexCover(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14HardClasses(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15BSPEquiv(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16EvictionAblation(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17AsyncRelaxation(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18SurplusInapprox(b *testing.B)   { benchExperiment(b, "E18") }
func BenchmarkE19Sequentialize(b *testing.B)     { benchExperiment(b, "E19") }

// Engine micro-benchmarks: the hot paths of the library itself.

func BenchmarkReplayZipper(b *testing.B) {
	g, ids := gen.Zipper(8, 200, 0)
	in := pebble.MustInstance(g, pebble.MPP(1, 2*8+2, 4))
	bld := pebble.NewBuilder(in)
	for _, u := range append(append([]NodeID{}, ids.S1...), ids.S2...) {
		bld.Compute(0, u)
	}
	for i, v := range ids.Chain {
		bld.Compute(0, v)
		if i > 0 {
			bld.DropRed(0, ids.Chain[i-1])
		}
	}
	s := bld.Strategy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pebble.Replay(in, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedySchedule(b *testing.B) {
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			g := gen.RandomDAG(size, 0.05, 4, 7)
			in := pebble.MustInstance(g, pebble.MPP(4, g.MaxInDegree()+3, 3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(sched.Greedy{}, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionedBeladyFFT(b *testing.B) {
	g := gen.FFT(6)
	in := pebble.MustInstance(g, pebble.MPP(2, 6, 3))
	s := sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(s, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gen.MatMul(8)
	}
}
