package eval

import (
	"testing"

	"partdiff/internal/types"
)

// Micro-benchmarks of the plan executor on the paper's two workloads:
// one cached differential over a one-tuple Δ (fig. 6: the cost is the
// fixed per-execution work) and over a Δ touching every item (fig. 7:
// the cost is per scanned tuple), plus the §7.2 derivability probe.

func benchPlanExec(b *testing.B, items, changed int) {
	env, def := inventory(b, items)
	setQuantity(env, changed, 1000, 900)
	ev := New(env)
	p, err := ev.Compile(differential(b, def, "Δcnd/Δ+quantity"))
	if err != nil {
		b.Fatal(err)
	}
	out := types.NewSet()
	s0 := ev.ScannedTuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Exec(out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ev.ScannedTuples()-s0)/float64(b.N), "scanned/op")
	if out.Len() != 0 {
		b.Fatalf("nobody is below threshold, yet %d tuples emitted", out.Len())
	}
}

func BenchmarkPlanExecFig6(b *testing.B) { benchPlanExec(b, 10000, 1) }
func BenchmarkPlanExecFig7(b *testing.B) { benchPlanExec(b, 1000, 1000) }

func BenchmarkDerivableProbe(b *testing.B) {
	env, def := inventory(b, 10000)
	if err := env.prog.Define(def); err != nil {
		b.Fatal(err)
	}
	ev := New(env)
	probe := tup(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe[0] = types.Int(int64(i % 10000))
		if held, err := ev.Derivable("cnd", probe, false); err != nil || held {
			b.Fatalf("Derivable = %v, %v; want false", held, err)
		}
	}
}
