package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"recross/internal/coldstore"
	"recross/internal/kernels"
	"recross/internal/partition"
	"recross/internal/trace"
)

// pinnedColdSpec is the cold-tier serving benchmark's model: 8 tables of
// 500k rows, 16 gathers of 32-element vectors per op.
func pinnedColdSpec() trace.ModelSpec {
	spec := trace.ModelSpec{Name: "perfbench-cold"}
	for i := 0; i < 8; i++ {
		spec.Tables = append(spec.Tables, trace.TableSpec{
			Name: fmt.Sprintf("cold%d", i), Rows: 500_000, VecLen: 32, Pooling: 16,
			Prob: 1, Skew: 1.0 + 0.05*float64(i%4),
		})
	}
	return spec
}

// TestPinnedDecisions pins the LP placement, and the simulated cycles of
// one batch served from it, on the default Criteo configuration, the
// paper-scale one and the int8 cold-tier configuration (32 MiB resident
// budget over a 1 GiB flash tier). The values were recorded before the
// simplex's pricing and pivots were restructured; a solver change that
// moves any bit of the decision shows up here.
func TestPinnedDecisions(t *testing.T) {
	cold := DefaultConfig(pinnedColdSpec())
	cold.Precision = kernels.INT8
	cold.ColdPrecision = kernels.INT8
	cold.ColdTier = &coldstore.TierSpec{CapBytes: 1 << 30, ResidentBudgetBytes: 32 << 20}
	for _, tc := range []struct {
		name     string
		cfg      Config
		decision uint64 // FNV-1a of T, Load and SegFrac bits
		locate   uint64 // FNV-1a of a 1-in-97-row Locate sweep
		cycles   int64  // simulated cycles of one seeded 32-sample batch
	}{
		{"criteo-32-16", DefaultConfig(trace.CriteoKaggle(32, 16)), 0xb2eb0b7d23131a0b, 0xaed69b5a246c322f, 35373},
		{"criteo-64-80", DefaultConfig(trace.CriteoKaggle(64, 80)), 0x1c3d4f4fed861838, 0x581d4380b5528b22, 95847},
		{"cold-int8", cold, 0x4365316196974d74, 0xe93a94cf2bc641a5, 4600000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := r.Decision()
			h := fnv.New64a()
			put := func(v float64) {
				var b [8]byte
				u := math.Float64bits(v)
				for k := range b {
					b[k] = byte(u >> (8 * k))
				}
				h.Write(b[:])
			}
			put(d.T)
			for _, l := range d.Load {
				put(l)
			}
			for _, segs := range d.SegFrac {
				for _, fr := range segs {
					for _, f := range fr {
						put(f)
					}
				}
			}
			decision := h.Sum64()

			h.Reset()
			pl := r.Placement()
			for ti, tab := range tc.cfg.Spec.Tables {
				for row := int64(0); row < tab.Rows; row += 97 {
					region, slot := pl.Locate(ti, row)
					put(float64(region))
					put(float64(slot))
				}
			}
			locate := h.Sum64()

			g, err := trace.NewGenerator(tc.cfg.Spec, 2023)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := r.Run(g.Batch(32))
			if err != nil {
				t.Fatal(err)
			}
			if decision != tc.decision || locate != tc.locate || int64(rs.Cycles) != tc.cycles {
				t.Errorf("decision %#x locate %#x cycles %d, pinned %#x %#x %d (T %v)",
					decision, locate, rs.Cycles, tc.decision, tc.locate, tc.cycles, d.T)
			}
		})
	}
}

// BenchmarkSolveLP times the partitioning LP core.New solves for the
// default Criteo configuration: 266 rows by 1049 tableau columns.
func BenchmarkSolveLP(b *testing.B) {
	cfg := DefaultConfig(trace.CriteoKaggle(32, 16))
	r, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.SolveLP(r.Profile(), r.Regions(), cfg.Batch); err != nil {
			b.Fatal(err)
		}
	}
}
