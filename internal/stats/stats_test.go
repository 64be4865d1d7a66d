package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func TestBuckets(t *testing.T) {
	b := NewBuckets(t0, time.Hour, 24)
	if !b.Add(t0) {
		t.Error("start instant should land in bucket 0")
	}
	if !b.Add(t0.Add(90 * time.Minute)) {
		t.Error("90min should land in bucket 1")
	}
	if b.Add(t0.Add(-time.Minute)) {
		t.Error("before start must be rejected")
	}
	if b.Add(t0.Add(25 * time.Hour)) {
		t.Error("past end must be rejected")
	}
	if b.Counts[0] != 1 || b.Counts[1] != 1 {
		t.Errorf("counts = %v", b.Counts[:3])
	}
}

func TestDistinctGrowth(t *testing.T) {
	day := 24 * time.Hour
	times := []time.Time{
		t0.Add(1 * time.Hour),  // day 0, peer a
		t0.Add(2 * time.Hour),  // day 0, peer a again
		t0.Add(26 * time.Hour), // day 1, peer b
		t0.Add(27 * time.Hour), // day 1, peer a again
		t0.Add(50 * time.Hour), // day 2, peer c
	}
	keys := []string{"a", "a", "b", "a", "c"}
	g := Distinct(times, keys, t0, day, 3)
	wantNew := []int{1, 1, 1}
	wantCum := []int{1, 2, 3}
	for i := range wantNew {
		if g.New[i] != wantNew[i] || g.Cumulative[i] != wantCum[i] {
			t.Errorf("day %d: new=%d cum=%d", i, g.New[i], g.Cumulative[i])
		}
	}
}

func TestDistinctIgnoresOutOfRange(t *testing.T) {
	g := Distinct(
		[]time.Time{t0.Add(-time.Hour), t0.Add(100 * 24 * time.Hour)},
		[]string{"x", "y"}, t0, 24*time.Hour, 2)
	if g.Cumulative[1] != 0 {
		t.Errorf("out-of-range events counted: %v", g.Cumulative)
	}
}

func TestDistinctPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on length mismatch")
		}
	}()
	Distinct([]time.Time{t0}, nil, t0, time.Hour, 1)
}

func TestUnionEstimateFullSubsetExact(t *testing.T) {
	// 3 units with known overlap; at n=3 every sample is the full union.
	sets := [][]int32{{0, 1, 2}, {2, 3}, {3, 4, 5}}
	r := UnionEstimate(sets, 6, SubsetUnionConfig{Samples: 50, Seed: 1, IncludeZero: true})
	last := len(r.N) - 1
	if r.N[last] != 3 {
		t.Fatalf("last row n=%d", r.N[last])
	}
	if r.Avg[last] != 6 || r.Min[last] != 6 || r.Max[last] != 6 {
		t.Errorf("full union: avg=%v min=%d max=%d", r.Avg[last], r.Min[last], r.Max[last])
	}
	if r.N[0] != 0 || r.Avg[0] != 0 {
		t.Errorf("zero row: n=%d avg=%v", r.N[0], r.Avg[0])
	}
}

func TestUnionEstimateSingleUnitBounds(t *testing.T) {
	sets := [][]int32{{0}, {1, 2}, {3, 4, 5, 6}}
	r := UnionEstimate(sets, 7, SubsetUnionConfig{Samples: 200, Seed: 2})
	// Row for n=1: min over samples should be 1 (smallest unit), max 4.
	if r.N[0] != 1 {
		t.Fatalf("first row n=%d", r.N[0])
	}
	if r.Min[0] != 1 || r.Max[0] != 4 {
		t.Errorf("n=1: min=%d max=%d, want 1 and 4", r.Min[0], r.Max[0])
	}
	if r.Avg[0] < 1 || r.Avg[0] > 4 {
		t.Errorf("n=1 avg=%v out of bounds", r.Avg[0])
	}
}

func TestUnionEstimateMonotoneAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := make([][]int32, 10)
	for i := range sets {
		n := 5 + rng.Intn(50)
		for j := 0; j < n; j++ {
			sets[i] = append(sets[i], int32(rng.Intn(300)))
		}
	}
	r := UnionEstimate(sets, 300, SubsetUnionConfig{Samples: 100, Seed: 4, IncludeZero: true})
	for i := 1; i < len(r.Avg); i++ {
		if r.Avg[i] < r.Avg[i-1]-1e-9 {
			t.Errorf("avg not monotone at n=%d: %v < %v", r.N[i], r.Avg[i], r.Avg[i-1])
		}
	}
}

func TestUnionEstimateDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := make([][]int32, 24)
	for i := range sets {
		for j := 0; j < 100+rng.Intn(400); j++ {
			sets[i] = append(sets[i], int32(rng.Intn(5000)))
		}
	}
	a := UnionEstimate(sets, 5000, SubsetUnionConfig{Samples: 100, Seed: 7, Parallel: 1, IncludeZero: true})
	b := UnionEstimate(sets, 5000, SubsetUnionConfig{Samples: 100, Seed: 7, Parallel: 8, IncludeZero: true})
	for i := range a.N {
		if a.Avg[i] != b.Avg[i] || a.Min[i] != b.Min[i] || a.Max[i] != b.Max[i] {
			t.Fatalf("row %d differs between 1 and 8 workers", i)
		}
	}
}

func TestTopKey(t *testing.T) {
	k, n := TopKey([]string{"a", "b", "b", "c", "b", "a"})
	if k != "b" || n != 3 {
		t.Errorf("TopKey = %q/%d", k, n)
	}
	k, n = TopKey(nil)
	if k != "" || n != 0 {
		t.Errorf("empty TopKey = %q/%d", k, n)
	}
	// Tie-break: lexicographically smallest.
	k, _ = TopKey([]string{"z", "y"})
	if k != "y" {
		t.Errorf("tie break = %q", k)
	}
}

func TestMeanQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("mean of empty")
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Errorf("quantile extremes: %v %v", Quantile(xs, 0), Quantile(xs, 1))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("quantile of empty")
	}
}

func TestCumulativeInts(t *testing.T) {
	got := CumulativeInts([]int{1, 2, 3})
	if got[0] != 1 || got[1] != 3 || got[2] != 6 {
		t.Errorf("cumulative = %v", got)
	}
}

// Property: union estimates are bounded by the total universe observed and
// min ≤ avg ≤ max on every row.
func TestQuickUnionBounds(t *testing.T) {
	f := func(seed int64, nUnits uint8) bool {
		units := int(nUnits%12) + 1
		rng := rand.New(rand.NewSource(seed))
		sets := make([][]int32, units)
		universe := 200
		total := map[int32]bool{}
		for i := range sets {
			for j := 0; j < rng.Intn(40); j++ {
				el := int32(rng.Intn(universe))
				sets[i] = append(sets[i], el)
				total[el] = true
			}
		}
		r := UnionEstimate(sets, universe, SubsetUnionConfig{Samples: 20, Seed: seed})
		for i := range r.N {
			if float64(r.Min[i]) > r.Avg[i]+1e-9 || r.Avg[i] > float64(r.Max[i])+1e-9 {
				return false
			}
			if r.Max[i] > len(total) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionEstimate24x100(b *testing.B) {
	// Fig 10 workload: 24 honeypots, 100 samples per subset size.
	rng := rand.New(rand.NewSource(1))
	sets := make([][]int32, 24)
	for i := range sets {
		n := 10000 + rng.Intn(20000)
		sets[i] = make([]int32, n)
		for j := range sets[i] {
			sets[i][j] = int32(rng.Intn(110_000))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionEstimate(sets, 110_000, SubsetUnionConfig{Samples: 100, Seed: 9, IncludeZero: true})
	}
}

func BenchmarkUnionEstimateSerialVsParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]int32, 100)
	for i := range sets {
		n := 500 + rng.Intn(1500)
		sets[i] = make([]int32, n)
		for j := range sets[i] {
			sets[i][j] = int32(rng.Intn(100_000))
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnionEstimate(sets, 100_000, SubsetUnionConfig{Samples: 30, Seed: 9, Parallel: 1})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnionEstimate(sets, 100_000, SubsetUnionConfig{Samples: 30, Seed: 9})
		}
	})
}

func TestDenseDistinctMatchesMap(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(11))
	const periods, keys = 9, 40
	m := NewDistinctTracker(start, time.Hour, periods)
	d := NewDenseDistinctTracker(start, time.Hour, periods, keys/2) // force growth
	for i := 0; i < 2000; i++ {
		k := rng.Intn(keys)
		ts := start.Add(time.Duration(rng.Intn(periods*70)-30) * time.Minute)
		m.Observe(ts, fmt.Sprint(k))
		d.Observe(ts, k)
	}
	if got, want := d.Curve(), m.Curve(); !reflect.DeepEqual(got, want) {
		t.Errorf("dense tracker diverges:\n got %+v\nwant %+v", got, want)
	}
}

// naiveUnion mirrors UnionEstimate with a freshly initialized identity
// permutation per sample and a fresh set per union — the behavior the
// swap-undo optimization and both union kernels must reproduce exactly,
// RNG stream included. Elements outside [0, universe) do not count.
func naiveUnion(sets [][]int32, universe int, cfg SubsetUnionConfig) SubsetUnion {
	nUnits := len(sets)
	lo := 1
	if cfg.IncludeZero {
		lo = 0
	}
	var out SubsetUnion
	for n := lo; n <= nUnits; n++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*1_000_003))
		sum, minU, maxU := 0.0, -1, -1
		for s := 0; s < cfg.Samples; s++ {
			perm := make([]int, nUnits)
			for i := range perm {
				perm[i] = i
			}
			for i := 0; i < n; i++ {
				k := i + rng.Intn(nUnits-i)
				perm[i], perm[k] = perm[k], perm[i]
			}
			seen := map[int32]bool{}
			for i := 0; i < n; i++ {
				for _, el := range sets[perm[i]] {
					if el >= 0 && int(el) < universe {
						seen[el] = true
					}
				}
			}
			u := len(seen)
			sum += float64(u)
			if minU < 0 || u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		if n == 0 {
			minU, maxU = 0, 0
		}
		out.N = append(out.N, n)
		out.Avg = append(out.Avg, sum/float64(cfg.Samples))
		out.Min = append(out.Min, minU)
		out.Max = append(out.Max, maxU)
	}
	return out
}

// TestUnionEstimateMatchesNaive holds both union kernels to the naive
// reference on inputs either side of the density threshold, with
// duplicate and out-of-range elements, with and without the n=0 row, and
// checks that UnionEstimate picks the kernel the input calls for.
func TestUnionEstimateMatchesNaive(t *testing.T) {
	cases := []struct {
		name             string
		units, universe  int
		maxLen           int
		outOfRange, zero bool
		dense            bool
	}{
		{name: "dense", units: 9, universe: 120, maxLen: 40, zero: true, dense: true},
		{name: "dense-out-of-range", units: 9, universe: 120, maxLen: 40, outOfRange: true, dense: true},
		{name: "dense-wide", units: 12, universe: 5_000, maxLen: 400, zero: true, dense: true},
		{name: "sparse", units: 9, universe: 100_000, maxLen: 40, zero: true},
		{name: "sparse-out-of-range", units: 9, universe: 100_000, maxLen: 40, outOfRange: true},
		{name: "sparse-below-threshold", units: 12, universe: 5_000, maxLen: 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			sets := make([][]int32, c.units)
			for u := range sets {
				for i := rng.Intn(c.maxLen + 1); i > 0; i-- {
					el := int32(rng.Intn(c.universe))
					sets[u] = append(sets[u], el)
					if i%5 == 0 {
						sets[u] = append(sets[u], el) // a duplicate
					}
					if c.outOfRange && i%7 == 0 {
						sets[u] = append(sets[u], -1-el, int32(c.universe)+el)
					}
				}
			}
			if got := denseUnion(sets, c.universe); got != c.dense {
				t.Fatalf("denseUnion = %v, want %v", got, c.dense)
			}
			cfg := SubsetUnionConfig{Samples: 25, Seed: 3, IncludeZero: c.zero}
			want := naiveUnion(sets, c.universe, cfg)
			if got := UnionEstimate(sets, c.universe, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("UnionEstimate diverged from the naive reference:\n got %+v\nwant %+v", got, want)
			}
			for _, dense := range []bool{false, true} {
				if got := unionEstimate(sets, c.universe, cfg, dense); !reflect.DeepEqual(got, want) {
					t.Errorf("dense=%v kernel diverged from the naive reference:\n got %+v\nwant %+v", dense, got, want)
				}
			}
		})
	}
}

// TestDenseUnionBounds: the bitsets' footprint limit and degenerate
// inputs keep the sparse kernel.
func TestDenseUnionBounds(t *testing.T) {
	full := func(units, n int) [][]int32 {
		sets := make([][]int32, units)
		for u := range sets {
			sets[u] = make([]int32, n)
		}
		return sets
	}
	if denseUnion(nil, 100) || denseUnion(full(3, 10), 0) {
		t.Error("no units or an empty universe must take the sparse kernel")
	}
	universe := unionBitsetWordLimit / 4 * 64 // 1/4 of the limit per unit
	if !denseUnion(full(4, universe/64), universe) {
		t.Error("4 units at the footprint limit should be dense")
	}
	if denseUnion(full(5, universe/64), universe) {
		t.Error("5 units over the footprint limit must be sparse")
	}
}
