// Package stats provides the statistical machinery behind the paper's
// evaluation: time-bucketed series, distinct-over-time growth curves, and
// the random-subset union estimator of Figures 10–12 (sample 100 random
// subsets of n units, report average/min/max of the union of peers they
// observed), parallelized across subset sizes.
package stats

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Buckets counts events into fixed-width time buckets.
type Buckets struct {
	Start  time.Time
	Width  time.Duration
	Counts []int
}

// NewBuckets creates n buckets of the given width starting at start.
func NewBuckets(start time.Time, width time.Duration, n int) *Buckets {
	return &Buckets{Start: start, Width: width, Counts: make([]int, n)}
}

// Add counts one event at t; events outside the covered range are ignored
// and reported false.
func (b *Buckets) Add(t time.Time) bool {
	i := b.Index(t)
	if i < 0 || i >= len(b.Counts) {
		return false
	}
	b.Counts[i]++
	return true
}

// Index returns the bucket index of t (possibly out of range).
func (b *Buckets) Index(t time.Time) int {
	d := t.Sub(b.Start)
	if d < 0 {
		return -1
	}
	return int(d / b.Width)
}

// GrowthCurve is a distinct-over-time series: for each period, the
// cumulative number of distinct keys seen so far and the number first seen
// in that period. This is exactly the pair plotted by the paper's
// Figures 2 and 3.
type GrowthCurve struct {
	// Cumulative[i] is the number of distinct keys observed in periods 0..i.
	Cumulative []int
	// New[i] is the number of keys first observed in period i.
	New []int
}

// DistinctTracker accumulates a GrowthCurve one event at a time — the
// streaming core of Distinct. Feeding it from a disk-backed record
// iterator costs one map entry per distinct key, never one per event.
type DistinctTracker struct {
	start     time.Time
	width     time.Duration
	periods   int
	firstSeen map[string]int
}

// NewDistinctTracker tracks distinct keys over periods buckets of the
// given width starting at start.
func NewDistinctTracker(start time.Time, width time.Duration, periods int) *DistinctTracker {
	return &DistinctTracker{start: start, width: width, periods: periods, firstSeen: make(map[string]int)}
}

// Observe records one event; events outside the covered range are
// ignored.
func (d *DistinctTracker) Observe(t time.Time, key string) {
	if t.Before(d.start) {
		return // negative durations truncate toward 0, not down
	}
	p := int(t.Sub(d.start) / d.width)
	if p >= d.periods {
		return
	}
	if prev, ok := d.firstSeen[key]; !ok || p < prev {
		d.firstSeen[key] = p
	}
}

// Curve extracts the growth curve accumulated so far.
func (d *DistinctTracker) Curve() GrowthCurve {
	g := GrowthCurve{Cumulative: make([]int, d.periods), New: make([]int, d.periods)}
	for _, p := range d.firstSeen {
		g.New[p]++
	}
	run := 0
	for i := 0; i < d.periods; i++ {
		run += g.New[i]
		g.Cumulative[i] = run
	}
	return g
}

// DenseDistinctTracker is DistinctTracker for dense integer keys — the
// interned IDs of the columnar analysis frame. First-seen periods live
// in a flat array indexed by key, so Observe is hash- and
// allocation-free; memory is O(distinct keys), never O(events).
type DenseDistinctTracker struct {
	startNs int64
	widthNs int64
	periods int
	first   []int32 // first-seen period per key, -1 = unseen
}

// NewDenseDistinctTracker tracks keys in [0, keys) over periods buckets
// of the given width starting at start. Observing a key ≥ keys grows the
// array.
func NewDenseDistinctTracker(start time.Time, width time.Duration, periods, keys int) *DenseDistinctTracker {
	d := &DenseDistinctTracker{
		startNs: start.UnixNano(),
		widthNs: int64(width),
		periods: periods,
	}
	d.grow(keys)
	return d
}

func (d *DenseDistinctTracker) grow(keys int) {
	for len(d.first) < keys {
		d.first = append(d.first, -1)
	}
}

// ObserveNano records one event at the given unix-nano timestamp;
// events outside the covered range are ignored.
func (d *DenseDistinctTracker) ObserveNano(ns int64, key int) {
	if ns < d.startNs {
		return
	}
	p := (ns - d.startNs) / d.widthNs
	if p >= int64(d.periods) {
		return
	}
	if key >= len(d.first) {
		d.grow(key + 1)
	}
	if prev := d.first[key]; prev < 0 || int32(p) < prev {
		d.first[key] = int32(p)
	}
}

// Observe is ObserveNano for a time.Time.
func (d *DenseDistinctTracker) Observe(t time.Time, key int) {
	d.ObserveNano(t.UnixNano(), key)
}

// Curve extracts the growth curve accumulated so far.
func (d *DenseDistinctTracker) Curve() GrowthCurve {
	g := GrowthCurve{Cumulative: make([]int, d.periods), New: make([]int, d.periods)}
	for _, p := range d.first {
		if p >= 0 {
			g.New[p]++
		}
	}
	run := 0
	for i := 0; i < d.periods; i++ {
		run += g.New[i]
		g.Cumulative[i] = run
	}
	return g
}

// Distinct computes a GrowthCurve over events (time, key). Events outside
// [start, start+periods*width) are ignored.
func Distinct(times []time.Time, keys []string, start time.Time, width time.Duration, periods int) GrowthCurve {
	if len(times) != len(keys) {
		panic("stats: times and keys length mismatch")
	}
	d := DistinctTracker{
		start: start, width: width, periods: periods,
		firstSeen: make(map[string]int, len(keys)/4+1),
	}
	for i, t := range times {
		d.Observe(t, keys[i])
	}
	return d.Curve()
}

// SubsetUnion is the result of the random-subset union estimator.
type SubsetUnion struct {
	// N[i] is the subset size of row i (0..len(sets) or 1..len(sets)).
	N []int
	// Avg, Min, Max are the union sizes over the drawn samples.
	Avg []float64
	Min []int
	Max []int
}

// SubsetUnionConfig tunes the estimator.
type SubsetUnionConfig struct {
	// Samples is the number of random subsets drawn per size (the paper
	// uses 100).
	Samples int
	// Seed makes the estimate reproducible.
	Seed int64
	// IncludeZero adds the n=0 row (used by Fig 10, not by Fig 11/12).
	IncludeZero bool
	// Parallel bounds worker goroutines; 0 means GOMAXPROCS.
	Parallel int
}

// UnionEstimate runs the estimator: sets[u] lists the element IDs observed
// by unit u (a honeypot for Fig 10, an advertised file for Figs 11–12);
// element IDs must be dense non-negative ints (the step-2 renumbering
// provides exactly that). Elements outside [0, universe) are ignored
// rather than crashing the scratch indexing — malformed identifiers
// (e.g. a negative decimal that leaked past anonymization) simply don't
// count toward unions. For each subset size n it draws cfg.Samples
// random subsets of units and reports average, minimum and maximum union
// cardinality.
//
// Subset sizes are processed in parallel; the per-(n, sample) RNG streams
// are derived deterministically, so results do not depend on scheduling.
// How a union is counted depends only on the input (see denseUnion), and
// both ways count the same elements, so neither does the result.
func UnionEstimate(sets [][]int32, universe int, cfg SubsetUnionConfig) SubsetUnion {
	return unionEstimate(sets, universe, cfg, denseUnion(sets, universe))
}

// unionBitsetWordLimit bounds the dense path's bitsets, units × words,
// at 64 MiB — the same budget as the analysis frame's bitsetWordLimit.
const unionBitsetWordLimit = 1 << 23

// denseUnion chooses how a sample's union is counted. The sparse way
// visits every element of the sample's sets, stamping a per-element
// array; the dense way ORs one bitset per set into an accumulator and
// counts its bits, which costs the bitset's word count per set whatever
// the set's length. The dense way is taken when the mean set length is at
// least a quarter of that word count and all the bitsets fit the limit.
func denseUnion(sets [][]int32, universe int) bool {
	if universe <= 0 || len(sets) == 0 {
		return false
	}
	words := (universe + 63) / 64
	if words*len(sets) > unionBitsetWordLimit {
		return false
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	return 4*total >= words*len(sets)
}

// unionBitsets builds one bitset of universe bits per unit, all from one
// backing array, skipping elements outside [0, universe).
func unionBitsets(sets [][]int32, universe int) [][]uint64 {
	words := (universe + 63) / 64
	backing := make([]uint64, words*len(sets))
	out := make([][]uint64, len(sets))
	for u, set := range sets {
		row := backing[u*words : (u+1)*words : (u+1)*words]
		for _, el := range set {
			if el >= 0 && int(el) < universe {
				row[el>>6] |= 1 << (el & 63)
			}
		}
		out[u] = row
	}
	return out
}

// unionEstimate is UnionEstimate with the union kernel chosen by the
// caller.
func unionEstimate(sets [][]int32, universe int, cfg SubsetUnionConfig, dense bool) SubsetUnion {
	if cfg.Samples <= 0 {
		cfg.Samples = 100
	}
	nUnits := len(sets)
	lo := 1
	if cfg.IncludeZero {
		lo = 0
	}
	var rows []int
	for n := lo; n <= nUnits; n++ {
		rows = append(rows, n)
	}
	out := SubsetUnion{
		N:   rows,
		Avg: make([]float64, len(rows)),
		Min: make([]int, len(rows)),
		Max: make([]int, len(rows)),
	}

	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers < 1 {
		workers = 1
	}

	var bitsets [][]uint64
	if dense {
		bitsets = unionBitsets(sets, universe)
	}

	type job struct{ row, n int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Sparse scratch, epoch-stamped: mark[i] == stamp means
			// element i is in the current union. Reused across samples
			// without clearing.
			var mark []int32
			stamp := int32(0)
			// Dense scratch: the union's bitset.
			var acc []uint64
			if dense {
				acc = make([]uint64, (universe+63)/64)
			} else {
				mark = make([]int32, universe)
			}
			// perm is kept as the identity permutation between samples:
			// the partial Fisher-Yates below records its swaps and undoes
			// them afterwards, so each sample touches O(n) entries instead
			// of re-initializing all nUnits.
			perm := make([]int, nUnits)
			for i := range perm {
				perm[i] = i
			}
			swaps := make([]int, nUnits)
			for j := range jobs {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(j.n)*1_000_003))
				sum := 0.0
				minU, maxU := -1, -1
				for s := 0; s < cfg.Samples; s++ {
					// Partial Fisher-Yates: the first j.n entries are the sample.
					for i := 0; i < j.n; i++ {
						k := i + rng.Intn(nUnits-i)
						perm[i], perm[k] = perm[k], perm[i]
						swaps[i] = k
					}
					union := 0
					switch {
					case j.n == 0:
					case dense:
						copy(acc, bitsets[perm[0]])
						for i := 1; i < j.n; i++ {
							row := bitsets[perm[i]][:len(acc)]
							for w, x := range row {
								acc[w] |= x
							}
						}
						for _, x := range acc {
							union += bits.OnesCount64(x)
						}
					default:
						stamp++
						for i := 0; i < j.n; i++ {
							for _, el := range sets[perm[i]] {
								if el < 0 || int(el) >= universe {
									continue
								}
								if mark[el] != stamp {
									mark[el] = stamp
									union++
								}
							}
						}
					}
					// Undo the swaps in reverse to restore the identity.
					for i := j.n - 1; i >= 0; i-- {
						k := swaps[i]
						perm[i], perm[k] = perm[k], perm[i]
					}
					sum += float64(union)
					if minU < 0 || union < minU {
						minU = union
					}
					if union > maxU {
						maxU = union
					}
				}
				if j.n == 0 {
					minU, maxU = 0, 0
				}
				out.Avg[j.row] = sum / float64(cfg.Samples)
				out.Min[j.row] = minU
				out.Max[j.row] = maxU
			}
		}()
	}
	for i, n := range rows {
		jobs <- job{row: i, n: n}
	}
	close(jobs)
	wg.Wait()
	return out
}

// TopKey returns the key with the most events and its count; ties break
// toward the lexicographically smallest key for determinism.
func TopKey(keys []string) (string, int) {
	counts := make(map[string]int, len(keys)/4+1)
	for _, k := range keys {
		counts[k]++
	}
	best, bestN := "", -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	if bestN < 0 {
		bestN = 0
	}
	return best, bestN
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank on a
// sorted copy.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(q * float64(len(cp)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(cp) {
		i = len(cp) - 1
	}
	return cp[i]
}

// CumulativeInts turns per-period counts into a running total.
func CumulativeInts(xs []int) []int {
	out := make([]int, len(xs))
	run := 0
	for i, x := range xs {
		run += x
		out[i] = run
	}
	return out
}
