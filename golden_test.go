package repro_test

// Golden dataset digests. Two oracles used to pin the campaign engine:
// the pre-declarative campaign runners (kept verbatim as test code) and
// the binary-heap event scheduler (kept as a runtime option). Both have
// earned their keep and retired; what they compared is frozen here as
// SHA-256 digests. Each case hashes the engine's normalized Result —
// every exported and unexported field, maps in key order — and, for a
// spill campaign, the store directory's bytes in path order.
//
// A digest mismatch means the campaign's history changed. If the change
// is intended (a behavioural fix, a new Result field), re-derive the
// digests from the failure messages and say why in the commit;
// otherwise the change broke determinism or equivalence.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/catalog"
)

var goldenDigests = map[string]string{
	"legacy/distributed":              "3b875b039b3897d275171220f96ce7543becc6e4e804613bcb5f11fa34853430",
	"legacy/distributed-multi-server": "4dd7cd614968f9d861838baa0d0c08ef6c5a18157e8f7602d4e4d89806e65563",
	"legacy/distributed-store":        "14ae0412fe0da390d5db8e8dc80a0512827fc8af7acb45a6e97c0011602d0d13",
	"legacy/greedy":                   "7dbdec21f90a3350c3e982f6dd7d4e78d2cfc84dab31e19f40e8fd2b415a8651",

	"churn-fleet/memory":            "fa8079850c79f4c9d0d78e09d73fe6482b34bd4e78f1f891a6bff5c92b9f050e",
	"churn-fleet/store-stream":      "6307c2b6f6059aeda24fe2029bb364d80bfb44a2c2731a95fcd83ba50eadcd29",
	"distributed/memory":            "df94d095b9b35774a496b992b434db77b64b3ebdfa2aa9e71f9172b04197ef46",
	"distributed/store-stream":      "900809081fc61557b256ac61c944d1a74acba88cf7866b23305e222302c25ed9",
	"federation-mixed/memory":       "611b54257c131b6dc8d34ace8c4dd7cac8b1c2128276d37463a26df133dfd783",
	"federation-mixed/store-stream": "c98c71d69d33582ae6f1c3a1e5cdcddfd81f627d5ce5099eddb34f814b898024",
	"flaky-links/memory":            "fde97cb47fd4eeb70d934cad7332f22acec0d4b83114abddc7855917089f8e8d",
	"flaky-links/store-stream":      "5a147db4c8799643f72245ffc83a87415c1e45fad9f1247a73da25c0a4d76513",
	"flash-crowd/memory":            "3c5a2e45acb3ac17c657f2c37174f65c30462dffb836ce5b9c0b493a3f85500c",
	"flash-crowd/store-stream":      "8ab2b544e0cfe21d7ac4c706c8a4e5bacfc2612510313f575561f9e835637acc",
	"greedy/memory":                 "eea70e37be565644ddb0082cc36685d8e7e1b035b4e57e97307d6602f11735d6",
	"greedy/store-stream":           "e5ec69a22007255531c16a97511782679734406ac1468f7e0b4116aa7dbd7448",
}

// goldenRun runs spec and hashes its normalized Result, then the
// spill store when the spec has one. The normalization drops what is
// not campaign history: the timing wheel's bookkeeping counters,
// per-run directory paths, and the frame (a cache over the records
// already hashed, or over the store in streamed mode).
func goldenRun(t *testing.T, spec repro.Spec) string {
	t.Helper()
	res, err := repro.RunSpec(spec)
	if err != nil {
		t.Fatalf("%s run: %v", spec.Name, err)
	}
	res.Engine.Cascades, res.Engine.OverflowScans = 0, 0
	res.StoreDir, res.ExportDir = "", ""
	res.Frame = nil

	h := sha256.New()
	goldenHash(h, reflect.ValueOf(res).Elem())
	if dir := spec.Collection.StoreDir; dir != "" {
		goldenHashDir(t, h, dir)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCheck compares a case's digest with the pinned one.
func goldenCheck(t *testing.T, key string, spec repro.Spec) {
	t.Helper()
	got := goldenRun(t, spec)
	want, ok := goldenDigests[key]
	if !ok {
		t.Fatalf("no golden digest for %q; this run hashes to %q", key, got)
	}
	if got != want {
		t.Errorf("%s: dataset digest %s, want %s", key, got, want)
	}
}

var timeType = reflect.TypeOf(time.Time{})

// goldenHash writes a deterministic encoding of v: the same fields
// reflect.DeepEqual compares, in declaration order, with map entries
// sorted by their encoded key.
func goldenHash(w io.Writer, v reflect.Value) {
	num := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		w.Write(b[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		io.WriteString(w, s)
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			num(1)
		} else {
			num(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		num(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		num(v.Uint())
	case reflect.Float32, reflect.Float64:
		num(math.Float64bits(v.Float()))
	case reflect.String:
		str(v.String())
	case reflect.Slice:
		if v.IsNil() {
			num(math.MaxUint64)
			return
		}
		fallthrough
	case reflect.Array:
		num(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			goldenHash(w, v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == timeType && v.CanInterface() {
			tm := v.Interface().(time.Time)
			num(uint64(tm.UnixNano()))
			str(tm.Location().String())
			return
		}
		for i := 0; i < v.NumField(); i++ {
			goldenHash(w, v.Field(i))
		}
	case reflect.Map:
		if v.IsNil() {
			num(math.MaxUint64)
			return
		}
		type entry struct {
			key []byte
			val reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var kb bytes.Buffer
			goldenHash(&kb, it.Key())
			entries = append(entries, entry{kb.Bytes(), it.Value()})
		}
		slices.SortFunc(entries, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
		num(uint64(len(entries)))
		for _, e := range entries {
			w.Write(e.key)
			goldenHash(w, e.val)
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			num(math.MaxUint64)
			return
		}
		if v.Kind() == reflect.Interface {
			str(v.Elem().Type().String())
		}
		goldenHash(w, v.Elem())
	default:
		panic(fmt.Sprintf("golden: cannot hash a %s", v.Type()))
	}
}

// goldenHashDir writes every file under dir, in sorted relative-path
// order, as path and contents.
func goldenHashDir(t *testing.T, w io.Writer, dir string) {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		paths = append(paths, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	if len(paths) == 0 {
		t.Fatalf("no spill files under %s", dir)
	}
	slices.Sort(paths)
	for _, rel := range paths {
		b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%d:%s%d:", len(rel), rel, len(b))
		w.Write(b)
	}
}

// goldenTinyDistributed is the small distributed campaign the legacy
// runners were pinned on: six honeypots, a 3,000-file catalog.
func goldenTinyDistributed(t *testing.T) repro.Spec {
	t.Helper()
	spec, err := repro.ScenarioSpec("distributed")
	if err != nil {
		t.Fatal(err)
	}
	spec.Days = 3
	spec.Scale = 0.02
	spec.Catalog = catalog.Config{NumFiles: 3000, Vocabulary: 500, PopularityExp: 0.9, Seed: 1}
	spec.Fleet = spec.Fleet[:6]
	spec.Workloads[0].LibraryRegion = 1000
	return spec
}

// TestGoldenLegacyDigests pins the four campaigns the legacy runners
// were compared on: tiny distributed, its three-server variant, tiny
// greedy, and distributed with a spill store.
func TestGoldenLegacyDigests(t *testing.T) {
	t.Run("distributed", func(t *testing.T) {
		t.Parallel()
		goldenCheck(t, "legacy/distributed", goldenTinyDistributed(t))
	})
	t.Run("distributed-multi-server", func(t *testing.T) {
		t.Parallel()
		spec := goldenTinyDistributed(t)
		spec.Topology.Servers = 3
		for i := range spec.Fleet {
			spec.Fleet[i].Server = i % 3
		}
		spec.Workloads[0].Servers = []int{0, 1, 2}
		goldenCheck(t, "legacy/distributed-multi-server", spec)
	})
	t.Run("greedy", func(t *testing.T) {
		t.Parallel()
		spec, err := repro.ScenarioSpec("greedy")
		if err != nil {
			t.Fatal(err)
		}
		spec.Days = 3
		spec.Scale = 0.004
		spec.Catalog = catalog.Config{NumFiles: 3000, Vocabulary: 500, PopularityExp: 0.9, Seed: 2}
		spec.Fleet[0].GreedyMaxFiles = 200
		spec.Workloads[0].Targets.NormFiles = 200
		goldenCheck(t, "legacy/greedy", spec)
	})
	t.Run("distributed-store", func(t *testing.T) {
		t.Parallel()
		spec := goldenTinyDistributed(t)
		spec.Days = 2
		spec.Scale = 0.01
		spec.Collection.StoreDir = t.TempDir()
		goldenCheck(t, "legacy/distributed-store", spec)
	})
}

// TestGoldenScenarioDigests pins every registered scenario at
// equivScale in both collection modes: materialized in memory, and
// spilled to a store then finalized through the streaming pipeline.
func TestGoldenScenarioDigests(t *testing.T) {
	for _, name := range repro.Scenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base, err := repro.ScenarioSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			base.Scale *= equivScale
			t.Run("memory", func(t *testing.T) {
				goldenCheck(t, name+"/memory", base)
			})
			t.Run("store-stream", func(t *testing.T) {
				spec := base
				spec.Collection.StoreDir = filepath.Join(t.TempDir(), "spill")
				spec.Collection.Stream = true
				goldenCheck(t, name+"/store-stream", spec)
			})
		})
	}
}
