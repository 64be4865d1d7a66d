package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed runs use unless told otherwise;
	// heldOutSeed is the seed a performance claim must also hold on,
	// kept out of tuning.
	defaultSeed = 1
	heldOutSeed = 20090525
	// setupRounds is how many times a run sets up; setup_s is the
	// median.
	setupRounds = 3
	// tracedRuns is how many traced runs a -trace 1 invocation adds
	// among its timed runs; per-layer metrics are their medians.
	tracedRuns = 3
	// minRuns is the fewest timed runs, however short -seconds is: the
	// same-seed output check needs two.
	minRuns = 2
	// budget bounds one invocation; a child still running then is
	// killed and counted as failed.
	budget = 170 * time.Second
	// outDir holds everything the benchmark writes, relative to the
	// repository root.
	outDir = ".bench_build"
)

// workloads maps each workload to the campaign whose registered spec it
// runs; replay runs no campaign itself but reads a greedy store.
var workloads = map[string]string{
	"distributed": "distributed",
	"greedy":      "greedy",
	"replay":      "greedy",
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// names and units of the metrics it must print.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// fingerprint identifies a run's output; runs of one seed must agree.
type fingerprint struct {
	ReportSHA     string `json:"report_sha256"`
	Events        uint64 `json:"events"`
	Records       int    `json:"records"`
	DistinctPeers int    `json:"distinct_peers"`
}

// sample is one timed run, as the parent measured it.
type sample struct {
	res  *runResult
	cpuS float64
}

// bencher holds one invocation's state.
type bencher struct {
	ctx      context.Context
	workload string
	seed     int64
	work     string // per-invocation scratch, removed at the end
	bin      string // the child binary the last set-up built

	attempted, failed int
	// want is the fingerprint every run of this seed must match.
	want *fingerprint
	// expectPath persists want across invocations of the same binary.
	expectPath string
}

func bench(workload string, seed int64, seconds int, trace bool) error {
	campaign, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have distributed, greedy, replay)", workload)
	}
	defs, err := readBenchFile()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	b := &bencher{ctx: ctx, workload: workload, seed: seed, work: filepath.Join(outDir, "work")}
	if err := os.RemoveAll(b.work); err != nil {
		return err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)

	// Set-up: build the benchmark (warm build cache) and, for replay,
	// generate the greedy store its runs read. Timed setupRounds times.
	var setups []float64
	store := ""
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		if err := b.build(dir); err != nil {
			return err
		}
		if i == 0 {
			if err := b.loadExpect(campaign); err != nil {
				return err
			}
		}
		if workload == "replay" {
			if store != "" {
				if err := os.RemoveAll(store); err != nil {
					return err
				}
			}
			store = filepath.Join(dir, "store")
			if _, err := b.runSample("greedy", store, false); err != nil {
				return fmt.Errorf("generating the greedy store: %w", err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	// Timed runs, closed loop: the next starts when the previous ends.
	// With tracing, a traced run follows each of the first tracedRuns
	// timed runs, so slow drift in machine speed reaches both alike.
	var samples []sample
	var tracedLayers []map[string]float64
	start := time.Now()
	for n := 0; n < minRuns || time.Since(start) < time.Duration(seconds)*time.Second; n++ {
		if s, err := b.workloadRun(store, fmt.Sprintf("run-%d", n), false); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d failed: %v\n", workload, n, err)
		} else {
			samples = append(samples, s)
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d: report_s %.4f cpu_s %.4f peak_rss_mb %.1f\n",
				workload, n, s.res.ReportS, s.cpuS, s.res.PeakRSSMB)
		}
		if trace && n < tracedRuns {
			if layers, err := b.tracedRun(store, n); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s traced run %d failed: %v\n", workload, n, err)
			} else {
				tracedLayers = append(tracedLayers, layers)
			}
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("every %s run failed", workload)
	}

	e2e := map[string][]float64{"setup_s": setups}
	for _, s := range samples {
		e2e["report_s"] = append(e2e["report_s"], s.res.ReportS)
		e2e["records_per_s"] = append(e2e["records_per_s"], float64(s.res.Records)/s.res.ReportS)
		e2e["cpu_s"] = append(e2e["cpu_s"], s.cpuS)
		e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], s.res.PeakRSSMB)
	}
	fmt.Printf("workload %s, seed %d, scale %g, %d timed runs, GOMAXPROCS %d\n",
		workload, seed, benchScale, len(samples), maxProcs())
	fmt.Printf("%-36s %-6s %14s %14s %4s\n", "metric", "unit", "median", "max", "n")
	for _, d := range defs.EndToEnd {
		printRow(d, e2e[d.Name])
	}

	out := map[string]any{}
	if !trace {
		for _, d := range defs.EndToEnd {
			vs, ok := e2e[d.Name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not measure", d.Name)
			}
			out[d.Name] = metricValue{median(vs), d.Unit}
		}
	} else {
		if len(tracedLayers) == 0 {
			return fmt.Errorf("every %s traced run failed", workload)
		}
		layers := traceMedians(tracedLayers, median(e2e["report_s"]))
		for _, d := range defs.PerLayer {
			v, ok := layers[d.Name]
			if !ok {
				fmt.Printf("%-36s %-6s %14s\n", d.Name, d.Unit, "n/a")
			} else {
				fmt.Printf("%-36s %-6s %14.6g\n", d.Name, d.Unit, v)
			}
			out[d.Name] = metricValue{v, d.Unit}
		}
	}
	fmt.Printf("%-36s %-6s %14.6g %14s %4d\n", "failed_ratio", "ratio",
		float64(b.failed)/float64(b.attempted), "", b.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func readBenchFile() (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// build compiles the benchmark into dir and makes it the child binary.
func (b *bencher) build(dir string) error {
	bin := filepath.Join(dir, "perfbench")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(b.ctx, "go", "build", "-o", abs, ".")
	cmd.Dir = "perfbench"
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the benchmark: %w", err)
	}
	b.bin = abs
	return nil
}

// loadExpect keys the persisted fingerprint by the child binary's
// content, so a rebuilt program starts afresh.
func (b *bencher) loadExpect(campaign string) error {
	data, err := os.ReadFile(b.bin)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(outDir, "expect")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.expectPath = filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", hex.EncodeToString(sum[:8]), campaign, b.seed))
	data, err = os.ReadFile(b.expectPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	b.want = new(fingerprint)
	return json.Unmarshal(data, b.want)
}

// workloadRun runs the workload once. Each greedy run spills into a
// fresh directory, named name, that is removed afterwards.
func (b *bencher) workloadRun(store, name string, trace bool) (sample, error) {
	if b.workload == "greedy" {
		store = filepath.Join(b.work, name)
		defer os.RemoveAll(store)
	}
	return b.runSample(b.workload, store, trace)
}

// tracedRun runs the workload once with tracing on and returns its
// per-layer metrics.
func (b *bencher) tracedRun(store string, n int) (map[string]float64, error) {
	s, err := b.workloadRun(store, fmt.Sprintf("traced-%d", n), true)
	if err != nil {
		return nil, err
	}
	layers := s.res.Layers
	layers["trace.report_s"] = s.res.ReportS
	// What the top-level layer times leave of the traced report_s.
	rest := s.res.ReportS
	for _, k := range topLayers {
		rest -= layers[k]
	}
	layers["trace.unaccounted_s"] = rest
	return layers, nil
}

// traceMedians is each per-layer metric's median over the traced runs,
// with the tracing overhead against the untraced median report_s.
func traceMedians(runs []map[string]float64, untracedReportS float64) map[string]float64 {
	values := map[string][]float64{}
	for _, layers := range runs {
		layers["trace.overhead_ratio"] = layers["trace.report_s"]/untracedReportS - 1
		for k, v := range layers {
			values[k] = append(values[k], v)
		}
	}
	out := make(map[string]float64, len(values))
	for k, vs := range values {
		out[k] = median(vs)
	}
	return out
}

// topLayers are the per-layer times that follow one another within a
// run's report_s: a campaign simulates, finalizes, analyzes and diffs;
// a replay opens the store, observes, runs each pipeline stage and
// builds the frame, analyzes and diffs.
var topLayers = []string{
	"des.simulate_s", "manager.finalize_s",
	"logstore.open_s", "anonymize.observe_s", "logstore.scan_self_s", "anonymize.audit_self_s",
	"anonymize.renumber_self_s", "anonymize.names_self_s", "analysis.frame_build_self_s",
	"analysis.exec_s", "calibrate.diff_s",
}

// runSample runs one child and checks its output.
func (b *bencher) runSample(workload, store string, trace bool) (sample, error) {
	res, cpu, err := b.child(workload, store, trace)
	if err == nil {
		err = b.check(workload, res)
	}
	b.attempted++
	if err != nil {
		b.failed++
		return sample{}, err
	}
	return sample{res: res, cpuS: cpu}, nil
}

// check fails a run whose calibration report has a failing row, or
// whose output differs from earlier runs of the same seed. Replay runs
// must reproduce the greedy report their store came from.
func (b *bencher) check(workload string, res *runResult) error {
	if res.CalibFailed > 0 {
		return fmt.Errorf("calibration report has %d failing rows", res.CalibFailed)
	}
	got := fingerprint{ReportSHA: res.ReportSHA, Events: res.Events, Records: res.Records, DistinctPeers: res.DistinctPeers}
	if b.want == nil {
		if workload == "replay" {
			return errors.New("replay run without a greedy reference")
		}
		b.want = &got
		data, err := json.Marshal(got)
		if err != nil {
			return err
		}
		// Write and rename, so a killed invocation leaves no torn file.
		tmp := b.expectPath + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, b.expectPath)
	}
	want := *b.want
	if workload == "replay" {
		want.Events = 0 // a replay simulates nothing
	}
	if got != want {
		return fmt.Errorf("output differs from an earlier run of seed %d: got %+v, want %+v", b.seed, got, want)
	}
	return nil
}

// child runs one run in a process of its own and returns its result
// and its user plus system CPU time.
func (b *bencher) child(workload, store string, trace bool) (*runResult, float64, error) {
	args := []string{"child", "-workload", workload, "-seed", strconv.FormatInt(b.seed, 10)}
	if store != "" {
		args = append(args, "-store", store)
	}
	if trace {
		args = append(args, "-trace")
	}
	cmd := exec.CommandContext(b.ctx, b.bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", maxProcs()))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	cpu := (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil && !errors.Is(err, io.EOF) {
		return nil, 0, fmt.Errorf("decoding the run's result: %w", err)
	}
	if res.ReportS <= 0 {
		return nil, 0, errors.New("the run printed no result")
	}
	return &res, cpu, nil
}

// maxProcs is the runs' GOMAXPROCS: at most 2, at most the CPU count.
func maxProcs() int { return min(2, runtime.NumCPU()) }

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printRow prints a metric's median and its highest supported
// percentile: with fewer than eleven samples no percentile has ten
// samples beyond it, so that is the maximum.
func printRow(d metricDef, vs []float64) {
	if len(vs) == 0 {
		fmt.Printf("%-36s %-6s %14s\n", d.Name, d.Unit, "n/a")
		return
	}
	fmt.Printf("%-36s %-6s %14.6g %14.6g %4d\n", d.Name, d.Unit, median(vs), slices.Max(vs), len(vs))
}
