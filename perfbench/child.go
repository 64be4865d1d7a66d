package main

// One run, in a process of its own: a campaign from its registered
// spec, or a replay of a kept greedy spill store, through to the
// calibrated report. The parent (orchestrate.go) starts one such
// process per run, so the process's peak RSS and CPU time cover
// exactly one run and no set-up. Untraced runs call the program with
// telemetry off; traced runs read the progress tap and the metrics
// registry and time calls into each layer from outside.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/anonymize"
	"repro/internal/calibrate"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// runResult is what a child prints as its last line of output.
type runResult struct {
	ReportS   float64 `json:"report_s"`
	ReportSHA string  `json:"report_sha256"`
	// CalibFailed counts the calibration report's failing rows.
	CalibFailed   int    `json:"calib_failed"`
	Events        uint64 `json:"events"`
	Records       int    `json:"records"`
	DistinctPeers int    `json:"distinct_peers"`
	// PeakRSSMB is the process's VmHWM when the run ended.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// report is the calibrated report a run produces; its JSON is what the
// output check hashes.
type report struct {
	Artifacts   analysis.ReportSet `json:"artifacts"`
	Calibration calibrate.Report   `json:"calibration"`
}

func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	workload := fs.String("workload", "", "distributed, greedy or replay")
	seed := fs.Int64("seed", 1, "campaign seed (Spec.Seed)")
	store := fs.String("store", "", "greedy: directory to collect into and keep; replay: directory a greedy run kept")
	trace := fs.Bool("trace", false, "time each layer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		res *runResult
		err error
	)
	switch *workload {
	case "distributed", "greedy":
		res, err = runCampaign(*workload, *seed, *store, *trace)
	case "replay":
		res, err = runReplay(*store, *trace)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		return err
	}
	if res.PeakRSSMB, err = vmHWM(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// memSample is the cumulative allocation and GC counters at one point.
type memSample struct {
	allocBytes uint64
	gcCycles   uint64
}

var memKeys = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memKeys))
	copy(s, memKeys)
	metrics.Read(s)
	return memSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func allocMB(from, to memSample) float64 { return float64(to.allocBytes-from.allocBytes) / (1 << 20) }

// paperPlan is the analysis every workload runs: the paper's full
// artifact menu with the query seed fixed, so the run seed reaches the
// program only through Spec.Seed.
func paperPlan(meta analysis.CampaignMeta) analysis.Plan {
	return analysis.PaperPlan(meta, analysis.QueryOptions{Seed: 1})
}

// analyze runs the plan and the calibration diff on a finished frame,
// recording their layer metrics into layers when it is non-nil.
func analyze(frame *analysis.Frame, meta analysis.CampaignMeta, layers map[string]float64) (report, error) {
	t0, m0 := time.Now(), readMem()
	rs, err := analysis.Exec(frame, meta, paperPlan(meta))
	if err != nil {
		return report{}, fmt.Errorf("executing plan: %w", err)
	}
	t1, m1 := time.Now(), readMem()
	rep, err := calibrate.Diff(meta.Name, meta.Scale, rs, nil)
	if err != nil {
		return report{}, fmt.Errorf("calibration diff: %w", err)
	}
	if layers != nil {
		st := rs.ExecStats()
		layers["analysis.exec_s"] = t1.Sub(t0).Seconds()
		layers["analysis.exec_alloc_mb"] = allocMB(m0, m1)
		layers["analysis.critical_path_s"] = st.CriticalPathWall.Seconds()
		layers["analysis.utilization"] = st.Utilization
		for _, q := range st.Queries {
			layers[queryMetric(q.Name)] = q.Wall.Seconds()
		}
		layers["calibrate.diff_s"] = time.Since(t1).Seconds()
	}
	return report{Artifacts: rs, Calibration: rep}, nil
}

func queryMetric(name string) string { return "analysis.query." + name + "_s" }

// finish hashes the report and fills the result's output fields.
func finish(rep report, reportS float64, frame *analysis.Frame) (*runResult, error) {
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	sum := sha256.Sum256(data)
	return &runResult{
		ReportS:       reportS,
		ReportSHA:     hex.EncodeToString(sum[:]),
		CalibFailed:   rep.Calibration.Failed,
		Records:       frame.Len(),
		DistinctPeers: frame.DistinctPeers(),
	}, nil
}

// metaFile and rawDir name what a greedy run keeps under -store for
// replay runs to read.
const (
	metaFile = "meta.json"
	rawDir   = "raw"
)

const (
	// benchScale multiplies the registered paper specs' arrival
	// intensity.
	benchScale = 0.05
	// greedyMaxFiles caps the greedy honeypot's harvested file list. At
	// benchScale the uncapped first-day harvest ranges from about 120
	// to 740 files over seeds, and a campaign's work grows with it, so
	// runs of different seeds would do up to three times as much work.
	// Every seed harvests past this cap, so every seed does the same
	// amount of work. The paper's cap, at scale 1, is 3,175.
	greedyMaxFiles = 100
)

// campaignSpec is the registered paper campaign as the benchmark runs
// it: at benchScale, greedy capped at greedyMaxFiles, and seeded only
// through Spec.Seed.
func campaignSpec(name string, seed int64) (scenario.Spec, error) {
	spec, err := scenario.Lookup(name)
	if err != nil {
		return spec, err
	}
	spec.Seed = seed
	spec.Scale *= benchScale
	spec.Collection.Stream = true
	if name == "greedy" {
		spec.Fleet[0].GreedyMaxFiles = greedyMaxFiles
	}
	return spec, nil
}

// runCampaign runs a registered paper campaign through the streamed
// finalize, then the paper plan and the calibration diff.
func runCampaign(name string, seed int64, store string, trace bool) (*runResult, error) {
	spec, err := campaignSpec(name, seed)
	if err != nil {
		return nil, err
	}
	if store != "" {
		spec.Collection.StoreDir = filepath.Join(store, rawDir)
	}

	var (
		opts   scenario.RunOptions
		reg    *obs.Registry
		layers map[string]float64
		tap    campaignTap
	)
	start := time.Now()
	if trace {
		reg = obs.New()
		layers = map[string]float64{}
		tap.start, tap.m0 = start, readMem()
		opts = scenario.RunOptions{Metrics: reg, Progress: tap.observe}
	}
	res, err := scenario.RunWith(spec, opts)
	if err != nil {
		return nil, err
	}
	meta := res.Meta()
	if trace {
		if err := tap.record(layers, reg); err != nil {
			return nil, err
		}
	}
	rep, err := analyze(res.Frame, meta, layers)
	if err != nil {
		return nil, err
	}
	reportS := time.Since(start).Seconds()

	out, err := finish(rep, reportS, res.Frame)
	if err != nil {
		return nil, err
	}
	out.Events = res.Events
	out.Layers = layers
	if store != "" {
		data, err := json.Marshal(meta)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(store, metaFile), data, 0o644); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// campaignTap reads the simulation and finalize phases off the
// progress tap: the simulation ends at the first snapshot whose virtual
// clock reached the campaign end, finalize at the final snapshot.
type campaignTap struct {
	start            time.Time
	m0, mSim, mFinal memSample
	simAt, finalAt   time.Duration
	simDone          bool
	events           uint64
	maxPending       int
}

func (t *campaignTap) observe(p scenario.Progress) bool {
	if !t.simDone && !p.SimTime.Before(p.SimEnd) {
		t.simDone = true
		t.simAt, t.mSim = time.Since(t.start), readMem()
		t.events, t.maxPending = p.Events, p.Engine.MaxPending
	}
	if p.Final {
		t.finalAt, t.mFinal = time.Since(t.start), readMem()
	}
	return true
}

func (t *campaignTap) record(layers map[string]float64, reg *obs.Registry) error {
	if !t.simDone || t.finalAt == 0 {
		return errors.New("progress tap saw no simulation end or no final snapshot")
	}
	sim := t.simAt.Seconds()
	layers["des.simulate_s"] = sim
	layers["des.events"] = float64(t.events)
	layers["des.events_per_s"] = float64(t.events) / sim
	layers["des.max_pending"] = float64(t.maxPending)
	layers["des.simulate_alloc_mb"] = allocMB(t.m0, t.mSim)
	layers["des.simulate_gc_cycles"] = float64(t.mSim.gcCycles - t.m0.gcCycles)
	layers["manager.finalize_s"] = (t.finalAt - t.simAt).Seconds()
	layers["manager.finalize_alloc_mb"] = allocMB(t.mSim, t.mFinal)

	ctr := func(name string) float64 { return float64(reg.Counter(name).Load()) }
	layers["manager.collect_rounds"] = ctr("manager.collect.rounds")
	layers["manager.collect_records"] = ctr("manager.collect.records")
	// The finalize stage counters are inclusive of every upstream
	// stage: scan ⊂ audit ⊂ renumber ⊂ anonymize.
	nanos := func(stage string) float64 { return ctr("finalize."+stage+".nanos") / 1e9 }
	prev := 0.0
	for _, stage := range []string{"scan", "audit", "renumber", "anonymize"} {
		incl := nanos(stage)
		layers["finalize."+stage+".self_s"] = incl - prev
		prev = incl
	}
	layers["finalize.observe_s"] = nanos("observe")
	storeCounters(layers, reg)
	return nil
}

// storeCounters copies the logstore's registry counters.
func storeCounters(layers map[string]float64, reg *obs.Registry) {
	for _, c := range []string{"append.records", "append.bytes", "scan.records", "scan.bytes", "segment.rotations"} {
		layers["logstore."+strings.ReplaceAll(c, ".", "_")] = float64(reg.Counter("logstore." + c).Load())
	}
}

// runReplay re-runs the finalize pipeline on a greedy run's kept spill
// store through the public anonymize stages, in the order the manager
// composes them, then the paper plan and the calibration diff.
func runReplay(store string, trace bool) (*runResult, error) {
	if store == "" {
		return nil, errors.New("replay needs -store")
	}
	start := time.Now()
	data, err := os.ReadFile(filepath.Join(store, metaFile))
	if err != nil {
		return nil, err
	}
	var meta analysis.CampaignMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", metaFile, err)
	}
	var (
		reg    *obs.Registry
		layers map[string]float64
	)
	if trace {
		reg = obs.New()
		layers = map[string]float64{}
	}
	st, err := logstore.Open(filepath.Join(store, rawDir), logstore.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	tOpen := time.Now()

	// Pass 1: word frequencies for the filename anonymizer.
	m0 := readMem()
	na := anonymize.NewNameAnonymizer(manager.DefaultConfig().NameThreshold)
	if err := scan(st, func(it logging.Iterator) error { return na.ObserveIter(it) }); err != nil {
		return nil, fmt.Errorf("observe pass: %w", err)
	}
	tObserve, mObserve := time.Now(), readMem()

	// Pass 2: the whole pipeline, drained into the frame.
	pipeline := []func(logging.Iterator) logging.Iterator{
		anonymize.AuditIter,
		func(it logging.Iterator) logging.Iterator { return anonymize.NewRenumberer().RenumberIter(it) },
		na.AnonymizeIter,
	}
	var frame *analysis.Frame
	if err := scan(st, func(it logging.Iterator) error {
		for _, stage := range pipeline {
			it = stage(it)
		}
		var err error
		frame, err = analysis.BuildFrameIter(it)
		return err
	}); err != nil {
		return nil, fmt.Errorf("finalize pass: %w", err)
	}
	tFrame := time.Now()

	if trace {
		layers["logstore.open_s"] = tOpen.Sub(start).Seconds()
		layers["anonymize.observe_s"] = tObserve.Sub(tOpen).Seconds()
		layers["anonymize.observe_alloc_mb"] = allocMB(m0, mObserve)
		// The scan counters cover the observe and finalize passes, as
		// in an untraced run, and not the prefix passes below.
		storeCounters(layers, reg)
		// Drain each shorter prefix of the pipeline in a full pass of
		// its own, with no per-record clock reads. A stage's self time
		// is the difference between consecutive prefixes; the frame
		// build's is pass 2's time less the longest prefix. These
		// passes are not part of the run's report_s.
		prev := 0.0
		for n, name := range []string{"logstore.scan_self_s", "anonymize.audit_self_s", "anonymize.renumber_self_s", "anonymize.names_self_s"} {
			t := time.Now()
			if err := scan(st, func(it logging.Iterator) error {
				for _, stage := range pipeline[:n] {
					it = stage(it)
				}
				return drain(it)
			}); err != nil {
				return nil, fmt.Errorf("pipeline prefix %d: %w", n, err)
			}
			d := time.Since(t).Seconds()
			layers[name] = d - prev
			prev = d
		}
		layers["analysis.frame_build_self_s"] = tFrame.Sub(tObserve).Seconds() - prev
	}

	tAnalyze := time.Now()
	rep, err := analyze(frame, meta, layers)
	if err != nil {
		return nil, err
	}
	reportS := (tFrame.Sub(start) + time.Since(tAnalyze)).Seconds()
	out, err := finish(rep, reportS, frame)
	if err != nil {
		return nil, err
	}
	out.Layers = layers
	return out, nil
}

// scan runs f over a fresh merged iterator of the store and closes it.
func scan(st *logstore.Store, f func(logging.Iterator) error) error {
	it, err := st.Iterator()
	if err != nil {
		return err
	}
	err = f(it)
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return err
}

// drain pulls every record from it.
func drain(it logging.Iterator) error {
	for {
		if _, err := it.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// vmHWM returns the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
