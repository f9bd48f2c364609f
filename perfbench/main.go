// Command perfbench is the benchmark of record for the winrs module. It
// runs one workload built from a seed, checks every output the program
// returns, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload train-dense-fp32 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it records a span around every call into a layer,
// writes the spans to -out, and reports the per-layer metrics. It exits
// non-zero when any output is wrong.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// calibrated scales the workload's times by the calibration kernel
	// (calib.go); otherwise they are wall times.
	calibrated bool
	// measure runs the workload for the configured time and returns its
	// metrics: end-to-end ones when cfg.tracer is nil, per-layer ones
	// otherwise.
	measure func(cfg runConfig) (*result, error)
	// setup runs the workload's timed set-up once in a fresh process and
	// returns its duration and the hashes of the first checked gradients.
	setup func(seed int64) (time.Duration, []uint64, error)
}

var workloads = []*workload{trainDenseFP32, trainDenseFP16, trainGrouped, serveMix}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runConfig is what one measurement run is given.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tracer  *tracer // nil: untraced
	nproc   int
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	mismatches        []string // wrong outputs; any makes the run incorrect
	metrics           map[string]float64
	// setupHashes are the hashes of the run's own checked first
	// gradients, which every set-up process must reproduce.
	setupHashes []uint64
	// samples are the timed operations behind the percentiles, in ms of
	// wall time and in the order they ran, and calib the calibration
	// kernel times taken after each; both are kept in the result file.
	samples, calib []float64
	// wall holds p50_ms, p90_ms and done_per_s of the raw wall times,
	// printed and kept beside the scaled metrics.
	wall map[string]float64
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), wall: make(map[string]float64)}
}

// percentiles reports p50_ms and p90_ms of the calibration-scaled
// samples, and the same percentiles of the raw wall times in wall.
func (r *result) percentiles(scaled, raw []float64) error {
	p90, err := percentile(scaled, 0.9)
	if err != nil {
		return fmt.Errorf("p90_ms: %w", err)
	}
	rawP90, err := percentile(raw, 0.9)
	if err != nil {
		return fmt.Errorf("p90_ms: %w", err)
	}
	r.metrics["p50_ms"], r.metrics["p90_ms"] = median(scaled), p90
	r.wall["p50_ms"], r.wall["p90_ms"] = median(raw), rawP90
	return nil
}

// fail counts one failed operation; a non-empty mismatch also marks the
// run incorrect.
func (r *result) fail(mismatch string) {
	r.failed++
	if mismatch != "" && len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, mismatch)
	}
}

// envRecord is recorded with every result.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: train-dense-fp32, train-dense-fp16, train-grouped or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench-runs", "directory for span and result files")
	spec := flag.String("benchmark", "BENCHMARK.json", "the benchmark's definition, which lists the metrics each mode reports")
	setupChild := flag.Bool("setup-child", false, "run the workload's set-up once and report it (used by the benchmark itself)")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *setupChild {
		return runSetupChild(w, *seed)
	}
	cat, err := loadCatalogue(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	env := envRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU()}
	defs := cat.EndToEnd
	if *trace == 1 {
		cfg.tracer = newTracer()
		defs = cat.PerLayer
	}
	// Untraced, the set-up is timed in fresh processes before and after
	// the timed phase, so the host's drift during the run falls on both.
	var setups []setupReport
	if *trace == 0 {
		setups, err = timeSetups(w, *seed, setupRuns/2)
	}
	var res *result
	if err == nil {
		res, err = w.measure(cfg)
	}
	if err == nil && *trace == 0 {
		var after []setupReport
		after, err = timeSetups(w, *seed, setupRuns-setupRuns/2)
		setups = append(setups, after...)
	}
	if err == nil && *trace == 0 {
		checkSetups(w, setups, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	stem := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if cfg.tracer != nil {
		if err := writeSpans(stem+"-spans.json", env, cfg.tracer.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	if cfg.tracer != nil || len(res.mismatches) > 0 {
		// A layer the workload leaves idle has per-layer metrics of 0, and
		// a wrong output ends the run early with its unmeasured metrics 0.
		for _, d := range defs {
			if _, ok := res.metrics[d.Name]; !ok {
				res.metrics[d.Name] = 0
			}
		}
	}
	line, err := report(res, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeRecord(stem+".json", env, defs, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	printTable(defs, res)
	for _, m := range res.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", m)
	}
	fmt.Println(line)
	if len(res.mismatches) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report renders the final result line. Every metric in defs must have
// been measured and be finite.
func report(res *result, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.mismatches) == 0, res.attempted, res.failed, ms})
	return string(b), err
}

// writeRecord stores the run's environment, metrics with their meaning,
// and counts next to its spans.
func writeRecord(path string, env envRecord, defs []metricDef, res *result) error {
	type row struct {
		metricDef
		Value float64 `json:"value"`
	}
	rows := make([]row, 0, len(defs))
	for _, d := range defs {
		rows = append(rows, row{d, res.metrics[d.Name]})
	}
	b, err := json.MarshalIndent(map[string]any{
		"env": env, "attempted": res.attempted, "failed": res.failed,
		"failed_frac": failedFrac(res), "mismatches": res.mismatches, "metrics": rows,
		"wall": res.wall, "samples_ms": res.samples, "calib_ms": res.calib,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func failedFrac(res *result) float64 {
	if res.attempted == 0 {
		return 0
	}
	return float64(res.failed) / float64(res.attempted)
}

// printTable prints every metric by name and unit, for people.
func printTable(defs []metricDef, res *result) {
	for _, d := range defs {
		fmt.Printf("%-30s %16.6g %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	fmt.Printf("%-30s %16.6g %s (%d of %d operations)\n", "failed_frac", failedFrac(res), "ratio",
		res.failed, res.attempted)
	for _, d := range defs {
		if v, ok := res.wall[d.Name]; ok {
			fmt.Printf("%-30s %16.6g %s (raw wall time, not scaled by the calibration kernel)\n", "wall "+d.Name, v, d.Unit)
		}
	}
}

// setupRuns is how many fresh processes time the set-up; setup_s is
// their median.
const setupRuns = 11

// setupReport is what a set-up child prints.
type setupReport struct {
	Seconds float64 `json:"setup_s"` // scaled by the calibration kernel

	WallSeconds float64  `json:"wall_setup_s"`
	Hashes      []uint64 `json:"hashes"`
}

// runSetupChild times the workload's set-up in this (fresh) process and,
// for a calibrated workload, the calibration kernel right before it.
func runSetupChild(w *workload, seed int64) int {
	scale := 1.0
	if w.calibrated {
		k := newCalibrator(runtime.NumCPU())
		k.burst(3) // the first calls fault the matrices in
		scale = calibRefMs / k.burst(calibBurst)
	}
	d, hashes, err := w.setup(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
		return 1
	}
	b, _ := json.Marshal(setupReport{Seconds: d.Seconds() * scale, WallSeconds: d.Seconds(), Hashes: hashes})
	fmt.Println(string(b))
	return 0
}

// timeSetups times the set-up in n fresh processes, one after another.
func timeSetups(w *workload, seed int64, n int) ([]setupReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []setupReport
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var rep setupReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("set-up process output %q: %w", b, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// checkSetups reports setup_s, the median set-up time, and checks that
// each set-up process's first gradients hash to the ones this run checked.
func checkSetups(w *workload, reps []setupReport, res *result) {
	var secs, wall []float64
	for i, rep := range reps {
		res.attempted++
		if !equalHashes(rep.Hashes, res.setupHashes) {
			res.fail(fmt.Sprintf("set-up process %d: first gradients differ from the checked ones", i))
		}
		secs, wall = append(secs, rep.Seconds), append(wall, rep.WallSeconds)
	}
	res.metrics["setup_s"] = median(secs)
	if w.calibrated {
		res.wall["setup_s"] = median(wall)
	}
}

func equalHashes(a, b []uint64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// heapWatcher records the live heap each garbage collection finds while
// it runs.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MiB, one per collection
}

// watchHeap starts watching collections.
func watchHeap() *heapWatcher {
	h := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		// A collection takes longer than this and they are much further
		// apart, so each one is seen.
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// medianMiB stops watching and returns the median live heap over the
// collections seen, collecting once itself if none ran.
func (h *heapWatcher) medianMiB() float64 {
	close(h.stop)
	<-h.done
	if len(h.live) == 0 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	return median(h.live)
}

// allocBytes returns the bytes allocated on the heap since the process
// started (MemStats.TotalAlloc, read without stopping the world).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// parallel runs f(0..n-1) on at most procs goroutines.
func parallel(n, procs int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for g := 0; g < min(n, procs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// perOp divides a total by an operation count, 0 when there were none.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// fillSelfTimes reports each layer's mean self time per root operation
// over the spans of timed operations (req ≠ 0).
func fillSelfTimes(res *result, spans []span, ops int) {
	var timed []span
	for _, s := range spans {
		if s.Req != 0 {
			timed = append(timed, s)
		}
	}
	self := selfTimes(timed)
	for _, l := range selfLayers {
		res.metrics["self_ms."+l] = perOp(ms(self[l]), ops)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
