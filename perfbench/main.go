// Command perfbench is the repository's end-to-end benchmark. One run
// boots a whole deployment in-process — SDK → fixgate HTTP server →
// client-only edge node → worker nodes — drives one workload through it
// for a fixed, seed-generated list of ops, checks every answer, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same ops untraced and then traced, on fresh deployments, and
// reports the per-layer metrics, the isolated probes, and the tracing
// overhead. README.md in this directory describes the workloads and
// metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run boots and sets up; setup_s is
// their median.
const setupReps = 3

// clients bounds the load generator's goroutines and connections.
var clients = min(2, goruntime.NumCPU())

// watchdog bounds a whole run; a stuck run exits non-zero instead of
// outliving the driver's limit.
const watchdog = 170 * time.Second

func specByName(name string) spec {
	for _, s := range specs() {
		if s.name == name {
			return s
		}
	}
	return spec{}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-zipf | recursive | ingest-async | mapreduce")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed-phase length; fixes the op count")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	sp := specByName(*name)
	if sp.name == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	workDir := os.Getenv("PERFBENCH_WORKDIR")
	if workDir == "" {
		workDir = ".bench_build"
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{sp: sp, seed: *seed, n: sp.perSecond * *seconds, rounds: *seconds, workDir: workDir}
	var rep report
	var err error
	if *trace == 1 {
		rep, err = r.traced()
	} else {
		rep, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{"env": r.stamp(*trace == 1)})
	fmt.Println(string(env))
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
}

// runner runs one workload.
type runner struct {
	sp      spec
	seed    int64
	n       int
	rounds  int
	workDir string
	// For the environment stamp: the untraced timed phase, the span
	// file and the per-layer timings taken from the API probe.
	stamped   phase
	spansFile string
	probed    []string
}

// phase is one timed phase's measurements: the pooled outcome of every
// op, and per-round figures whose medians are reported.
type phase struct {
	outcome
	rounds   []round
	heapLive uint64
	// cpu and allocated are the process CPU time and the bytes allocated
	// over all rounds. Cost per op depends on the op's input (mapreduce
	// rounds ranged 500–840 KiB per op, in the same pattern on every run
	// of one seed), so the per-op costs pool every op rather than take a
	// median over rounds.
	cpu       time.Duration
	allocated uint64
}

// round is one contiguous slice of the ops, timed on its own.
type round struct {
	p50      time.Duration
	thr      float64 // correct ops per second
	cpuPerOp time.Duration
	allocPer float64 // bytes per op
}

// boot brings up a fresh deployment and runs the workload's set-up.
func (r *runner) boot(w workload, t *tracer) (*system, error) {
	cfg := r.sp.sys
	if p, ok := w.(placer); ok {
		cfg.place = p.place
	}
	s, err := boot(cfg, t, r.workDir)
	if err != nil {
		return nil, err
	}
	if err := w.setup(context.Background(), s, t); err != nil {
		s.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return s, nil
}

// timed runs the n ops once, as r.rounds rounds of consecutive ops:
// one round per second of --seconds, so a longer run gives the medians
// more rounds.
// release drops the inputs before the live heap is measured.
func (r *runner) timed(w workload, s *system, t *tracer, release bool) phase {
	ctx := context.Background()
	var all []sample
	var ph phase
	for k := 0; k < r.rounds; k++ {
		lo, hi := k*r.n/r.rounds, (k+1)*r.n/r.rounds
		op := func(ctx context.Context, i int) error { return w.op(ctx, s, t, lo+i) }
		// Every round starts from a collected heap, so the collector runs
		// at the same points of the op sequence in every run.
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		rs := time.Now()
		var samples []sample
		if r.sp.rate > 0 {
			arr := w.(*serveZipf).arrivals[lo:hi]
			samples = openLoop(ctx, arr, arr[0], r.sp.clients, r.sp.deadline, op)
		} else {
			samples = closedLoop(ctx, hi-lo, r.sp.clients, r.sp.deadline, op)
		}
		wall := time.Since(rs)
		cpu := cpuTime() - cpu0
		goruntime.ReadMemStats(&m1)
		o := summarize(samples)
		rd := round{
			p50:      percentile(o.lats, 50),
			thr:      float64(len(o.lats)) / wall.Seconds(),
			cpuPerOp: cpu / time.Duration(len(samples)),
			allocPer: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(samples)),
		}
		ph.rounds = append(ph.rounds, rd)
		ph.cpu += cpu
		ph.allocated += m1.TotalAlloc - m0.TotalAlloc
		all = append(all, samples...)
	}
	ph.outcome = summarize(all)
	for k, rd := range ph.rounds {
		fmt.Fprintf(os.Stderr, "perfbench: round %d: p50=%v %.1f ops/s cpu/op=%v alloc/op=%.1fKiB\n",
			k, rd.p50, rd.thr, rd.cpuPerOp, rd.allocPer/1024)
	}
	if release {
		w.release()
	}
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	ph.heapLive = m.HeapAlloc
	if ph.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed (%d wrong answers); first: %v\n",
			ph.failed, ph.attempted, ph.wrong, ph.firstErr)
	}
	return ph
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() (report, error) {
	w := r.sp.make()
	w.generate(r.seed, r.n)
	var setups []float64
	var s *system
	for k := 0; k < setupReps; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = r.boot(w, nil); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ph := r.timed(w, s, nil, true)
	s.close()
	r.stamped = ph
	m := endToEnd(ph)
	m["setup_s"] = metric{median(setups), "s"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d setups=%.3v\n", r.sp.name, r.seed, setups)
	return r.report(ph, m), nil
}

// endToEnd reports latency and throughput as the median over the
// phase's rounds, and the per-op costs over all its ops.
// The tail latency is not among them: across ten runs its spread swung
// with the host's load from under 0.1 to over 1 of its median, so it is
// reported without a bound (tail) instead.
func endToEnd(ph phase) map[string]metric {
	med := ph.medianOver
	return map[string]metric{
		"latency_p50_ms":  {med(func(rd round) float64 { return ms(rd.p50) }), "ms"},
		"throughput_ops":  {med(func(rd round) float64 { return rd.thr }), "ops/s"},
		"ok_ratio":        {float64(ph.attempted-ph.failed) / float64(ph.attempted), "ratio"},
		"cpu_ms_per_op":   {ms(ph.cpu) / float64(ph.attempted), "ms"},
		"alloc_kb_per_op": {float64(ph.allocated) / float64(ph.attempted) / 1024, "KiB"},
		"heap_live_mb":    {float64(ph.heapLive) / (1 << 20), "MiB"},
	}
}

// medianOver is the median of f over the phase's rounds.
func (ph phase) medianOver(f func(round) float64) float64 {
	v := make([]float64, len(ph.rounds))
	for i, rd := range ph.rounds {
		v[i] = f(rd)
	}
	return median(v)
}

// tail is the phase's tail latency over all its ops: the highest
// percentile of tailPercentile's ladder with at least ten samples beyond
// it, with that sample count.
func (ph phase) tail() (p float64, beyond int, d time.Duration) {
	p, beyond = tailPercentile(len(ph.lats))
	return p, beyond, percentile(ph.lats, p)
}

func (r *runner) report(ph phase, m map[string]metric) report {
	return report{Correct: ph.wrong == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}
}

// traced runs the ops untraced and then traced, each on a fresh
// deployment, and reports the per-layer metrics.
func (r *runner) traced() (report, error) {
	w := r.sp.make()
	w.generate(r.seed, r.n)
	s, err := r.boot(w, nil)
	if err != nil {
		return report{}, err
	}
	ref := r.timed(w, s, nil, false)
	s.close()
	r.stamped = ref
	refM := endToEnd(ref)

	t := newTracer()
	if s, err = r.boot(w, t); err != nil {
		return report{}, err
	}
	before := snap(s)
	t.reset()
	ph := r.timed(w, s, t, true)
	after := snap(s)
	m := layerMetrics(r, t, ph, before, after)
	spans := t.snapshot()
	// Timings of layers this workload's ops never call come from the
	// API probe, so that every per-layer timing is a measurement.
	t.reset()
	err = apiProbe(context.Background(), s, t, r.seed, r.n)
	s.close()
	if err != nil {
		return report{}, fmt.Errorf("api probe: %w", err)
	}
	for k, v := range timings(t) {
		if m[k].Value == 0 {
			m[k] = v
			r.probed = append(r.probed, k)
		}
	}
	sort.Strings(r.probed)
	trM := endToEnd(ph)
	m["trace.latency_overhead"] = metric{ratio(trM["latency_p50_ms"].Value, refM["latency_p50_ms"].Value) - 1, "ratio"}
	m["trace.cpu_overhead"] = metric{ratio(trM["cpu_ms_per_op"].Value, refM["cpu_ms_per_op"].Value) - 1, "ratio"}
	m["loadgen.late_p99_ms"] = metric{ms(percentile(ref.lates, 99)), "ms"}
	_, _, tail := ref.tail()
	m["e2e.latency_tail_ms"] = metric{ms(tail), "ms"}
	for k, v := range probes(r.seed) {
		m[k] = v
	}
	r.spansFile = filepath.Join(r.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.sp.name, r.seed))
	if err := writeSpans(r.spansFile, append(spans, t.snapshot()...)); err != nil {
		return report{}, err
	}
	rep := r.report(ph, m)
	rep.Attempted += ref.attempted
	rep.Failed += ref.failed
	rep.Correct = rep.Correct && ref.wrong == 0
	return rep, nil
}

// stamp describes the environment and run.
func (r *runner) stamp(traced bool) map[string]any {
	lateLimit := 50 * time.Millisecond
	late := percentile(r.stamped.lates, 99)
	tailP, beyond, tail := r.stamped.tail()
	env := map[string]any{
		"go":                  goruntime.Version(),
		"gomaxprocs":          goruntime.GOMAXPROCS(0),
		"nproc":               goruntime.NumCPU(),
		"cpu_model":           cpuModel(),
		"commit":              commit(),
		"source_sha256":       sourceDigest(),
		"workload":            r.sp.name,
		"seed":                r.seed,
		"ops":                 r.n,
		"clients":             r.sp.clients,
		"links":               r.sp.links,
		"traced":              traced,
		"rounds":              r.rounds,
		"latency_tail_ms":     ms(tail),
		"tail_percentile":     tailP,
		"tail_samples_beyond": beyond,
	}
	if r.sp.rate > 0 {
		// An open-loop generator that fell behind its schedule measured
		// a lower load than it claims: the run is marked invalid.
		env["rate_ops"] = r.sp.rate
		env["generator_late_p50_ms"] = ms(percentile(r.stamped.lates, 50))
		env["generator_late_p99_ms"] = ms(late)
		env["generator_late_max_ms"] = ms(percentile(r.stamped.lates, 100))
		env["valid"] = late <= lateLimit
		if late > lateLimit {
			fmt.Fprintf(os.Stderr, "perfbench: INVALID run: generator p99 lateness %v exceeds %v\n", late, lateLimit)
		}
	}
	if r.spansFile != "" {
		env["spans_file"] = r.spansFile
		env["probe_timings"] = r.probed
	}
	return env
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so runs from checkouts without VCS data still name the
// code they measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
