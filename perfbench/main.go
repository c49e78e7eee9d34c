// Command perfbench is the repository's wall-clock benchmark: it runs a
// named workload against three replicas and two closed-loop clients in one
// process over loopback TCP on the real clock, checks that the replicas
// agree, and prints every metric by name with its unit. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// After the measured phase a run builds the cluster at least
// setupMinRounds times and keeps building until setupSpan has passed (at
// most setupMaxRounds builds). setup_s is the median process CPU time
// (user+sys) one build takes, which counts every piece of work moved into
// set-up. Its wall time is kept as a diagnostic: on the reference host,
// time stolen by the hypervisor moved the wall-time median by 27-29%
// between two sets of ten runs while CPU per op moved 4-5%. Host noise on
// a build of a millisecond or two comes in bursts of tens of milliseconds,
// so spreading the builds over a longer span steadies the median more than
// adding builds back to back. The builds come after the measured phase
// because hundreds of torn-down clusters raised the CPU per op of the next
// measured phase for ten seconds or more.
const (
	setupMinRounds = 41
	setupMaxRounds = 1001
	setupSpan      = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record written next to the build outputs.
type report struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Provenance map[string]any `json:"provenance"`
	Samples    map[string]int `json:"samples"`
	// Windows holds the per-window values behind each windowed median.
	Windows map[string][]float64 `json:"windows,omitempty"`
	// Diagnostics are figures kept for readers but not printed as metrics.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Result      result             `json:"result"`
	Artifacts   map[string]string  `json:"artifacts,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated keys and operation mix")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for reports, profiles and Chrome traces")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	rep := &report{
		Workload:    w.name,
		Trace:       *traced == 1,
		Provenance:  provenance(*seed),
		Samples:     map[string]int{},
		Diagnostics: map[string]float64{},
		Artifacts:   map[string]string{},
	}
	dur := time.Duration(*seconds) * time.Second
	var err error
	if rep.Trace {
		err = runTraced(w, *seed, dur, *out, rep)
	} else {
		err = runUntraced(w, *seed, dur, rep)
	}
	if err != nil {
		fail(err)
	}
	for name, m := range rep.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	rep.Result.Correct = true
	path := filepath.Join(*out, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *traced))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(fmt.Errorf("encode report: %w", err))
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fail(err)
	}
	prov, _ := json.Marshal(rep.Provenance)
	samples, _ := json.Marshal(rep.Samples)
	diag, _ := json.Marshal(rep.Diagnostics)
	fmt.Printf("# provenance %s\n# samples %s\n# diagnostics %s\n# report %s\n", prov, samples, diag, path)
	line, _ := json.Marshal(rep.Result)
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// warmup is the excluded phase before measurement: a fifth of the measured
// length, between one and five seconds.
func warmup(d time.Duration) time.Duration {
	return min(max(d/5, time.Second), 5*time.Second)
}

// setupBuilds is what setupMedian measured: the medians of one build's
// process CPU time and wall time, in seconds, and the number of builds.
type setupBuilds struct {
	cpu, wall float64
	n         int
}

// setupMedian builds and tears down the cluster repeatedly (see setupSpan).
func setupMedian(w workload, seed uint64) (setupBuilds, error) {
	var cpu, wall []float64
	start := time.Now()
	for i := 0; i < setupMaxRounds && (i < setupMinRounds || time.Since(start) < setupSpan); i++ {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		d, err := deploy(w, seed, nil, false)
		if err != nil {
			return setupBuilds{}, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		d.close()
	}
	return setupBuilds{cpu: median(cpu), wall: median(wall), n: len(cpu)}, nil
}

func runUntraced(w workload, seed uint64, dur time.Duration, rep *report) error {
	windows := max(int(dur/window), 1)
	ph, err := measure(w, seed, dur, windows)
	if err != nil {
		return err
	}
	rss := maxRSSMiB()
	debug.FreeOSMemory() // every set-up build starts from the same small heap
	setup, err := setupMedian(w, seed)
	if err != nil {
		return err
	}
	ws := windowStats(ph, dur, windows)
	rep.Windows = map[string][]float64{
		"ops_per_s": ws.opsPerS, "latency_p50_ms": ws.p50, "latency_p99_ms": ws.p99, "cpu_us_per_op": ws.cpuPerOp,
	}
	// p99 is reported but not gated: its run-to-run spread on the reference
	// host exceeds the largest bound a gated metric may have (README.md).
	rep.Diagnostics["latency_p99_ms"] = median(ws.p99)
	rep.Diagnostics["setup_wall_s"] = setup.wall
	rep.Samples["latency"] = len(ph.lat)
	rep.Samples["latency_per_window_min"] = ws.minSamples
	rep.Samples["windows"] = windows
	rep.Samples["setup"] = setup.n
	rep.Result.Attempted, rep.Result.Failed = ph.attempted, ph.failed
	rep.Result.Metrics = map[string]metric{
		"ops_per_s":      {median(ws.opsPerS), "1/s"},
		"latency_p50_ms": {median(ws.p50), "ms"},
		"cpu_us_per_op":  {median(ws.cpuPerOp), "us"},
		"max_rss_mb":     {rss, "MiB"},
		"committed_frac": {float64(ph.acked) / float64(ph.attempted), "ratio"},
		"setup_s":        {setup.cpu, "s"},
	}
	return nil
}

// measure deploys the cluster, runs the warm-up and the measured phase,
// checks the correctness gate and tears the cluster down.
func measure(w workload, seed uint64, dur time.Duration, windows int) (*phase, error) {
	d, err := deploy(w, seed, nil, false)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if _, err := d.run(warmup(dur), 0, nil); err != nil {
		return nil, err
	}
	ph, err := d.run(dur, windows, nil)
	if err != nil {
		return nil, err
	}
	if err := d.gate(); err != nil {
		return nil, err
	}
	if ph.acked == 0 {
		return nil, fmt.Errorf("no invocation committed in the measured phase: %v", ph.firstErr)
	}
	return ph, nil
}

// window is the longest slice the measured phase is cut into. Each
// end-to-end rate and percentile is the median of its per-window values,
// so interference from outside the process that lasts a few seconds moves
// a few windows, not the reported figure. Two seconds hold well over a
// thousand replies on every workload, so a window's p99 has at least ten
// samples beyond it.
const window = 2 * time.Second

type windowed struct {
	opsPerS, p50, p99, cpuPerOp []float64
	minSamples                  int
}

// windowStats assigns every acked invocation to the window its reply
// arrived in and computes each window's throughput, latency percentiles
// and CPU per op. Invocations completing after the last boundary count
// only toward the totals.
func windowStats(ph *phase, dur time.Duration, windows int) windowed {
	win := dur / time.Duration(windows)
	lat := make([][]time.Duration, windows)
	for i, t := range ph.done {
		if k := int(t / win); k < windows {
			lat[k] = append(lat[k], ph.lat[i])
		}
	}
	ws := windowed{minSamples: len(ph.lat)}
	for k := range lat {
		n := len(lat[k])
		if n == 0 {
			continue
		}
		v := sortedMs(lat[k])
		ws.minSamples = min(ws.minSamples, n)
		ws.opsPerS = append(ws.opsPerS, float64(n)/win.Seconds())
		ws.p50 = append(ws.p50, quantile(v, 0.50))
		ws.p99 = append(ws.p99, quantile(v, 0.99))
		ws.cpuPerOp = append(ws.cpuPerOp, float64(ph.cpu[k+1]-ph.cpu[k])/1e3/float64(n))
	}
	return ws
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sortedUs(ds []time.Duration) []float64 {
	out := sortedMs(ds)
	for i := range out {
		out[i] *= 1e3
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance records what produced a run: the seed, the host's parallelism,
// the toolchain and the source revision (a git commit when the tree is a
// repository, always a digest of the Go sources).
func provenance(seed uint64) map[string]any {
	rev := "unavailable"
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Only a repository rooted here counts; never search parent directories.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if b, err := git.Output(); err == nil {
		rev = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"seed":          seed,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"git_revision":  rev,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// hidden directories) in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))
}
