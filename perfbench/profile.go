package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers lists the layers CPU samples are attributed to, in report
// order; "proc.runtime" takes samples with no frame in any of them.
var cpuLayers = []string{"vtime", "transport", "wire", "gcs", "adets", "replica", "app", "client", "obs", "trace"}

const modPrefix = "github.com/replobj/replobj"

// layerOf maps one symbolized frame to its layer, or "" when the frame
// belongs to none (runtime, standard library, packages outside the list).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		switch {
		case strings.HasPrefix(fn, "main.handlers."),
			strings.HasPrefix(fn, "main.(*store)."),
			strings.HasPrefix(fn, "main.classedStore."),
			strings.HasPrefix(fn, "main.storeOf"):
			return "app"
		case strings.HasPrefix(fn, "main.(*timedRuntime)."),
			strings.HasPrefix(fn, "main.(*netTap)."),
			strings.HasPrefix(fn, "main.(*probe)."):
			return "trace"
		}
		return "client" // the closed-loop load generator around the client stubs
	}
	rest, ok := strings.CutPrefix(fn, modPrefix)
	if !ok {
		return ""
	}
	if strings.HasPrefix(rest, ".") {
		return "client" // root package: cluster and client glue
	}
	rest, ok = strings.CutPrefix(rest, "/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	switch pkg {
	case "vtime", "transport", "wire", "gcs", "adets", "replica", "client", "obs":
		return pkg
	case "shard", "spec":
		return "replica"
	}
	return ""
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and attributes
// each sample to the layer of its innermost frame that has one. It returns
// each layer's share of all sampled CPU time in percent, keyed by layer
// plus "proc.runtime" for samples without a layer frame.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	var cur time.Duration
	inSample, attributed := false, false
	flush := func() {
		if inSample && !attributed {
			byLayer["proc.runtime"] += cur
		}
		inSample, attributed = false, false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inSample {
			// First line of a sample: its value, then the innermost frame.
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // header lines
			}
			inSample, cur = true, d
			total += d
			frame = fields[1]
		}
		if attributed {
			continue
		}
		if l := layerOf(frame); l != "" {
			byLayer[l] += cur
			attributed = true
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof traces: %w", err)
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s holds no samples", path)
	}
	pct := make(map[string]float64, len(byLayer))
	for l, d := range byLayer {
		pct[l] = 100 * float64(d) / float64(total)
	}
	return pct, nil
}
