package main

import (
	"bufio"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// The traced run observes every layer from outside the program: a timing
// wrapper around the runtime, a send interceptor around the network, timers
// around the calls the benchmark's own handlers and state make, and the
// spans and counters the program records behind WithSpans/WithMetrics.

// spanRing is the span ring capacity. A traced phase stops early once the
// ring is ringStopFill full, so no span is ever overwritten.
const (
	spanRing     = 1 << 20
	ringStopFill = spanRing * 3 / 4
	// wireSampleEvery keeps one outbound payload in this many for the wire
	// re-encoding measurement; maxWireSamples caps the kept set.
	wireSampleEvery = 16
	maxWireSamples  = 4096
)

type tracer struct {
	reg   *replobj.MetricsRegistry
	spans *replobj.SpanCollector
	probe *probe
	rt    *timedRuntime
	tap   *netTap
}

func newTracer() *tracer {
	return &tracer{
		reg:   replobj.NewMetricsRegistry(),
		spans: replobj.NewSpanCollector(spanRing),
		probe: &probe{},
		tap:   &netTap{},
	}
}

func (t *tracer) wrapRuntime(rt *vtime.RealRuntime) vtime.Runtime {
	t.rt = &timedRuntime{RealRuntime: rt}
	return t.rt
}

func (t *tracer) wrapNetwork(n transport.Network) transport.Network {
	return transport.NewWrappedNetwork(n, t.tap.intercept)
}

// reset zeroes every benchmark-side accumulator and the span ring, so the
// next phase starts from a clean window. Clients must be idle.
func (t *tracer) reset() {
	t.spans.Reset()
	t.probe.reset()
	t.rt.reset()
	t.tap.reset()
}

// timedRuntime wraps the real runtime's global monitor lock: it counts
// acquisitions and the time spent waiting for them, parks and timers.
// Park reacquires the lock inside the wrapped runtime; that reacquisition
// is counted as an acquire but its wait is not timed.
type timedRuntime struct {
	*vtime.RealRuntime
	locks, waitNs, parks, timers atomic.Int64
}

var _ vtime.Runtime = (*timedRuntime)(nil)

func (r *timedRuntime) Lock() {
	t0 := time.Now()
	r.RealRuntime.Lock()
	r.waitNs.Add(int64(time.Since(t0)))
	r.locks.Add(1)
}

func (r *timedRuntime) Park(p *vtime.Parker) {
	r.parks.Add(1)
	r.locks.Add(1)
	r.RealRuntime.Park(p)
}

func (r *timedRuntime) ParkTimeout(p *vtime.Parker, d time.Duration) bool {
	r.parks.Add(1)
	r.locks.Add(1)
	return r.RealRuntime.ParkTimeout(p, d)
}

func (r *timedRuntime) After(d time.Duration, name string, fn func()) *vtime.Timer {
	r.timers.Add(1)
	return r.RealRuntime.After(d, name, fn)
}

func (r *timedRuntime) AfterLocked(d time.Duration, name string, fn func()) *vtime.Timer {
	r.timers.Add(1)
	return r.RealRuntime.AfterLocked(d, name, fn)
}

func (r *timedRuntime) reset() {
	r.locks.Store(0)
	r.waitNs.Store(0)
	r.parks.Store(0)
	r.timers.Store(0)
}

// netTap times every Send through the transport and keeps a sample of the
// payloads for the wire measurement.
type netTap struct {
	mu      sync.Mutex
	sends   []time.Duration
	n       int
	samples []wire.Message
}

func (n *netTap) intercept(from, to wire.NodeID, payload any, forward func()) bool {
	t0 := time.Now()
	forward()
	d := time.Since(t0)
	n.mu.Lock()
	n.sends = append(n.sends, d)
	n.n++
	if n.n%wireSampleEvery == 0 && len(n.samples) < maxWireSamples {
		n.samples = append(n.samples, wire.Message{From: from, To: to, Payload: payload})
	}
	n.mu.Unlock()
	return true
}

func (n *netTap) reset() {
	n.mu.Lock()
	n.sends, n.n, n.samples = nil, 0, nil
	n.mu.Unlock()
}

// probe times the calls the benchmark's own handlers and state make into
// the scheduler (inv.Lock) and the checkpoint path (Snapshot). All methods
// are no-ops on a nil probe, which untraced runs use.
type probe struct {
	mu        sync.Mutex
	lockWaits []time.Duration
	snaps     []time.Duration
}

func (p *probe) lockDone(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.lockWaits = append(p.lockWaits, d)
	p.mu.Unlock()
}

func (p *probe) snapshotDone(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snaps = append(p.snaps, d)
	p.mu.Unlock()
}

func (p *probe) reset() {
	p.mu.Lock()
	p.lockWaits, p.snaps = nil, nil
	p.mu.Unlock()
}

// families sums a Prometheus text rendering by metric family (labels
// dropped), which is how the registry's per-node series are aggregated.
func families(reg *replobj.MetricsRegistry) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(reg.Render()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		// Exemplar suffixes ("... # {trace_id=...} v") follow the value.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
			sp = strings.LastIndexByte(line, ' ')
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}
