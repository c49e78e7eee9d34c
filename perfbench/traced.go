package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// evidenceWindow is the traced slice written as the Chrome trace.
const evidenceWindow = 300 * time.Millisecond

// runTraced measures the per-layer metrics. An untraced deployment first
// runs for the reference throughput and the allocation and GC rates; a
// traced deployment then runs under a CPU profile with every wrapper, span
// and counter on. Each pass measures half of dur, so a traced run takes
// about as long as an untraced one plus one warm-up.
func runTraced(w workload, seed uint64, dur time.Duration, outDir string, rep *report) error {
	m := map[string]metric{}
	rep.Result.Metrics = m
	pass := dur / 2

	// Untraced reference.
	d, err := deploy(w, seed, nil, false)
	if err != nil {
		return err
	}
	if _, err := d.run(warmup(dur), 0, nil); err != nil {
		d.close()
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref, err := d.run(pass, 0, nil)
	runtime.ReadMemStats(&ms1)
	if err == nil {
		err = d.gate()
	}
	d.close()
	if err != nil {
		return err
	}
	if ref.acked == 0 {
		return fmt.Errorf("no invocation committed in the reference phase: %v", ref.firstErr)
	}
	refOps := float64(ref.acked) / ref.elapsed.Seconds()
	m["proc.allocs_per_op"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(ref.acked), "count"}
	m["proc.gc_per_kop"] = metric{float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(ref.acked), "count"}
	runtime.GC()

	// Traced run.
	tr := newTracer()
	d, err = deploy(w, seed, tr, false)
	if err != nil {
		return err
	}
	defer d.close()
	if _, err := d.run(warmup(dur), 0, nil); err != nil {
		return err
	}
	tr.spans.Reset()
	if _, err := d.run(evidenceWindow, 0, nil); err != nil {
		return err
	}
	chrome := filepath.Join(outDir, fmt.Sprintf("chrome-%s-seed%d.json", w.name, seed))
	if err := writeChromeTrace(tr, chrome); err != nil {
		return err
	}
	rep.Artifacts["chrome_trace"] = chrome

	tr.reset()
	before := families(tr.reg)
	profPath := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return fmt.Errorf("start cpu profile: %w", err)
	}
	ph, err := d.run(pass, 0, func() bool { return tr.spans.Len() >= ringStopFill })
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write cpu profile: %w", cerr)
	}
	if err != nil {
		return err
	}
	rep.Artifacts["cpu_profile"] = profPath
	after := families(tr.reg)
	if n := tr.spans.Dropped(); n != 0 {
		return fmt.Errorf("span ring dropped %d spans; enlarge spanRing", n)
	}
	if err := d.gate(); err != nil {
		return err
	}
	if ph.acked == 0 {
		return fmt.Errorf("no invocation committed in the traced phase: %v", ph.firstErr)
	}
	rep.Result.Attempted, rep.Result.Failed = ph.attempted, ph.failed
	ops := float64(ph.acked)
	tracedOps := ops / ph.elapsed.Seconds()
	m["trace.overhead_pct"] = metric{100 * (refOps - tracedOps) / refOps, "%"}
	rep.Samples["reference_ops"] = ref.acked
	rep.Samples["traced_ops"] = ph.acked

	// vtime: the global monitor lock.
	m["vtime.lock_acquires_per_op"] = metric{float64(tr.rt.locks.Load()) / ops, "count"}
	m["vtime.lock_wait_us_per_op"] = metric{float64(tr.rt.waitNs.Load()) / 1e3 / ops, "us"}
	m["vtime.parks_per_op"] = metric{float64(tr.rt.parks.Load()) / ops, "count"}
	m["vtime.timers_per_op"] = metric{float64(tr.rt.timers.Load()) / ops, "count"}

	// Spans by stage.
	stages := map[string][]time.Duration{}
	for _, sp := range tr.spans.Snapshot() {
		stages[sp.Name] = append(stages[sp.Name], sp.Dur)
	}
	usQ := func(stage string, q float64) float64 {
		v := sortedUs(stages[stage])
		rep.Samples["span."+stage] = len(v)
		return quantile(v, q)
	}
	delta := func(fam string) float64 { return after[fam] - before[fam] }

	// transport
	tr.tap.mu.Lock()
	sends := sortedUs(tr.tap.sends)
	samples := tr.tap.samples
	tr.tap.mu.Unlock()
	rep.Samples["transport.send"] = len(sends)
	m["transport.msgs_per_op"] = metric{delta("replobj_transport_msgs_sent_total") / ops, "count"}
	m["transport.bytes_per_op"] = metric{delta("replobj_transport_bytes_sent_total") / ops, "B"}
	m["transport.send_us_p50"] = metric{quantile(sends, 0.5), "us"}
	m["transport.xport_us_p99"] = metric{usQ("xport", 0.99), "us"}

	// wire
	enc, dec, err := wireCost(samples)
	if err != nil {
		return err
	}
	rep.Samples["wire.messages"] = len(samples)
	m["wire.encode_ns_per_msg"] = metric{enc, "ns"}
	m["wire.decode_ns_per_msg"] = metric{dec, "ns"}

	// gcs: rounds are multi-submit batches plus single-submit rounds.
	delivered := delta("replobj_gcs_delivered_total") / replicas
	batches := delta("replobj_gcs_batches_total")
	batched := delta("replobj_gcs_batched_submits_total")
	perBatch := 0.0
	if rounds := batches + max(delivered-batched, 0); rounds > 0 {
		perBatch = delivered / rounds
	}
	m["gcs.order_us_p50"] = metric{usQ("order", 0.5), "us"}
	m["gcs.order_us_p99"] = metric{usQ("order", 0.99), "us"}
	m["gcs.submits_per_batch"] = metric{perBatch, "count"}
	m["gcs.log_len_end"] = metric{after["replobj_gcs_log_length"] / replicas, "count"}

	// adets: the handlers' own inv.Lock calls, the scheduler queue wait.
	tr.probe.mu.Lock()
	lockWaits := sortedUs(tr.probe.lockWaits)
	snaps := sortedMs(tr.probe.snaps)
	tr.probe.mu.Unlock()
	rep.Samples["adets.lock"] = len(lockWaits)
	m["adets.lock_wait_us_p50"] = metric{quantile(lockWaits, 0.5), "us"}
	m["adets.lock_wait_us_p99"] = metric{quantile(lockWaits, 0.99), "us"}
	m["adets.sched_wait_us_p99"] = metric{usQ("sched.wait", 0.99), "us"}
	m["adets.lane_fences_per_kop"] = metric{delta("replobj_sched_lane_fences_total") * 1000 / ops, "count"}
	m["adets.lane_assigns_per_op"] = metric{delta("replobj_sched_lane_assigns_total") / replicas / ops, "count"}

	// replica and app: checkpoint cost as shares of time, so a workload
	// without checkpoints reads 0 % rather than a constant 0 ms. The mean
	// durations go to the report's diagnostics.
	taken := delta("replobj_replica_checkpoints_total")
	boundaries := taken + delta("replobj_replica_checkpoints_skipped_total")
	ckptSec := delta("replobj_replica_checkpoint_seconds_sum")
	appSec := sum(snaps) / 1e3
	busy := 100 * ckptSec / (replicas * ph.elapsed.Seconds())
	takenFrac, appShare := 0.0, 0.0
	if boundaries > 0 {
		takenFrac = taken / boundaries
	}
	if ckptSec > 0 {
		appShare = 100 * appSec / ckptSec
		rep.Diagnostics["replica.ckpt_ms_mean"] = 1000 * ckptSec / delta("replobj_replica_checkpoint_seconds_count")
		rep.Diagnostics["app.snapshot_ms_mean"] = mean(snaps)
	}
	rep.Samples["replica.checkpoints"] = int(taken)
	rep.Samples["app.snapshots"] = len(snaps)
	m["replica.ckpt_busy_pct"] = metric{busy, "%"}
	m["replica.ckpt_taken_frac"] = metric{takenFrac, "ratio"}
	m["replica.snapshot_mb"] = metric{after["replobj_replica_snapshot_bytes"] / replicas / (1 << 20), "MiB"}
	m["app.snapshot_ckpt_pct"] = metric{appShare, "%"}

	// client
	m["client.invoke_us_p50"] = metric{usQ("rtt", 0.5), "us"}
	m["client.invoke_us_p99"] = metric{usQ("rtt", 0.99), "us"}

	// CPU attribution from the profile of the traced phase.
	shares, err := foldProfile(profPath)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m[l+".cpu_pct"] = metric{shares[l], "%"}
	}
	m["proc.runtime_cpu_pct"] = metric{shares["proc.runtime"], "%"}
	return nil
}

func writeChromeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return f.Close()
}

// wireCost re-encodes the sampled payloads with the wire codec and decodes
// them back, returning the mean cost per message of each direction.
func wireCost(msgs []wire.Message) (encNs, decNs float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, fmt.Errorf("no transport payload sampled")
	}
	const rounds = 20
	frames := make([][]byte, len(msgs))
	for i := range msgs {
		if frames[i], err = wire.AppendMessage(nil, &msgs[i]); err != nil {
			return 0, 0, fmt.Errorf("encode sampled %T: %w", msgs[i].Payload, err)
		}
	}
	buf := make([]byte, 0, 64<<10)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range msgs {
			buf, _ = wire.AppendMessage(buf[:0], &msgs[i])
		}
	}
	encNs = float64(time.Since(t0)) / float64(rounds*len(msgs))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if _, _, _, err := wire.ConsumeMessage(f); err != nil {
				return 0, 0, fmt.Errorf("decode sampled frame: %w", err)
			}
		}
	}
	decNs = float64(time.Since(t0)) / float64(rounds*len(msgs))
	return encNs, decNs, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}
