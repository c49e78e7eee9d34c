package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

const (
	group    = "bench"
	replicas = 3
	nClients = 2 // one closed-loop stub per core of the reference host
)

// deployment is one running cluster: three replicas and the load clients in
// this process, talking over loopback TCP.
type deployment struct {
	rt      *vtime.RealRuntime
	cluster *replobj.Cluster
	clients []*replobj.Client
	gens    []*generator
	// attempted and acked count every load invocation issued against this
	// deployment (set-up, warm-up and measured phases), the bounds the
	// correctness gate checks the replicas' committed total against.
	attempted, acked int
}

// deploy builds the cluster and returns once every client holds one
// committed reply. With tr non-nil the runtime, network, registry, span
// ring and handlers are instrumented.
func deploy(w workload, seed uint64, tr *tracer, divergent bool) (*deployment, error) {
	clock := vtime.Real()
	var rt vtime.Runtime = clock
	if tr != nil {
		rt = tr.wrapRuntime(clock)
	}
	addrs := map[wire.NodeID]string{wire.ClientID("gate"): "127.0.0.1:0"}
	for i := 0; i < replicas; i++ {
		addrs[wire.ReplicaID(group, i)] = "127.0.0.1:0"
	}
	for i := 0; i < nClients; i++ {
		addrs[wire.ClientID(clientName(i))] = "127.0.0.1:0"
	}
	var net transport.Network = transport.NewTCP(rt, addrs)
	var copts []replobj.ClusterOption
	var p *probe
	if tr != nil {
		net = tr.wrapNetwork(net)
		copts = append(copts, replobj.WithMetrics(tr.reg), replobj.WithSpans(tr.spans))
		p = tr.probe
	}
	copts = append(copts, replobj.WithNetwork(net))
	c := replobj.NewCluster(rt, copts...)
	gopts := []replobj.GroupOption{
		replobj.WithScheduler(w.kind),
		replobj.WithState(stateFactory(w, seed, p)),
	}
	if w.ckptEvery > 0 {
		gopts = append(gopts, replobj.WithCheckpointEvery(w.ckptEvery))
	}
	g, err := c.NewGroup(group, replicas, gopts...)
	if err != nil {
		return nil, fmt.Errorf("new group: %w", err)
	}
	handlers(g, w, p, divergent)
	g.Start()
	d := &deployment{rt: clock, cluster: c}
	for i := 0; i < nClients; i++ {
		d.clients = append(d.clients, c.NewClient(clientName(i)))
		d.gens = append(d.gens, newGenerator(w, seed, i))
	}
	// Every client's first committed reply ends set-up.
	if _, err := d.run(0, 0, nil); err != nil {
		d.close()
		return nil, fmt.Errorf("first invocation: %w", err)
	}
	return d, nil
}

func clientName(i int) string { return fmt.Sprintf("c%d", i) }

func (d *deployment) close() {
	d.cluster.Close()
	d.rt.Stop()
}

// phase is what one closed-loop phase observed.
type phase struct {
	elapsed   time.Duration
	attempted int
	acked     int
	failed    int
	lat       []time.Duration // one per acked invocation
	done      []time.Duration // completion offsets from the phase start, as lat
	firstErr  error
	// cpu holds the process CPU time at the phase start and at each of the
	// phase's window boundaries.
	cpu []time.Duration
}

// run drives every client in a closed loop until dur has passed (dur == 0:
// exactly one set-up put each) or until stop reports true. An invocation
// started before the deadline is waited for and counted. With windows > 0
// it also samples the process CPU time at that many equal boundaries.
func (d *deployment) run(dur time.Duration, windows int, stop func() bool) (*phase, error) {
	var wg sync.WaitGroup
	results := make([]phase, len(d.clients))
	start := time.Now()
	deadline := start.Add(dur)
	var cpu []time.Duration
	if windows > 0 {
		cpu = append(cpu, cpuTime())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= windows; k++ {
				time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(windows))))
				cpu = append(cpu, cpuTime())
			}
		}()
	}
	for i := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			cl, gen := d.clients[i], d.gens[i]
			for {
				o := gen.next()
				if dur == 0 {
					o = gen.setupOp()
				}
				t0 := time.Now()
				_, err := cl.Invoke(group, o.method, o.args)
				t1 := time.Now()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.acked++
					res.lat = append(res.lat, t1.Sub(t0))
					res.done = append(res.done, t1.Sub(start))
				}
				if dur == 0 || !t1.Before(deadline) || (stop != nil && stop()) {
					return
				}
			}
		}()
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start), cpu: cpu}
	for _, r := range results {
		out.attempted += r.attempted
		out.acked += r.acked
		out.failed += r.failed
		out.lat = append(out.lat, r.lat...)
		out.done = append(out.done, r.done...)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	d.attempted += out.attempted
	d.acked += out.acked
	if dur == 0 && out.failed > 0 {
		return out, out.firstErr
	}
	return out, nil
}

var errGate = errors.New("correctness gate failed")

// gate reads every replica's state digest with the All reply policy and
// checks that the replicas agree and that their committed-op total lies in
// [acked, attempted] of everything this deployment issued.
func (d *deployment) gate() error {
	cl := d.cluster.NewClient("gate", replobj.WithReplyPolicy(replobj.All),
		replobj.WithInvocationTimeout(60*time.Second))
	replies, err := cl.InvokeAll(group, "digest", nil)
	if err != nil {
		return fmt.Errorf("%w: digest read: %v", errGate, err)
	}
	if len(replies) != replicas {
		return fmt.Errorf("%w: %d of %d replicas answered", errGate, len(replies), replicas)
	}
	var first []byte
	var firstNode wire.NodeID
	for node, rep := range replies {
		if rep.Err != "" {
			return fmt.Errorf("%w: %s: %s", errGate, node, rep.Err)
		}
		if len(rep.Result) != 16 {
			return fmt.Errorf("%w: %s: %d-byte digest", errGate, node, len(rep.Result))
		}
		if first == nil {
			first, firstNode = rep.Result, node
			continue
		}
		if string(rep.Result) != string(first) {
			return fmt.Errorf("%w: state digests differ: %s=%x %s=%x",
				errGate, firstNode, first[:8], node, rep.Result[:8])
		}
	}
	committed := binary.BigEndian.Uint64(first[8:])
	if committed < uint64(d.acked) || committed > uint64(d.attempted) {
		return fmt.Errorf("%w: replicas committed %d ops, clients saw %d acked of %d attempted",
			errGate, committed, d.acked, d.attempted)
	}
	return nil
}
