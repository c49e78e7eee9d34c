package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"time"

	replobj "github.com/replobj/replobj"
)

// workload is one named traffic mix: the replicated object's shape, the
// scheduler that runs it, and the operation generator its clients draw from.
type workload struct {
	name    string
	kind    replobj.SchedulerKind
	keys    int // key space of the store
	slot    int // bytes held per key
	stripes int // lock stripes (and, under ADETS-CC, conflict classes)
	preload bool
	// ckptEvery > 0 turns on checkpointing at that ordered-stream interval.
	ckptEvery int
	// classed attaches per-stripe conflict classes (ADETS-CC).
	classed bool
	// computeTouch and computeGlobal are the simulated service times of a
	// stripe op and a global op; globalPct is the share of global ops.
	computeTouch  time.Duration
	computeGlobal time.Duration
	globalPct     int
}

var workloads = map[string]workload{
	// Pure middleware path: tiny puts, no Compute, no checkpoints.
	"kv-tcp": {
		name: "kv-tcp", kind: replobj.ADSAT,
		keys: 1024, slot: 8, stripes: 16,
	},
	// Scheduler overlap: ADETS-CC lanes per session stripe, 5% barriers.
	"sessions-cc": {
		name: "sessions-cc", kind: replobj.CC,
		keys: 1024, slot: 8, stripes: 32, classed: true,
		computeTouch: time.Millisecond, computeGlobal: 2 * time.Millisecond, globalPct: 5,
	},
	// kv-tcp's path over a ~4 MiB preloaded image checkpointed every 128.
	"kv-checkpoint": {
		name: "kv-checkpoint", kind: replobj.ADSAT,
		keys: 32768, slot: 128, stripes: 16, preload: true, ckptEvery: 128,
	},
}

func workloadNames() []string { return []string{"kv-tcp", "sessions-cc", "kv-checkpoint"} }

// valueLen is the size of the value a put carries; it overwrites the head
// of the key's slot.
const valueLen = 8

// op is one generated invocation.
type op struct {
	method string
	args   []byte
}

// generator draws a client's operation sequence from the run seed; the same
// (seed, client) pair always yields the same sequence.
type generator struct {
	w   workload
	rng *rand.Rand
}

func newGenerator(w workload, seed uint64, client int) *generator {
	return &generator{w: w, rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
}

// setupOp is the put each client commits to end set-up. It carries no
// Compute on any workload, so set-up holds no simulated service time.
func (g *generator) setupOp() op {
	args := make([]byte, 4+valueLen)
	binary.BigEndian.PutUint32(args, uint32(g.rng.IntN(g.w.keys)))
	binary.BigEndian.PutUint64(args[4:], g.rng.Uint64())
	return op{method: "put", args: args}
}

func (g *generator) next() op {
	args := make([]byte, 4+valueLen)
	binary.BigEndian.PutUint64(args[4:], g.rng.Uint64())
	if g.w.globalPct > 0 && g.rng.IntN(100) < g.w.globalPct {
		return op{method: "global", args: args[4:]}
	}
	binary.BigEndian.PutUint32(args, uint32(g.rng.IntN(g.w.keys)))
	if g.w.computeTouch > 0 {
		return op{method: "touch", args: args}
	}
	return op{method: "put", args: args}
}

// store is the replicated object: a fixed key space of fixed-size slots
// under striped scheduler locks. Every field is only touched with the
// covering stripe lock held (all stripes for globals and whole-state reads).
type store struct {
	slot    int
	stripes int
	data    []byte   // keys*slot bytes
	counts  []uint64 // committed puts per stripe
	globals uint64   // committed global ops
	probe   *probe   // nil unless the run is traced
}

func newStore(w workload, seed uint64, p *probe) *store {
	s := &store{
		slot:    w.slot,
		stripes: w.stripes,
		data:    make([]byte, w.keys*w.slot),
		counts:  make([]uint64, w.stripes),
		probe:   p,
	}
	if w.preload {
		rng := rand.New(rand.NewPCG(seed, 0))
		for i := 0; i+8 <= len(s.data); i += 8 {
			binary.LittleEndian.PutUint64(s.data[i:], rng.Uint64())
		}
	}
	return s
}

func (s *store) put(key int, val []byte) {
	copy(s.data[key*s.slot:], val)
	s.counts[key%s.stripes]++
}

// digest hashes the whole state; committed is the number of mutating ops
// the state has applied.
func (s *store) digest() (sum uint64, committed uint64) {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range s.counts {
		binary.BigEndian.PutUint64(b[:], c)
		h.Write(b[:])
		committed += c
	}
	binary.BigEndian.PutUint64(b[:], s.globals)
	h.Write(b[:])
	h.Write(s.data)
	return h.Sum64(), committed + s.globals
}

// Snapshot implements replobj.Snapshotter: per-stripe counts, the global
// count, then the raw slots.
func (s *store) Snapshot() ([]byte, error) {
	t0 := time.Now()
	out := make([]byte, 0, 8*(len(s.counts)+1)+len(s.data))
	for _, c := range s.counts {
		out = binary.BigEndian.AppendUint64(out, c)
	}
	out = binary.BigEndian.AppendUint64(out, s.globals)
	out = append(out, s.data...)
	s.probe.snapshotDone(time.Since(t0))
	return out, nil
}

// Restore implements replobj.Snapshotter.
func (s *store) Restore(img []byte) error {
	head := 8 * (len(s.counts) + 1)
	if len(img) != head+len(s.data) {
		return fmt.Errorf("perfbench: snapshot of %d bytes, want %d", len(img), head+len(s.data))
	}
	for i := range s.counts {
		s.counts[i] = binary.BigEndian.Uint64(img[8*i:])
	}
	s.globals = binary.BigEndian.Uint64(img[head-8:])
	copy(s.data, img[head:])
	return nil
}

// classedStore declares one conflict class per stripe, so ADETS-CC runs
// ops on different stripes in parallel; ops without a key are global.
type classedStore struct {
	*store
	classes [][]string
}

func (c classedStore) ConflictClasses(method string, args []byte) []string {
	if method != "touch" || len(args) < 4 {
		return nil
	}
	return c.classes[int(binary.BigEndian.Uint32(args))%c.stripes]
}

func storeOf(inv *replobj.Invocation) *store {
	switch s := inv.State().(type) {
	case *store:
		return s
	case classedStore:
		return s.store
	}
	panic(fmt.Sprintf("perfbench: unexpected state %T", inv.State()))
}

// stripeNames returns the stripe mutex names s0..s(n-1).
func stripeNames(n int) []replobj.MutexID {
	out := make([]replobj.MutexID, n)
	for i := range out {
		out[i] = replobj.MutexID("s" + strconv.Itoa(i))
	}
	return out
}

// stateFactory builds each replica's private store.
func stateFactory(w workload, seed uint64, p *probe) func() any {
	return func() any {
		s := newStore(w, seed, p)
		if !w.classed {
			return s
		}
		cs := classedStore{store: s, classes: make([][]string, w.stripes)}
		for i := range cs.classes {
			cs.classes[i] = []string{"s" + strconv.Itoa(i)}
		}
		return cs
	}
}

// handlers registers the object's methods on g. divergent makes put's
// effect depend on the executing replica — a deliberately non-deterministic
// handler the correctness gate must catch.
func handlers(g *replobj.Group, w workload, p *probe, divergent bool) {
	mus := stripeNames(w.stripes)
	lock := func(inv *replobj.Invocation, m replobj.MutexID) error {
		if p == nil {
			return inv.Lock(m) // untraced runs skip the clock reads
		}
		t0 := time.Now()
		err := inv.Lock(m)
		p.lockDone(time.Since(t0))
		return err
	}
	lockAll := func(inv *replobj.Invocation) error {
		for i, m := range mus {
			if err := lock(inv, m); err != nil {
				for j := i - 1; j >= 0; j-- {
					_ = inv.Unlock(mus[j])
				}
				return err
			}
		}
		return nil
	}
	unlockAll := func(inv *replobj.Invocation) {
		for i := len(mus) - 1; i >= 0; i-- {
			_ = inv.Unlock(mus[i])
		}
	}
	put := func(inv *replobj.Invocation, compute time.Duration) ([]byte, error) {
		args := inv.Args()
		if len(args) != 4+valueLen {
			return nil, fmt.Errorf("put: %d-byte args", len(args))
		}
		key := int(binary.BigEndian.Uint32(args))
		if key >= w.keys {
			return nil, fmt.Errorf("put: key %d out of range", key)
		}
		m := mus[key%w.stripes]
		if err := lock(inv, m); err != nil {
			return nil, err
		}
		defer inv.Unlock(m)
		if compute > 0 {
			inv.Compute(compute)
		}
		val := args[4:]
		if divergent {
			self := inv.Replica()
			val = append([]byte{val[0] ^ self[len(self)-1]}, val[1:]...)
		}
		storeOf(inv).put(key, val)
		return nil, nil
	}
	g.Register("put", func(inv *replobj.Invocation) ([]byte, error) { return put(inv, 0) })
	g.Register("touch", func(inv *replobj.Invocation) ([]byte, error) { return put(inv, w.computeTouch) })
	g.Register("global", func(inv *replobj.Invocation) ([]byte, error) {
		if err := lockAll(inv); err != nil {
			return nil, err
		}
		defer unlockAll(inv)
		inv.Compute(w.computeGlobal)
		s := storeOf(inv)
		s.globals++
		copy(s.data, inv.Args())
		return nil, nil
	})
	g.Register("digest", func(inv *replobj.Invocation) ([]byte, error) {
		if err := lockAll(inv); err != nil {
			return nil, err
		}
		defer unlockAll(inv)
		sum, committed := storeOf(inv).digest()
		out := binary.BigEndian.AppendUint64(nil, sum)
		return binary.BigEndian.AppendUint64(out, committed), nil
	})
}
