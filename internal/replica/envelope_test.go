package replica

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// envelopeCases covers every shape an envelope field can take. want, when
// set, is the decoded form where it differs from the input: nil and empty
// byte slices encode identically and decode as nil.
func envelopeCases() []struct {
	name string
	in   snapshotEnvelope
	want *snapshotEnvelope
} {
	id := func(n int) wire.InvocationID {
		return wire.InvocationID{Logical: wire.LogicalID("client/c" + strconv.Itoa(n)), Seq: uint64(n)}
	}
	done := func(n int, rep Reply) seenEntry {
		rep.ID = id(n)
		return seenEntry{ID: id(n), SeenAt: uint64(10 + n), Done: true, Reply: rep}
	}
	streams := map[string]obs.StreamState{
		"order":       {Count: 42, Digest: 0xcbf29ce484222325},
		"mutex/state": {Count: 7, Digest: 1},
		"lane/0":      {Count: 0, Digest: 0},
	}
	return []struct {
		name string
		in   snapshotEnvelope
		want *snapshotEnvelope
	}{
		{name: "empty", in: snapshotEnvelope{Streams: map[string]obs.StreamState{}}},
		{name: "state only", in: snapshotEnvelope{Seq: 128, State: []byte("image"), Streams: streams}},
		{name: "not done", in: snapshotEnvelope{Seq: 3, Streams: streams, Entries: []seenEntry{
			{ID: id(1), SeenAt: 2},
			{ID: id(2), SeenAt: 3, Key: "acct-4"},
		}}},
		{name: "done", in: snapshotEnvelope{Seq: 9, Streams: streams, Entries: []seenEntry{
			done(1, Reply{From: "g/0", Result: []byte{0, 0, 0, 5}}),
			done(2, Reply{From: "g/1", Err: "app error"}),
		}}},
		{name: "nil and empty result",
			in: snapshotEnvelope{Streams: streams, Entries: []seenEntry{
				done(1, Reply{From: "g/0", Result: nil}),
				done(2, Reply{From: "g/0", Result: []byte{}}),
			}},
			want: &snapshotEnvelope{Streams: streams, Entries: []seenEntry{
				done(1, Reply{From: "g/0"}),
				done(2, Reply{From: "g/0"}),
			}}},
		{name: "traced and shard-epoch replies", in: snapshotEnvelope{Seq: 77, Streams: streams, Entries: []seenEntry{
			done(1, Reply{From: "g/0", Result: []byte("r"), Trace: tracing.Context{TraceID: 1 << 40, Span: 3}}),
			done(2, Reply{From: "g/2", ShardEpoch: 4}),
			done(3, Reply{From: "g/2", ShardEpoch: 4, Trace: tracing.Context{TraceID: 9, Span: 1<<64 - 1}}),
		}}},
		{name: "sched and shard present", in: snapshotEnvelope{
			Seq: 1 << 33, Streams: streams, State: []byte{1},
			Sched: []byte("sched-state"), Shard: []byte("shard-table"),
		}},
		{name: "sched and shard empty",
			in:   snapshotEnvelope{Seq: 5, Streams: streams, Sched: []byte{}, Shard: []byte{}},
			want: &snapshotEnvelope{Seq: 5, Streams: streams}},
		{name: "gob fallback", in: snapshotEnvelope{Seq: 16, UsedGob: true, Streams: streams,
			State: []byte{0x0d, 0xff, 0x81, 0x03}}},
	}
}

// TestSnapshotEnvelopeRoundTrip: decode inverts encode, and decoding then
// re-encoding reproduces the input bytes (the encoding is canonical).
func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	for _, tc := range envelopeCases() {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.in.encode()
			if len(data) != cap(data) {
				t.Errorf("envelope len %d != cap %d, want one exact-capacity allocation", len(data), cap(data))
			}
			got, err := decodeEnvelope(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := &tc.in
			if tc.want != nil {
				want = tc.want
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decoded %+v\nwant    %+v", *got, *want)
			}
			if again := got.encode(); !bytes.Equal(again, data) {
				t.Errorf("re-encode not byte-stable:\n%x\n%x", data, again)
			}
		})
	}
}

// TestSnapshotEnvelopeRejects: every strict prefix, a wrong version byte,
// trailing bytes and out-of-order stream names are decode errors.
func TestSnapshotEnvelopeRejects(t *testing.T) {
	data := benchEnvelope(16, 4, 3).encode()
	for n := 0; n < len(data); n++ {
		if _, err := decodeEnvelope(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(data))
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = envelopeVersion + 1
	if _, err := decodeEnvelope(bad); !errors.Is(err, errEnvelopeVersion) {
		t.Errorf("wrong version: err = %v", err)
	}
	if _, err := decodeEnvelope(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte decoded")
	}
	// Two streams, hand-ordered descending.
	b := wire.NewBuffer(0)
	b.Byte(envelopeVersion)
	b.Uvarint(1)
	b.Bool(false)
	b.Uvarint(0)
	b.Uvarint(2)
	for _, name := range []string{"order", "lane/0"} {
		b.String(name)
		b.Uvarint(1)
		b.Uvarint(1)
	}
	b.Bytes(nil)
	b.Bytes(nil)
	b.Bytes(nil)
	if _, err := decodeEnvelope(b.Encoded()); !errors.Is(err, errEnvelopeStreams) {
		t.Errorf("descending stream names: err = %v", err)
	}
}

// FuzzSnapshotEnvelope: arbitrary input either fails to decode or is a
// canonical envelope that re-encodes to itself and none of whose
// truncations decode; a wrong version byte is always the version error.
// Decoding never panics, and
// what it allocates stays proportional to the input: every count and
// length is checked against the bytes left before anything is sized from
// it. The seed corpus (valid envelopes, their truncations, a wrong version
// byte) runs under plain go test.
func FuzzSnapshotEnvelope(f *testing.F) {
	for _, tc := range envelopeCases() {
		data := tc.in.encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{envelopeVersion, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := decodeEnvelope(data)
		runtime.ReadMemStats(&after)
		// A minimal entry is 5 bytes and decodes to one ~160-byte seenEntry;
		// a minimal stream is 3 bytes and one map slot. The constant absorbs
		// the fuzzing engine's own allocations, which MemStats also counts.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if len(data) > 0 && data[0] != envelopeVersion && !errors.Is(err, errEnvelopeVersion) {
			t.Fatalf("wrong version byte %#x: err = %v", data[0], err)
		}
		if err != nil {
			return
		}
		if again := env.encode(); !bytes.Equal(again, data) {
			t.Fatalf("decoded envelope re-encodes differently:\n%x\n%x", data, again)
		}
		for _, n := range []int{len(data) - 1, len(data) / 2} {
			if _, err := decodeEnvelope(data[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", n, len(data))
			}
		}
	})
}

// benchEnvelope builds an envelope shaped like a kv checkpoint: a state
// image of stateBytes, entries done reply-cache entries and streams trace
// streams.
func benchEnvelope(stateBytes, entries, streams int) *snapshotEnvelope {
	env := &snapshotEnvelope{
		Seq:     1 << 20,
		State:   bytes.Repeat([]byte{0xa5}, stateBytes),
		Streams: make(map[string]obs.StreamState, streams),
	}
	for i := 0; i < entries; i++ {
		id := wire.InvocationID{Logical: wire.LogicalID("client/c" + strconv.Itoa(i%2)), Seq: uint64(i)}
		env.Entries = append(env.Entries, seenEntry{
			ID: id, SeenAt: env.Seq - uint64(entries-i), Done: true,
			Reply: Reply{ID: id, From: "kv/0", Result: []byte{0, 0, 0, 0, 0, 0, 0, byte(i)}},
		})
	}
	env.Streams["order"] = obs.StreamState{Count: env.Seq, Digest: 0x9e3779b97f4a7c15}
	for i := 1; i < streams; i++ {
		env.Streams["mutex/k"+strconv.Itoa(i)] = obs.StreamState{Count: uint64(i) << 10, Digest: uint64(i) * 0x9e3779b97f4a7c15}
	}
	return env
}

// BenchmarkCheckpointEnvelope: the replica-side cost of one checkpoint
// (encode) and one snapshot install (decode) at kv-checkpoint's shape — a
// 4 MiB image, 384 cached replies, 17 trace streams — without the
// application's own Snapshot/Restore.
func BenchmarkCheckpointEnvelope(b *testing.B) {
	env := benchEnvelope(4<<20, 384, 17)
	data := env.encode()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			env.encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := decodeEnvelope(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// restoreFails is a Snapshotter whose Restore always fails.
type restoreFails struct{}

func (restoreFails) Snapshot() ([]byte, error) { return []byte("img"), nil }
func (restoreFails) Restore([]byte) error      { return errors.New("restore refused") }

// newTracedReplica is newOneReplica with a schedule trace and a state.
func newTracedReplica(t *testing.T, state func() any) (*oneReplica, *obs.Trace) {
	t.Helper()
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	dir := NewDirectory()
	dir.Add("g", []wire.NodeID{wire.ReplicaID("g", 0)})
	trace := obs.NewTrace(0)
	r := New(Config{
		RT:        rt,
		Group:     "g",
		Self:      wire.ReplicaID("g", 0),
		Directory: dir,
		Network:   net,
		Scheduler: sat.New(),
		State:     state,
		Trace:     trace,
	})
	r.Register("echo", func(inv *Invocation) ([]byte, error) { return inv.Args(), nil })
	r.Start()
	return &oneReplica{rt: rt, net: net, r: r, cl: net.Endpoint(wire.ClientID("t")), dir: dir}, trace
}

// TestInstallSnapshotFailureRecorded: a snapshot that cannot be decoded or
// restored leaves an install/fail event on the order stream, so the first
// trace divergence against a healthy peer names that position.
func TestInstallSnapshotFailureRecorded(t *testing.T) {
	good := (&snapshotEnvelope{Seq: 9, State: []byte("img")}).encode()
	bad := append([]byte(nil), good...)
	bad[0] = envelopeVersion + 1
	for _, tc := range []struct {
		name string
		snap []byte
	}{
		{"truncated", good[:len(good)-1]},
		{"wrong version", bad},
		{"restore fails", good},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two replicas see the same prefix; then one is handed the broken
			// snapshot while its peer delivers the next request normally.
			var traces [2]*obs.Trace
			var pos uint64
			for i := range traces {
				h, trace := newTracedReplica(t, func() any { return restoreFails{} })
				traces[i] = trace
				vtime.Run(h.rt, "main", func() {
					defer h.r.Stop()
					defer h.cl.Close()
					for n := 0; n < 3; n++ {
						h.submit(wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", n))}, "echo", []byte("x"))
						h.recvReply(t)
					}
					pos, _ = trace.Digest("order")
					if i == 0 {
						h.r.installSnapshot(gcs.Delivery{Seq: 9, Snapshot: tc.snap})
					} else {
						h.submit(wire.InvocationID{Logical: "client/t#3"}, "echo", []byte("x"))
						h.recvReply(t)
					}
				})
				h.rt.Stop()
			}
			d := obs.FirstDivergence(traces[0].Snapshot(), traces[1].Snapshot())
			if d == nil || d.Stream != "order" || d.Pos != pos || d.A == nil {
				t.Fatalf("divergence = %v, want order stream at position %d", d, pos)
			}
			if d.A.Kind != obs.KindCheckpoint || d.A.Subject != "install/fail" || d.A.Detail != "9" {
				t.Errorf("failed replica's event = %s %s %s, want checkpoint install/fail 9", d.A.Kind, d.A.Subject, d.A.Detail)
			}
		})
	}
}

// gobCounter is a state without a Snapshotter: checkpointed through gob.
type gobCounter struct{ N int }

// TestSnapshotGobFallbackRoundTrip: a state without a Snapshotter travels
// gob-encoded inside the binary envelope and is restored on the rejoiner.
func TestSnapshotGobFallbackRoundTrip(t *testing.T) {
	donor, joiner := &Replica{state: &gobCounter{N: 41}}, &Replica{state: &gobCounter{}}
	state, usedGob, err := donor.snapshotState()
	if err != nil || !usedGob {
		t.Fatalf("snapshotState: usedGob=%v err=%v", usedGob, err)
	}
	env, err := decodeEnvelope((&snapshotEnvelope{Seq: 4, UsedGob: usedGob, State: state}).encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.restoreState(env); err != nil {
		t.Fatal(err)
	}
	if got := joiner.state.(*gobCounter).N; got != 41 {
		t.Errorf("restored N = %d, want 41", got)
	}
}
