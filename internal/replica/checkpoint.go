package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Deterministic checkpointing and snapshot-based state transfer.
//
// With Config.CheckpointEvery set, every replica pauses at the same
// positions of the totally-ordered stream, quiesces its scheduler, and
// serializes (object state, reply cache, trace digests) into a snapshot
// envelope handed to the group member. The member truncates its
// retransmission log up to the checkpoint (bounded by the group-wide
// stability watermark) and answers NACKs for truncated positions with the
// snapshot instead — so a replica that rejoins after the log has moved past
// its position is restored by state transfer rather than replay.

// Snapshotter is implemented by object states that support checkpointing
// with an explicit serialization. States that do not implement it are
// checkpointed with encoding/gob, which requires a pointer state with
// exported fields; when neither works the checkpoint is skipped (the same
// way on every replica) and the log falls back to the retention cap.
type Snapshotter interface {
	// Snapshot serializes the state. It is called only at a quiesced
	// checkpoint boundary, with no request threads live.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a previously snapshotted image.
	Restore(data []byte) error
}

// seenEntry is one at-most-once bookkeeping entry carried by a checkpoint:
// the invocation id, the stream position it was first seen at, and the
// cached reply once execution finished.
type seenEntry struct {
	ID     wire.InvocationID
	SeenAt uint64
	Done   bool
	Reply  Reply
	// Key is the shard key the request was accepted under (empty when
	// unrouted); restoring it keeps a rejoiner's migration reply-cache
	// handoffs byte-identical to its peers'.
	Key string
}

// snapshotEnvelope is the serialized form of a checkpoint: everything a
// rejoiner needs to resume as if it had delivered the whole prefix itself.
type snapshotEnvelope struct {
	Seq     uint64
	UsedGob bool
	Entries []seenEntry
	Streams map[string]obs.StreamState
	// Sched carries replicated scheduler meta-state (adets.StatefulScheduler
	// — the adaptive meta-scheduler's epoch, window and active kind), nil
	// for stateless schedulers.
	Sched []byte
	// Shard carries the encoded shard routing table installed at the
	// checkpoint (nil on unsharded groups), so a rejoiner restored past a
	// truncated EpochMethod delivery still adopts the donor's epoch.
	Shard []byte
	State []byte
}

// Envelope layout, in the wire package's primitive encodings:
//
//	envelope := byte(envelopeVersion) uvarint(Seq) bool(UsedGob)
//	            uvarint(len(Entries)) entry*
//	            uvarint(len(Streams)) stream*      (names strictly ascending)
//	            bytes(Sched) bytes(Shard) bytes(State)
//	entry    := InvocationID uvarint(SeenAt) string(Key) bool(Done)
//	            [cached reply, only when Done]
//	stream   := string(name) uvarint(Count) uvarint(Digest)
//
// The encoding is canonical — decoding then re-encoding is byte-stable —
// and the state image comes last, so the envelope is built in one
// exact-capacity allocation: the small head first, then head and image
// appended once.
const envelopeVersion = 1

var (
	errEnvelopeVersion = errors.New("replica: unknown checkpoint envelope version")
	errEnvelopeStreams = errors.New("replica: checkpoint stream names not strictly ascending")
)

// minEntryLen / minStreamLen are the smallest encodings of an entry and a
// stream: decoded counts are bounded by the bytes left to back them.
const (
	minEntryLen  = 5
	minStreamLen = 3
)

// encode serializes the envelope canonically.
func (env *snapshotEnvelope) encode() []byte {
	head := wire.NewBuffer(64 + 64*len(env.Entries) + 32*len(env.Streams) + len(env.Sched) + len(env.Shard))
	head.Byte(envelopeVersion)
	head.Uvarint(env.Seq)
	head.Bool(env.UsedGob)
	head.Uvarint(uint64(len(env.Entries)))
	for _, e := range env.Entries {
		encInvocationID(head, e.ID)
		head.Uvarint(e.SeenAt)
		head.String(e.Key)
		head.Bool(e.Done)
		if e.Done {
			encCachedReply(head, e.Reply)
		}
	}
	names := make([]string, 0, len(env.Streams))
	for name := range env.Streams {
		names = append(names, name)
	}
	sort.Strings(names)
	head.Uvarint(uint64(len(names)))
	for _, name := range names {
		st := env.Streams[name]
		head.String(name)
		head.Uvarint(st.Count)
		head.Uvarint(st.Digest)
	}
	head.Bytes(env.Sched)
	head.Bytes(env.Shard)
	h := head.Encoded()
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(env.State)))
	out := make([]byte, 0, len(h)+k+len(env.State))
	out = append(out, h...)
	out = append(out, n[:k]...)
	return append(out, env.State...)
}

// decodeEnvelope parses an envelope written by encode, under the wire
// codec's rules (minimal varints, lengths bounded by the remaining input,
// no trailing bytes) plus the envelope's own canonical-form checks.
func decodeEnvelope(data []byte) (*snapshotEnvelope, error) {
	r := wire.NewReader(data)
	v, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if v != envelopeVersion {
		return nil, errEnvelopeVersion
	}
	env := &snapshotEnvelope{}
	if env.Seq, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if env.UsedGob, err = r.Bool(); err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()/minEntryLen) {
		return nil, fmt.Errorf("replica: %d checkpoint entries exceed remaining %d bytes", n, r.Remaining())
	}
	if n > 0 {
		env.Entries = make([]seenEntry, n)
	}
	for i := range env.Entries {
		e := &env.Entries[i]
		if e.ID, err = decInvocationID(r); err != nil {
			return nil, err
		}
		if e.SeenAt, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if e.Key, err = r.String(); err != nil {
			return nil, err
		}
		if e.Done, err = r.Bool(); err != nil {
			return nil, err
		}
		if e.Done {
			if e.Reply, err = decCachedReply(r); err != nil {
				return nil, err
			}
		}
	}
	if n, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()/minStreamLen) {
		return nil, fmt.Errorf("replica: %d checkpoint streams exceed remaining %d bytes", n, r.Remaining())
	}
	env.Streams = make(map[string]obs.StreamState, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		if i > 0 && name <= prev {
			return nil, errEnvelopeStreams
		}
		prev = name
		var st obs.StreamState
		if st.Count, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if st.Digest, err = r.Uvarint(); err != nil {
			return nil, err
		}
		env.Streams[name] = st
	}
	if env.Sched, err = r.Bytes(); err != nil {
		return nil, err
	}
	if env.Shard, err = r.Bytes(); err != nil {
		return nil, err
	}
	if env.State, err = r.Bytes(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("replica: %d trailing bytes after checkpoint envelope", r.Remaining())
	}
	return env, nil
}

// checkpoint runs at a checkpoint boundary (stream position seq, the
// delivery just dispatched). It quiesces the scheduler — waiting until all
// request threads have drained or are provably blocked on future
// deliveries — and in the drained case evicts stable reply-cache entries,
// records the boundary in the trace, and hands the serialized snapshot to
// the group member. When threads are still live the boundary is skipped;
// the quiescence verdict is a deterministic function of the stream, so
// every replica records the same event (checkpoint or skip marker) and any
// disagreement surfaces as a digest divergence.
func (r *Replica) checkpoint(seq uint64) {
	// No snapshot may cover a half-done ring transition: the handoff state
	// (buffered chunks, parked requests, pending cut) is reconstructed by
	// rejoiners from the ordered tail instead, which the migration's
	// truncation hold keeps available. The verdict is a pure function of
	// the stream (the migration is armed and disarmed at ordered
	// positions), so every replica defers the same boundaries.
	r.rt.Lock()
	migrating := r.mig != nil || len(r.earlyChunks) > 0
	r.rt.Unlock()
	if migrating {
		r.ckptSkipped.Inc()
		r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10)+"/defer")
		return
	}
	start := r.rt.Now()
	p := vtime.NewParker("ckpt/" + string(r.self))
	drained := false
	r.sched.Quiesce(func(d bool) {
		drained = d
		r.rt.Unpark(p)
	})
	r.rt.Lock()
	r.rt.Park(p)
	r.rt.Unlock()
	if !drained {
		r.ckptSkipped.Inc()
		r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10)+"/skip")
		return
	}
	r.rt.Lock()
	r.evictStableLocked(seq)
	entries := r.seenEntriesLocked()
	r.rt.Unlock()
	// Record before exporting: the envelope's digest state must include the
	// checkpoint event itself, so a replica restored from this snapshot
	// continues with digests identical to the donors'.
	r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10))
	state, usedGob, err := r.snapshotState()
	if err != nil {
		// Same state type on every replica, so the failure (e.g. gob meeting
		// unexported fields) is deterministic: nobody records a checkpoint
		// and the log stays bounded only by the retention cap.
		return
	}
	env := snapshotEnvelope{
		Seq:     seq,
		UsedGob: usedGob,
		Entries: entries,
		Streams: r.trace.ExportStreams(),
		State:   state,
	}
	if ss, ok := r.sched.(adets.StatefulScheduler); ok {
		sched, err := ss.MarshalSchedulerState()
		if err != nil {
			return // deterministic: the same state fails on every replica
		}
		env.Sched = sched
	}
	if r.shard != nil {
		env.Shard = r.shard.Current().Table.Encode()
	}
	data := env.encode()
	r.member.SetCheckpoint(seq, data)
	r.checkpoints.Inc()
	r.snapSize.Set(int64(len(data)))
	r.ckptDuration.ObserveDuration(r.rt.Now() - start)
}

// snapshotState serializes the object state: Snapshotter when implemented,
// gob otherwise (nil state yields a nil image).
func (r *Replica) snapshotState() (data []byte, usedGob bool, err error) {
	switch s := r.state.(type) {
	case nil:
		return nil, false, nil
	case Snapshotter:
		data, err = s.Snapshot()
		return data, false, err
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r.state); err != nil {
			return nil, true, err
		}
		return buf.Bytes(), true, nil
	}
}

func (r *Replica) restoreState(env *snapshotEnvelope) error {
	if len(env.State) == 0 || r.state == nil {
		return nil
	}
	if s, ok := r.state.(Snapshotter); ok && !env.UsedGob {
		return s.Restore(env.State)
	}
	return gob.NewDecoder(bytes.NewReader(env.State)).Decode(r.state)
}

// evictStableLocked drops reply-cache entries that have aged out of the
// duplicate-detection window: everything first seen at or below seq minus
// two checkpoint intervals. The boundary is a pure function of the ordered
// stream — unlike the gcs stability watermark, which depends on
// failure-detector timing — so every replica evicts the same entries at the
// same position and duplicate classification never diverges. Entries still
// executing (no cached reply yet) are always retained.
func (r *Replica) evictStableLocked(seq uint64) {
	window := 2 * r.ckptEvery
	if seq <= window {
		return
	}
	floor := seq - window
	// Remember the eviction floor: a retransmission ordered at or below it
	// whose entry is gone can no longer be answered from the reply cache —
	// the duplicate hook returns a typed expired-duplicate error instead.
	r.evictFloor = floor
	kept := r.seenOrder[:0]
	for _, id := range r.seenOrder {
		at, ok := r.seen[id]
		if !ok {
			continue
		}
		if at <= floor {
			if _, done := r.cache[id]; done {
				delete(r.seen, id)
				delete(r.seenKey, id)
				delete(r.cache, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	r.seenOrder = kept
}

// seenEntriesLocked copies the at-most-once bookkeeping for the envelope,
// in first-seen order (already deterministic: it follows the stream).
func (r *Replica) seenEntriesLocked() []seenEntry {
	entries := make([]seenEntry, 0, len(r.seenOrder))
	for _, id := range r.seenOrder {
		at, ok := r.seen[id]
		if !ok {
			continue
		}
		e := seenEntry{ID: id, SeenAt: at, Key: r.seenKey[id]}
		if rep, done := r.cache[id]; done {
			e.Done = true
			e.Reply = rep
		}
		entries = append(entries, e)
	}
	return entries
}

// installSnapshot restores this replica from a checkpoint delivered in
// place of a truncated tail. The group member has already repositioned the
// delivery frontier at d.Seq+1; here the object state, the reply cache and
// the trace digests are reset to the donor's exact position. Checkpoints
// are only taken fully drained, so the donor had no live threads — local
// nested-invocation bookkeeping (necessarily stale) is cleared outright.
//
// A failed install leaves this replica running on stale state past d.Seq.
// It is recorded as an "install/fail" event on the order stream, which no
// healthy replica has at that position, so FirstTraceDivergence names the
// replica and the position.
func (r *Replica) installSnapshot(d gcs.Delivery) {
	env, err := decodeEnvelope(d.Snapshot)
	var table shard.Table
	if err == nil && r.shard != nil && len(env.Shard) > 0 {
		table, err = shard.DecodeTable(env.Shard)
	}
	if err == nil {
		err = r.restoreState(env)
	}
	if err != nil {
		r.recordInstallFail(d.Seq)
		return
	}
	r.rt.Lock()
	r.seen = make(map[wire.InvocationID]uint64, len(env.Entries))
	r.seenOrder = r.seenOrder[:0]
	r.seenKey = make(map[wire.InvocationID]string)
	r.cache = make(map[wire.InvocationID]Reply, len(env.Entries))
	for _, e := range env.Entries {
		r.seen[e.ID] = e.SeenAt
		r.seenOrder = append(r.seenOrder, e.ID)
		if e.Key != "" {
			r.seenKey[e.ID] = e.Key
		}
		if e.Done {
			r.cache[e.ID] = e.Reply
		}
	}
	r.logicalLive = make(map[wire.LogicalID]int)
	r.nested = make(map[wire.InvocationID]*nestedCall)
	r.earlyReplies = make(map[wire.InvocationID]Reply)
	r.nestedWaiting = make(map[wire.LogicalID]int)
	r.pendingCallbacks = make(map[wire.LogicalID][]pendingCallback)
	// Checkpoints are never taken mid-migration, so the donor had no
	// handoff state; any local leftovers are stale by construction. The
	// ordered tail past the snapshot replays prepare/chunks/fence and
	// rebuilds them deterministically.
	r.mig = nil
	r.earlyChunks = nil
	if r.specMgr != nil {
		// The primary state was rewritten wholesale: no fork taken before
		// this point can be valid, and in-flight accounting is void.
		r.specMgr.Reset(env.Seq)
		r.specPending = 0
	}
	r.rt.Unlock()
	if r.shard != nil && len(env.Shard) > 0 {
		// Restore, not Install: the donor's table may be any number of
		// epochs (and reshapes) ahead of this rejoiner's.
		if err = r.shard.Restore(table); err == nil {
			r.shardEpochG.Set(int64(table.Epoch))
		}
	}
	if len(env.Sched) > 0 {
		if ss, ok := r.sched.(adets.StatefulScheduler); ok {
			// The rejoiner adopts the donor's scheduler epoch/kind: the
			// boundary submissions that produced them are in the truncated
			// prefix and can never be replayed here.
			if serr := ss.UnmarshalSchedulerState(env.Sched); serr != nil {
				err = serr
			}
		}
	}
	r.trace.RestoreStreams(env.Streams)
	if err != nil {
		// Past the point of no return: record after the restored digests,
		// at the first position past the donor's.
		r.recordInstallFail(d.Seq)
	}
}

// recordInstallFail marks a snapshot install that did not complete.
func (r *Replica) recordInstallFail(seq uint64) {
	r.trace.Record("order", obs.KindCheckpoint, "install/fail", strconv.FormatUint(seq, 10))
}

// CacheSize returns the number of cached replies (tests, bench reporter).
func (r *Replica) CacheSize() int {
	r.rt.Lock()
	defer r.rt.Unlock()
	return len(r.cache)
}
