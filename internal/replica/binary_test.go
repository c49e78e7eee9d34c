package replica

import (
	"encoding/hex"
	"testing"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// TestCachedReplyFramesPinned: migration chunks and shard-epoch replies
// encode their cached replies through one codec; their frame bytes are
// pinned so a change to that codec cannot slip through.
func TestCachedReplyFramesPinned(t *testing.T) {
	id := wire.InvocationID{Logical: "client/c1", Seq: 12}
	for _, tc := range []struct {
		name    string
		payload any
		want    string
	}{
		{"migrate chunk", MigrateChunk{
			Object: "kv", Epoch: 2, Source: "kv@0", Target: "kv@2", Index: 1, Count: 3, Cut: 57,
			Keys: []KeyState{{Key: "acct-4", Data: []byte{9}}},
			Cache: []CacheEntry{
				{ID: id, Key: "acct-4", Reply: Reply{ID: id, From: "kv@0/0", Result: []byte{5}}},
				{ID: id, Key: "acct-5", Reply: Reply{ID: id, From: "kv@0/1", Err: "e", ShardEpoch: 2,
					Trace: tracing.Context{TraceID: 300, Span: 7}}},
			}},
			"761b01610162026b7602046b764030046b7640320103390106616363742d3401090209636c69656e742f63310c" +
				"06616363742d3409636c69656e742f63310c066b7640302f3001050000000009636c69656e742f63310c0661" +
				"6363742d3509636c69656e742f63310c066b7640302f3100016502ac0207"},
		{"shard reply", Reply{ID: id, From: "kv@0/1", Result: []byte{1}, ShardEpoch: 3,
			Trace: tracing.Context{TraceID: 1, Span: 2}},
			"1d1a0161016209636c69656e742f63310c066b7640302f31010100030102"},
	} {
		b, err := wire.AppendMessage(nil, &wire.Message{From: "a", To: "b", Payload: tc.payload})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		m, _, clean, err := wire.ConsumeMessage(b)
		if err != nil || !clean {
			t.Fatalf("%s: decode clean=%v err=%v", tc.name, clean, err)
		}
		if again, _ := wire.AppendMessage(nil, &m); hex.EncodeToString(again) != tc.want {
			t.Errorf("%s: re-encode not byte-stable", tc.name)
		}
	}
}
