package live

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// What still rides net/rpc — the client protocol, Fed.Join/Fed.Leave and
// the HA election service — is gob-encoded; these tests pin that every
// field of its types survives a gob round trip. The Member* types cross
// the framed wire only (frame_test.go), where both ends speak exactly
// one version, so they have no gob compatibility contract to pin.

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode %T into %T: %v", in, out, err)
	}
}

// The HA election and membership types: pin that every field survives a
// gob round trip so the election protocol cannot silently lose a term
// or flag.
func TestHAWireRoundTrips(t *testing.T) {
	{
		in := HAVoteArgs{Candidate: "d2", Term: 41}
		var out HAVoteArgs
		gobRoundTrip(t, in, &out)
		if out != in {
			t.Fatalf("vote args: %+v", out)
		}
	}
	{
		in := HAVoteReply{Granted: true, Term: 41}
		var out HAVoteReply
		gobRoundTrip(t, in, &out)
		if out != in {
			t.Fatalf("vote reply: %+v", out)
		}
	}
	{
		in := HAHeartbeatArgs{Leader: "d1", Addr: "127.0.0.1:9", Term: 41, Resign: true}
		var out HAHeartbeatArgs
		gobRoundTrip(t, in, &out)
		if out != in {
			t.Fatalf("heartbeat args: %+v", out)
		}
	}
	{
		in := HAHeartbeatReply{OK: true, Term: 42}
		var out HAHeartbeatReply
		gobRoundTrip(t, in, &out)
		if out != in {
			t.Fatalf("heartbeat reply: %+v", out)
		}
	}
	{
		in := LeaveArgs{Name: "m2"}
		var out LeaveArgs
		gobRoundTrip(t, in, &out)
		if out != in {
			t.Fatalf("leave args: %+v", out)
		}
	}
	{
		in := JoinArgs{Name: "m2", Addr: "127.0.0.1:9", Heuristic: "HMCT"}
		var out JoinArgs
		gobRoundTrip(t, in, &out)
		if out != in {
			t.Fatalf("join args: %+v", out)
		}
	}
}
