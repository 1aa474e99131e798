package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/ids"
)

// The gob reference tests encode messages through interface values, which
// gob can only do for registered concrete types. In this package only tests
// use gob: the transports ship messages with the binary codec.
func init() {
	for _, m := range Messages() {
		gob.Register(m)
	}
}

func TestGobRoundTrip(t *testing.T) {
	// Every message type must survive a gob round trip through an interface
	// value: gob is the reference the binary codec is checked against
	// (TestCodecDifferentialVsGob).
	msgs := []any{
		Heartbeat{From: "p1", Seq: 7, Load: LoadInfo{Load: 0.5, FreeBytes: 10, TotalBytes: 20}},
		NSLookup{Path: "/a/b"},
		NSCreate{Path: "/f", FileID: ids.New(), Attrs: DefaultAttrs()},
		SegRead{Seg: ids.New(), Offset: 4096, Length: 12288},
		SegReadResp{OK: true, Data: []byte("hello"), Owners: []OwnerInfo{{Node: "p2", Version: 3}}, Redirect: true},
		SegWrite{Seg: ids.New(), Offset: 1, Data: []byte{1, 2, 3}},
		LocRefresh{From: "p9", Entries: []LocEntry{{Seg: ids.New(), Version: 2, Size: 100, ReplDeg: 3}}},
		Prepare2PC{Owner: "sess-1", Segs: []ids.SegID{ids.New(), ids.New()}},
		SyncNotify{Seg: ids.New(), Version: 5, Source: "p3"},
		SegPin{Seg: ids.New(), Version: 3},
		SegFetchDelta{Seg: ids.New(), HaveVer: 2},
		SegFetchDeltaResp{OK: true, Version: 4, Size: 100, Ranges: []DeltaRange{{Off: 10, Data: []byte("xy")}}},
	}
	for _, in := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		var out any
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T did not round-trip: %+v vs %+v", in, in, out)
		}
	}
}

func TestSizeOfDataDominates(t *testing.T) {
	data := make([]byte, 1<<20)
	if got := SizeOf(SegWrite{Data: data}); got < len(data) {
		t.Errorf("SizeOf(1MB write) = %d", got)
	}
	if got := SizeOf(SegRead{}); got > 1024 {
		t.Errorf("SizeOf(control msg) = %d, want small", got)
	}
	if SizeOf(&SegWrite{Data: data}) != SizeOf(SegWrite{Data: data}) {
		t.Error("pointer and value sizes differ")
	}
}

func TestSizeOfScalesWithEntries(t *testing.T) {
	small := SizeOf(LocRefresh{Entries: make([]LocEntry, 1)})
	big := SizeOf(LocRefresh{Entries: make([]LocEntry, 1000)})
	if big <= small {
		t.Errorf("LocRefresh size does not scale: %d vs %d", small, big)
	}
}

func TestUsedFrac(t *testing.T) {
	l := LoadInfo{FreeBytes: 25, TotalBytes: 100}
	if got := l.UsedFrac(); got != 0.75 {
		t.Errorf("UsedFrac = %v", got)
	}
	if (LoadInfo{}).UsedFrac() != 0 {
		t.Error("zero LoadInfo UsedFrac != 0")
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if Linear.String() != "linear" || Striped.String() != "striped" || Hybrid.String() != "hybrid" {
		t.Error("LayoutMode strings wrong")
	}
	if LayoutMode(99).String() != "unknown" {
		t.Error("unknown mode string")
	}
	if PlaceLoadAware.String() != "load-aware" || PlaceRandom.String() != "random" || PlaceLocal.String() != "local" {
		t.Error("policy strings wrong")
	}
	if PlacementPolicy(99).String() != "unknown" {
		t.Error("unknown policy string")
	}
}

func TestDefaultAttrs(t *testing.T) {
	a := DefaultAttrs()
	if a.ReplDeg != 1 || a.Alpha != 0.5 || a.Mode != Linear || a.VersioningOff {
		t.Errorf("DefaultAttrs = %+v", a)
	}
}
