package layout

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// codecCases builds one index of every shape the index segment stores.
// Segment versions are wide distinct values, and the striped file declares
// 1 TiB, so a field swapped or truncated by the codec shows up.
func codecCases(t testing.TB) map[string]*Index {
	t.Helper()
	mk := func(attrs wire.FileAttrs, sizing Sizing, writeN int64) *Index {
		idx, err := NewIndex(attrs, sizing, ids.New)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Plan(0, writeN, ids.New); err != nil {
			t.Fatal(err)
		}
		for i := range idx.Segs {
			idx.Segs[i].Version = uint64(i+1)<<40 | 7
		}
		return idx
	}
	attachedFull := mk(wire.DefaultAttrs(), DefaultSizing(), MaxAttach)
	attachedFull.Attached = make([]byte, MaxAttach)
	attachedFull.Size = MaxAttach
	rand.New(rand.NewSource(1)).Read(attachedFull.Attached)
	return map[string]*Index{
		"linear-attached-empty": mk(wire.DefaultAttrs(), DefaultSizing(), 0),
		"linear-attached-60k":   attachedFull,
		"linear-spilled":        mk(wire.DefaultAttrs(), tinySizing(), MaxAttach+1),
		"striped": mk(wire.FileAttrs{Mode: wire.Striped, StripeCount: 4, StripeUnit: 16,
			DeclaredSize: 1 << 40, ReplDeg: 2}, tinySizing(), 1000),
		"hybrid": mk(wire.FileAttrs{Mode: wire.Hybrid, StripeCount: 3, StripeUnit: 32,
			ReplDeg: 2}, tinySizing(), 5000),
	}
}

func TestIndexCodecRoundTrip(t *testing.T) {
	for name, idx := range codecCases(t) {
		data := idx.Encode()
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// DeepEqual tells a nil Attached from an empty one, and compares
		// every SegRef field.
		if !reflect.DeepEqual(got, idx) {
			t.Fatalf("%s: round trip changed the index:\n got %+v\nwant %+v", name, got, idx)
		}
		if got.IsAttached() != idx.IsAttached() {
			t.Fatalf("%s: IsAttached %v, want %v", name, got.IsAttached(), idx.IsAttached())
		}
		// The result must not alias the encoded buffer.
		for i := range data {
			data[i] ^= 0xff
		}
		if !reflect.DeepEqual(got, idx) {
			t.Fatalf("%s: decoded index aliases its input", name)
		}
	}
}

func TestIndexDecodeRejectsPrefixesAndTrailingBytes(t *testing.T) {
	for name, idx := range codecCases(t) {
		data := idx.Encode()
		for k := 0; k < len(data); k++ {
			if _, err := Decode(data[:k]); !errors.Is(err, ErrBadIndex) {
				t.Fatalf("%s: %d-byte prefix of %d: err = %v", name, k, len(data), err)
			}
		}
		if _, err := Decode(append(data[:len(data):len(data)], 0)); !errors.Is(err, ErrBadIndex) {
			t.Fatalf("%s: trailing byte accepted: err = %v", name, err)
		}
	}
}

func TestIndexDecodeRejectsBadCountAndPresence(t *testing.T) {
	data := codecCases(t)["hybrid"].Encode()
	huge := bytes.Clone(data)
	le.PutUint32(huge[headerSize-4:], 1<<31)
	if _, err := Decode(huge); !errors.Is(err, ErrBadIndex) {
		t.Errorf("count beyond input accepted: err = %v", err)
	}
	bad := bytes.Clone(data)
	bad[len(bad)-1] = 2
	if _, err := Decode(bad); !errors.Is(err, ErrBadIndex) {
		t.Errorf("presence byte 2 accepted: err = %v", err)
	}
}

// TestIndexDecodeAllocs bounds Decode to one allocation each for the
// Index, its Segs and its Attached payload.
func TestIndexDecodeAllocs(t *testing.T) {
	for name, idx := range codecCases(t) {
		data := idx.Encode()
		want := 1.0
		if len(idx.Segs) > 0 {
			want++
		}
		if len(idx.Attached) > 0 {
			want++
		}
		if allocs := testing.AllocsPerRun(50, func() { Decode(data) }); allocs > want {
			t.Errorf("%s: Decode allocs = %v, want ≤ %v", name, allocs, want)
		}
	}
}

// FuzzIndexDecode checks that Decode never panics, allocates nothing for
// an input it rejects (so a claimed count the input cannot hold never
// reaches make), and re-encodes anything it accepts to the same bytes.
func FuzzIndexDecode(f *testing.F) {
	for _, idx := range codecCases(f) {
		data := idx.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := Decode(data)
		// AllocsPerRun truncates the mean, so a stray allocation by the
		// fuzzing engine's own goroutines does not count.
		allocs := testing.AllocsPerRun(10, func() { Decode(data) })
		if err != nil {
			if allocs != 0 {
				t.Fatalf("rejected input allocated %v times", allocs)
			}
			return
		}
		if allocs > 3 {
			t.Fatalf("accepted input allocated %v times", allocs)
		}
		if !bytes.Equal(x.Encode(), data) {
			t.Fatalf("re-encoding differs from the accepted input")
		}
	})
}
