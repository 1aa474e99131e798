// Package layout implements Sorrento's file data organization (paper §3.2):
// a logical file is a linear byte array split into variable-length data
// segments arranged in Linear, Striped, or Hybrid mode, described by an
// index segment. The package provides the segment sizing formula, the
// byte-range ↔ segment mapping for reads and growth planning for writes,
// index segment encoding, and small-file attachment.
package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/wire"
)

// MaxAttach is the largest file payload attached directly inside the index
// segment (paper: 60 KB, chosen to fit a UDP packet).
const MaxAttach = 60 << 10

// Sizing parameterizes the segment-size formula. The paper's rule for the
// i-th Linear segment (i from 0) is min{512, 8^⌊i/8⌋} MB; benchmarks scale
// Unit and Max down while keeping the same progression.
type Sizing struct {
	Unit   int64 // bytes per "MB" in the formula (paper: 1 MiB)
	Max    int64 // cap in Units (paper: 512)
	Base   int64 // growth base (paper: 8)
	Period int   // segments per growth step (paper: 8)
}

// DefaultSizing is the paper's formula at full scale.
func DefaultSizing() Sizing {
	return Sizing{Unit: 1 << 20, Max: 512, Base: 8, Period: 8}
}

// ScaledSizing divides the byte sizes by factor while keeping the shape of
// the progression; used by benchmarks that scale data 1/64–1/1024.
func ScaledSizing(factor int64) Sizing {
	s := DefaultSizing()
	s.Unit /= factor
	if s.Unit < 4096 {
		s.Unit = 4096
	}
	return s
}

// SegmentSize returns the capacity in bytes of the i-th Linear segment:
// min{Max, Base^⌊i/Period⌋} × Unit.
func (s Sizing) SegmentSize(i int) int64 {
	return s.clampPow(int64(i) / int64(s.Period))
}

// GroupSegmentSize returns the capacity of each segment in the g-th Hybrid
// segment group of j segments: min{Max, Base^⌊g·j/Period⌋} × Unit.
func (s Sizing) GroupSegmentSize(g, j int) int64 {
	return s.clampPow(int64(g) * int64(j) / int64(s.Period))
}

func (s Sizing) clampPow(exp int64) int64 {
	size := int64(1)
	for k := int64(0); k < exp; k++ {
		size *= s.Base
		if size >= s.Max {
			return s.Max * s.Unit
		}
	}
	if size > s.Max {
		size = s.Max
	}
	return size * s.Unit
}

// SegRef names one data segment within an index.
type SegRef struct {
	ID      ids.SegID
	Version uint64
	Size    int64 // bytes currently stored in this segment
}

// Index is the content of an index segment: how the data segments compose
// the logical byte array. It is versioned and committed like any segment.
type Index struct {
	Mode        wire.LayoutMode
	Size        int64 // logical file size
	Segs        []SegRef
	StripeCount int   // Striped/Hybrid
	StripeUnit  int64 // Striped/Hybrid
	Sizing      Sizing
	// Attached holds the whole file payload for small files (≤ MaxAttach).
	// Non-nil (possibly empty) means the payload lives inside the index, in
	// which case Segs is empty; nil means the data lives in Segs.
	Attached []byte
}

// Piece is one contiguous run of a logical byte range within a single data
// segment.
type Piece struct {
	SegIdx int   // index into Index.Segs
	Off    int64 // offset within the segment
	N      int64 // length
}

// Layout errors.
var (
	ErrBeyondEOF   = errors.New("layout: range beyond end of file")
	ErrNeedSize    = errors.New("layout: striped mode requires a declared size")
	ErrBadStripe   = errors.New("layout: stripe parameters must be positive")
	ErrNotAttached = errors.New("layout: file has no attached payload")
	ErrBadIndex    = errors.New("layout: truncated or corrupt index segment")
)

// NewIndex builds an empty index for the given attributes. Striped mode
// materializes its fixed segment set immediately (sizes must be declared);
// Linear and Hybrid grow on demand.
func NewIndex(attrs wire.FileAttrs, sizing Sizing, newID func() ids.SegID) (*Index, error) {
	idx := &Index{
		Mode:        attrs.Mode,
		StripeCount: attrs.StripeCount,
		StripeUnit:  attrs.StripeUnit,
		Sizing:      sizing,
	}
	switch attrs.Mode {
	case wire.Linear:
		// Small files start attached.
		idx.Attached = []byte{}
	case wire.Striped:
		if attrs.DeclaredSize <= 0 {
			return nil, ErrNeedSize
		}
		if attrs.StripeCount <= 0 || attrs.StripeUnit <= 0 {
			return nil, ErrBadStripe
		}
		per := (attrs.DeclaredSize + int64(attrs.StripeCount) - 1) / int64(attrs.StripeCount)
		for i := 0; i < attrs.StripeCount; i++ {
			idx.Segs = append(idx.Segs, SegRef{ID: newID(), Size: per})
		}
		idx.Size = 0 // logical size grows as data is written
	case wire.Hybrid:
		if attrs.StripeCount <= 0 || attrs.StripeUnit <= 0 {
			return nil, ErrBadStripe
		}
	default:
		return nil, fmt.Errorf("layout: unknown mode %v", attrs.Mode)
	}
	return idx, nil
}

// IsAttached reports whether the file payload lives inside the index.
func (x *Index) IsAttached() bool { return x.Attached != nil }

// segCapacity returns the capacity of segment i under the index's mode.
func (x *Index) segCapacity(i int) int64 {
	switch x.Mode {
	case wire.Linear:
		return x.Sizing.SegmentSize(i)
	case wire.Striped:
		return x.Segs[i].Size
	case wire.Hybrid:
		return x.Sizing.GroupSegmentSize(i/x.StripeCount, x.StripeCount)
	}
	return 0
}

// Map resolves the byte range [off, off+n) of a committed (non-attached)
// file into pieces. It fails when the range extends past the file size.
func (x *Index) Map(off, n int64) ([]Piece, error) {
	if off < 0 || n < 0 || off+n > x.Size {
		return nil, ErrBeyondEOF
	}
	if n == 0 {
		return nil, nil
	}
	if x.IsAttached() {
		return nil, ErrNotAttached
	}
	return x.mapRange(off, n), nil
}

// mapRange computes pieces without bounds checks (callers validate).
func (x *Index) mapRange(off, n int64) []Piece {
	var out []Piece
	switch x.Mode {
	case wire.Linear:
		var cum int64
		for i := range x.Segs {
			cap := x.segCapacity(i)
			lo, hi := cum, cum+cap
			if off+n > lo && off < hi {
				a := max64(off, lo)
				b := min64(off+n, hi)
				out = append(out, Piece{SegIdx: i, Off: a - lo, N: b - a})
			}
			cum = hi
			if cum >= off+n {
				break
			}
		}
	case wire.Striped:
		out = stripePieces(off, n, 0, x.StripeCount, x.StripeUnit)
	case wire.Hybrid:
		var cum int64
		for g := 0; ; g++ {
			segSize := x.Sizing.GroupSegmentSize(g, x.StripeCount)
			gcap := segSize * int64(x.StripeCount)
			lo, hi := cum, cum+gcap
			if off+n > lo && off < hi {
				a := max64(off, lo)
				b := min64(off+n, hi)
				out = append(out, stripePieces(a-lo, b-a, g*x.StripeCount, x.StripeCount, x.StripeUnit)...)
			}
			cum = hi
			if cum >= off+n {
				break
			}
		}
	}
	return out
}

// stripePieces maps a byte range within one stripe group onto its segments.
// segBase is the index of the group's first segment in Index.Segs.
func stripePieces(off, n int64, segBase, count int, unit int64) []Piece {
	var out []Piece
	rowBytes := unit * int64(count)
	for n > 0 {
		row := off / rowBytes
		within := off % rowBytes
		seg := int(within / unit)
		segOff := row*unit + within%unit
		run := unit - within%unit
		if run > n {
			run = n
		}
		out = append(out, Piece{SegIdx: segBase + seg, Off: segOff, N: run})
		off += run
		n -= run
	}
	return coalescePieces(out)
}

// coalescePieces merges adjacent pieces that continue in the same segment.
func coalescePieces(ps []Piece) []Piece {
	if len(ps) < 2 {
		return ps
	}
	out := ps[:1]
	for _, p := range ps[1:] {
		last := &out[len(out)-1]
		if last.SegIdx == p.SegIdx && last.Off+last.N == p.Off {
			last.N += p.N
		} else {
			out = append(out, p)
		}
	}
	return out
}

// Plan extends the index (if needed) to cover a write of [off, off+n) and
// returns the pieces to write. New segments get IDs from newID and start at
// Version 0 (uncommitted). Plan mutates the index: logical size, per-segment
// sizes, and appended SegRefs; callers re-fetch the index on failure.
// Attached files spill to a data segment once they outgrow MaxAttach.
func (x *Index) Plan(off, n int64, newID func() ids.SegID) ([]Piece, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("layout: negative range")
	}
	end := off + n
	if x.IsAttached() {
		if x.Mode == wire.Linear && end <= MaxAttach {
			// Stays attached; caller writes into Attached directly.
			return nil, nil
		}
		x.Attached = nil
	}
	switch x.Mode {
	case wire.Linear:
		for x.linearCapacity() < end {
			x.Segs = append(x.Segs, SegRef{ID: newID()})
		}
	case wire.Striped:
		if end > x.totalStripedCapacity() {
			return nil, ErrBeyondEOF
		}
	case wire.Hybrid:
		for x.hybridCapacity() < end {
			for k := 0; k < x.StripeCount; k++ {
				x.Segs = append(x.Segs, SegRef{ID: newID()})
			}
		}
	}
	if end > x.Size {
		x.Size = end
	}
	pieces := x.mapRange(off, n)
	for _, p := range pieces {
		if e := p.Off + p.N; e > x.Segs[p.SegIdx].Size {
			x.Segs[p.SegIdx].Size = e
		}
	}
	return pieces, nil
}

func (x *Index) linearCapacity() int64 {
	var cum int64
	for i := range x.Segs {
		cum += x.segCapacity(i)
	}
	return cum
}

func (x *Index) totalStripedCapacity() int64 {
	var cum int64
	for i := range x.Segs {
		cum += x.Segs[i].Size
	}
	return cum
}

func (x *Index) hybridCapacity() int64 {
	groups := len(x.Segs) / x.StripeCount
	var cum int64
	for g := 0; g < groups; g++ {
		cum += x.Sizing.GroupSegmentSize(g, x.StripeCount) * int64(x.StripeCount)
	}
	return cum
}

// Index segment format: little-endian fixed-width fields, SegIDs as their
// raw 16 bytes, and a presence byte that keeps a nil Attached (data in
// Segs) distinct from an empty one (an attached empty file):
//
//	u8 Mode | i64 Size | i64 StripeCount | i64 StripeUnit
//	i64 Sizing.Unit | i64 Sizing.Max | i64 Sizing.Base | i64 Sizing.Period
//	u32 n | n × (16-byte ID | u64 Version | i64 Size)
//	u8 attached (0 or 1) | if 1: u32 len | len payload bytes
const (
	headerSize = 1 + 7*8 + 4 // fixed fields through the SegRef count
	segRefSize = 16 + 8 + 8
)

var le = binary.LittleEndian

// Encode serializes the index for storage in the index segment.
func (x *Index) Encode() []byte {
	n := headerSize + len(x.Segs)*segRefSize + 1
	if x.Attached != nil {
		n += 4 + len(x.Attached)
	}
	b := append(make([]byte, 0, n), byte(x.Mode))
	for _, v := range [...]int64{x.Size, int64(x.StripeCount), x.StripeUnit,
		x.Sizing.Unit, x.Sizing.Max, x.Sizing.Base, int64(x.Sizing.Period)} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint32(b, uint32(len(x.Segs)))
	for _, s := range x.Segs {
		b = append(b, s.ID[:]...)
		b = le.AppendUint64(b, s.Version)
		b = le.AppendUint64(b, uint64(s.Size))
	}
	if x.Attached == nil {
		return append(b, 0)
	}
	b = le.AppendUint32(append(b, 1), uint32(len(x.Attached)))
	return append(b, x.Attached...)
}

// Decode parses an index segment payload. It checks the whole encoding
// (lengths, counts, presence byte, no trailing bytes) before allocating,
// and copies out of data, so the result never aliases the caller's buffer.
func Decode(data []byte) (*Index, error) {
	if len(data) < headerSize+1 {
		return nil, ErrBadIndex
	}
	rest := data[headerSize:]
	n := uint64(le.Uint32(data[headerSize-4:]))
	if n > uint64(len(rest)-1)/segRefSize {
		return nil, ErrBadIndex
	}
	refs, tail := rest[:n*segRefSize], rest[n*segRefSize:]
	var attached []byte
	switch {
	case len(tail) == 1 && tail[0] == 0:
	case len(tail) >= 5 && tail[0] == 1 && uint64(le.Uint32(tail[1:])) == uint64(len(tail)-5):
		attached = tail[5:]
	default:
		return nil, ErrBadIndex
	}
	field := func(i int) int64 { return int64(le.Uint64(data[1+8*i:])) }
	x := &Index{
		Mode:        wire.LayoutMode(data[0]),
		Size:        field(0),
		StripeCount: int(field(1)),
		StripeUnit:  field(2),
		Sizing:      Sizing{Unit: field(3), Max: field(4), Base: field(5), Period: int(field(6))},
		Attached:    bytes.Clone(attached),
	}
	if n > 0 {
		x.Segs = make([]SegRef, n)
		for i := range x.Segs {
			r := refs[i*segRefSize:]
			copy(x.Segs[i].ID[:], r)
			x.Segs[i].Version = le.Uint64(r[16:])
			x.Segs[i].Size = int64(le.Uint64(r[24:]))
		}
	}
	return x, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
