// Package trace implements the application trace-replay methodology of the
// paper's evaluation (§4): workload generators emit timed operation traces
// (standing in for the glibc/PVFS interceptor traces the authors collected),
// and Replayer plays them against any fsapi.System, reproducing the original
// request mix while measuring throughput and per-query I/O time.
package trace

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/fsapi"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// OpKind is a trace record type.
type OpKind uint8

// Trace operation kinds.
const (
	// OpCreate creates (and opens) a file for writing.
	OpCreate OpKind = iota
	// OpOpen opens an existing file read-only.
	OpOpen
	// OpOpenWrite opens an existing file for writing.
	OpOpenWrite
	// OpClose closes the file (committing where applicable).
	OpClose
	// OpRead reads N bytes at Off.
	OpRead
	// OpWrite writes N bytes at Off.
	OpWrite
	// OpRemove unlinks the file.
	OpRemove
	// OpMkdir creates a directory (ignored when it already exists).
	OpMkdir
	// OpThink blocks for Dur — recorded gaps (Internet latency for the
	// crawler, query interarrival for PSM).
	OpThink
	// OpQueryStart/OpQueryEnd bracket one application query; the replayer
	// accumulates the I/O time spent in between (Figure 15's metric).
	OpQueryStart
	OpQueryEnd
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpOpenWrite:
		return "openw"
	case OpClose:
		return "close"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	case OpMkdir:
		return "mkdir"
	case OpThink:
		return "think"
	case OpQueryStart:
		return "qstart"
	case OpQueryEnd:
		return "qend"
	default:
		return "unknown"
	}
}

// Record is one traced operation.
type Record struct {
	Kind OpKind
	Path string
	Off  int64
	N    int64
	Dur  time.Duration // OpThink only
}

// Trace is one process's operation stream.
type Trace struct {
	Records []Record
}

// Append adds a record.
func (t *Trace) Append(r Record) { t.Records = append(t.Records, r) }

// Save writes the trace as a gob stream.
func (t *Trace) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(t)
}

// Load reads a trace saved with Save.
func Load(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	return &t, nil
}

// Stats summarizes a replay.
type Stats struct {
	Ops          int
	BytesRead    int64
	BytesWritten int64
	Errors       int
	Elapsed      time.Duration // modeled wall time of the whole replay
	IOTime       time.Duration // modeled time spent inside I/O calls
	// Queries holds the per-query I/O time samples (OpQueryStart/End).
	Queries []stats.Point
}

// ReadRate returns the replay's aggregate read MB/s (modeled).
func (s Stats) ReadRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BytesRead) / s.Elapsed.Seconds() / 1e6
}

// WriteRate returns the replay's aggregate write MB/s (modeled).
func (s Stats) WriteRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BytesWritten) / s.Elapsed.Seconds() / 1e6
}

// Replayer plays a trace against a file system "as fast as it can", exactly
// as the paper's trace replayers do, honouring only recorded think time.
type Replayer struct {
	clock *simtime.Clock
	fs    fsapi.System
	// Buf is the scratch buffer reused for reads; grown as needed.
	buf []byte
	// OnError, when set, receives op failures instead of aborting.
	OnError func(rec Record, err error)
	// QuerySeries, when set, receives (time, ioMillis) per completed query.
	QuerySeries *stats.TimeSeries
	// Origin offsets query-series timestamps (experiment start).
	Origin time.Duration
}

// NewReplayer builds a replayer for one process.
func NewReplayer(clock *simtime.Clock, fs fsapi.System) *Replayer {
	return &Replayer{clock: clock, fs: fs}
}

// Run replays the trace and returns its statistics.
func (r *Replayer) Run(t *Trace) Stats {
	var st Stats
	open := make(map[string]fsapi.File)
	sw := r.clock.Start()
	var queryIO time.Duration
	var inQuery bool
	var queryStartIO time.Duration

	chargeIO := func(d time.Duration) {
		st.IOTime += d
	}

	for _, rec := range t.Records {
		st.Ops++
		var err error
		opStart := r.clock.Now()
		switch rec.Kind {
		case OpCreate:
			var f fsapi.File
			f, err = r.fs.Create(rec.Path)
			if err == nil {
				open[rec.Path] = f
			}
		case OpOpen:
			var f fsapi.File
			f, err = r.fs.Open(rec.Path)
			if err == nil {
				open[rec.Path] = f
			}
		case OpOpenWrite:
			var f fsapi.File
			f, err = r.fs.OpenWrite(rec.Path)
			if err == nil {
				open[rec.Path] = f
			}
		case OpClose:
			if f, ok := open[rec.Path]; ok {
				err = f.Close()
				delete(open, rec.Path)
			}
		case OpRead:
			f, ok := open[rec.Path]
			if !ok {
				err = fmt.Errorf("trace: read of unopened %s", rec.Path)
				break
			}
			if int64(len(r.buf)) < rec.N {
				r.buf = make([]byte, rec.N)
			}
			var n int
			n, err = f.ReadAt(r.buf[:rec.N], rec.Off)
			st.BytesRead += int64(n)
			if err == io.EOF {
				err = nil
			}
		case OpWrite:
			f, ok := open[rec.Path]
			if !ok {
				err = fmt.Errorf("trace: write of unopened %s", rec.Path)
				break
			}
			if int64(len(r.buf)) < rec.N {
				r.buf = make([]byte, rec.N)
			}
			var n int
			n, err = f.WriteAt(r.buf[:rec.N], rec.Off)
			st.BytesWritten += int64(n)
		case OpRemove:
			err = r.fs.Remove(rec.Path)
		case OpMkdir:
			// Idempotent: replays against a pre-populated volume must not
			// fail on an existing directory.
			if merr := r.fs.Mkdir(rec.Path); merr != nil {
				err = nil
			}
		case OpThink:
			r.clock.Sleep(rec.Dur)
		case OpQueryStart:
			inQuery = true
			queryStartIO = queryIO
		case OpQueryEnd:
			if inQuery {
				inQuery = false
				ioMs := (queryIO - queryStartIO).Seconds() * 1000
				st.Queries = append(st.Queries, stats.Point{T: r.Origin + r.clock.Now(), V: ioMs})
				if r.QuerySeries != nil {
					r.QuerySeries.Add(r.Origin+r.clock.Now(), ioMs)
				}
			}
		}
		if isIO(rec.Kind) {
			d := r.clock.Now() - opStart
			chargeIO(d)
			if inQuery {
				queryIO += d
			}
		}
		if err != nil {
			st.Errors++
			if r.OnError != nil {
				r.OnError(rec, err)
			}
		}
	}
	for _, f := range open {
		f.Close()
	}
	st.Elapsed = sw.Elapsed()
	return st
}

func isIO(k OpKind) bool {
	switch k {
	case OpThink, OpQueryStart, OpQueryEnd:
		return false
	default:
		return true
	}
}
