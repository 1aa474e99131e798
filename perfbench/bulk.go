package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/segstore"
	"repro/internal/wire"
)

// bulk: two closed-loop clients on sorrento-(8,2), data-scaled, in the
// Figure 11 regime. Each works on its own half of 32 preloaded 128 MiB
// files (paper scale), issuing random 4 MiB-aligned requests, half reads
// and half committed writes. The provider cache is scaled by the same data
// factor, so about 1 GiB of replicas per provider sits against a 512 MiB
// cache and reads reach the modeled disk. NICs, disks above the cache,
// striped fan-out and lazy replication do the work; namespace and index
// changes must show nothing here. Reads run beside writes, so a write-path
// gain that takes NIC or disk time from reads shows.
var bulkWorkload = workload{
	// Data 1024 keeps the real bytes moved small; Time 0.01 covers over a
	// thousand modeled seconds per run.
	scale: bench.Scale{Time: 0.01, Data: 1024},
	opts:  bench.SorrentoOptions{Providers: 8, ReplDeg: 2},
	// A traced run's untraced half sees about 450 reads and 450 writes.
	tailQ: 0.97,
	setup: setupBulk,
}

const (
	bulkFiles    = 32
	bulkFileSize = 128 << 20 // paper scale
	bulkReqSize  = 4 << 20   // paper scale
	bulkStreams  = 2
	// bulkWarmup is the wall time driven before measuring: the rate falls
	// while replication backlog and version churn build up, so the
	// measured phase starts at steady state.
	bulkWarmup = 4 * time.Second
	// bulkRateDrift bounds how far the second half's rate may differ from
	// the first's (as a share of it) before the run counts as not levelled
	// off, and is invalid. Each half's rate varies by about ±8 % between
	// runs and the seed code's rate still falls about 6 % from one half to
	// the next, so a tighter bound would fail sound runs.
	bulkRateDrift = 0.25
	// bulkStoredDrift is the same bound for stored bytes per user byte.
	// The seed code does not meet it: random writes leave segments with
	// more replicas than their degree, so stored bytes keep climbing for
	// the whole run. Past it the run is reported, not failed, so that the
	// growth stays visible in stored_bytes_per_user_byte instead of making
	// every run invalid.
	bulkStoredDrift = 0.05
)

// bulkFile is one preloaded file and its content model. cands holds every
// content the file may have: one, unless a commit failed in a way that
// leaves its outcome unknown. Only the owning stream touches a file.
type bulkFile struct {
	path  string
	cands [][]byte
}

func (f *bulkFile) matches(off int64, got []byte) bool {
	for _, c := range f.cands {
		if bytes.Equal(c[off:off+int64(len(got))], got) {
			return true
		}
	}
	return false
}

// apply folds one write into the model.
func (f *bulkFile) apply(off int64, data []byte, err error, unknown bool) {
	switch {
	case err == nil:
		for _, c := range f.cands {
			copy(c[off:], data)
		}
	case unknown:
		for _, c := range f.cands {
			n := append([]byte(nil), c...)
			copy(n[off:], data)
			f.cands = append(f.cands, n)
		}
	}
}

type bulk struct {
	e        *env
	seed     int64
	clients  []*core.Client
	files    []*bulkFile
	rngs     []*rand.Rand
	seq      []int
	fileSize int64
	reqSize  int64
}

func setupBulk(e *env, seed int64) (instance, error) {
	// internal/bench never scales the provider cache, so without this the
	// data-scaled working set always fits segstore.DefaultCacheBytes and
	// reads never reach the modeled disk. Set before any traffic.
	for _, p := range e.c.Providers() {
		p.Store().SetCacheBytes(e.scale.Bytes(segstore.DefaultCacheBytes))
	}
	b := &bulk{e: e, seed: seed, fileSize: e.scale.Bytes(bulkFileSize), reqSize: e.scale.Bytes(bulkReqSize)}
	for i := 0; i < bulkStreams; i++ {
		cl, err := e.newClient(fmt.Sprintf("bk%d", i))
		if err != nil {
			return nil, err
		}
		b.clients = append(b.clients, cl)
		b.rngs = append(b.rngs, rand.New(rand.NewSource(int64(payloadKey(seed, 6, int64(i))))))
		b.seq = append(b.seq, 0)
	}
	for k := 0; k < bulkFiles; k++ {
		content := make([]byte, b.fileSize)
		fill(content, payloadKey(seed, 3, int64(k)))
		b.files = append(b.files, &bulkFile{path: fmt.Sprintf("/bulk-%03d", k), cands: [][]byte{content}})
	}
	if err := e.awaitMembers(); err != nil {
		return nil, err
	}
	// Each stream writes its own half.
	attrs := wire.FileAttrs{ReplDeg: 2, Alpha: 0.5}
	errs := make([]error, bulkStreams)
	var wg sync.WaitGroup
	for i, cl := range b.clients {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			for _, f := range b.mine(i) {
				if err := b.preload(cl, f, attrs); err != nil {
					errs[i] = fmt.Errorf("preload %s: %w", f.path, err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	e.quiesce()
	return b, nil
}

// mine returns stream i's half of the files.
func (b *bulk) mine(i int) []*bulkFile {
	per := len(b.files) / bulkStreams
	return b.files[i*per : (i+1)*per]
}

func (b *bulk) preload(cl *core.Client, f *bulkFile, attrs wire.FileAttrs) error {
	h, err := cl.Create(f.path, attrs)
	if err != nil {
		return err
	}
	content := f.cands[0]
	for off := int64(0); off < b.fileSize; off += b.reqSize {
		if _, err := h.WriteAt(content[off:off+b.reqSize], off); err != nil {
			h.Drop()
			return err
		}
	}
	return h.Close()
}

func (b *bulk) run(h *harness, rec *recorder) error {
	h.window(nil, bulkWarmup, b.drive)
	var rates, stored [2]float64
	for half := 0; half < 2; half++ {
		bytes0, modeled0 := rec.bytes, rec.modeled
		h.window(rec, h.wall/2, b.drive)
		rates[half] = float64(rec.bytes-bytes0) / (rec.modeled - modeled0).Seconds()
		b.e.quiesce()
		stored[half] = float64(b.e.storedBytes()) / float64(bulkFiles*b.fileSize)
	}
	rec.stored = stored[1]
	fmt.Fprintf(os.Stderr, "bulk halves: %.3f then %.3f MB/s; stored/user %.4f then %.4f\n",
		b.e.scale.Rate(rates[0]/1e6), b.e.scale.Rate(rates[1]/1e6), stored[0], stored[1])
	if d := drift(rates[0], rates[1]); d > bulkRateDrift {
		rec.problem("bulk rate moved %.1f%% between halves (limit %.0f%%)", 100*d, 100*bulkRateDrift)
	}
	if d := drift(stored[0], stored[1]); d > bulkStoredDrift {
		fmt.Fprintf(os.Stderr, "bulk: stored bytes not levelled off: moved %.1f%% between halves (limit %.0f%%)\n",
			100*d, 100*bulkStoredDrift)
	}
	b.teardown(rec)
	return nil
}

func drift(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if d < 0 {
		d = -d
	}
	return d
}

func (b *bulk) drive(w *window) {
	var wg sync.WaitGroup
	for i := range b.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !w.over() {
				b.op(w, i)
			}
		}(i)
	}
	wg.Wait()
}

// op issues one random aligned request on one of stream i's files.
func (b *bulk) op(w *window, i int) {
	cl, clock, tr, rng := b.clients[i], b.e.clock, b.e.tr, b.rngs[i]
	mine := b.mine(i)
	f := mine[rng.Intn(len(mine))]
	off := rng.Int63n(b.fileSize/b.reqSize) * b.reqSize
	write := rng.Intn(2) == 1
	start := clock.Now()
	counted := w.counts(start)
	if !write {
		op := tr.begin(cl.Name(), "read")
		got, err := readAt(cl, f.path, off, int(b.reqSize))
		tr.end(op, err)
		if !counted {
			return
		}
		if err == nil && !f.matches(off, got) {
			w.rec.mismatch("read")
			return
		}
		w.rec.op("read", clock.Now()-start, err, b.reqSize, false)
		if err == nil {
			w.rec.session()
		}
		return
	}
	data := make([]byte, b.reqSize)
	fill(data, payloadKey(b.seed, 4, int64(i), int64(b.seq[i])))
	b.seq[i]++
	op := tr.begin(cl.Name(), "write")
	unknown, err := b.write(cl, f.path, off, data)
	tr.end(op, err)
	f.apply(off, data, err, unknown)
	if counted {
		w.rec.op("write", clock.Now()-start, err, b.reqSize, true)
		if err == nil {
			w.rec.session()
		}
	}
}

// write publishes data at off as one commit. unknown reports a failed
// commit whose outcome the client cannot tell.
func (b *bulk) write(cl *core.Client, path string, off int64, data []byte) (unknown bool, err error) {
	f, err := cl.OpenWrite(path)
	if err != nil {
		return false, err
	}
	if _, err := f.WriteAt(data, off); err != nil {
		f.Drop()
		return false, err
	}
	if err := f.Commit(core.CommitOptions{}); err != nil {
		f.Drop()
		return true, err
	}
	return false, f.Close()
}

// teardown unlinks every file, one at a time, each through the stream that
// owns it, and records the unlinks: the large-file case of unlink_p50_ms.
// One at a time, so that each unlink's eager replica deletion runs alone.
func (b *bulk) teardown(rec *recorder) {
	clock := b.e.clock
	for i, cl := range b.clients {
		for _, f := range b.mine(i) {
			start := clock.Now()
			err := cl.Remove(f.path)
			rec.teardownOp(clock.Now()-start, err)
		}
	}
}
