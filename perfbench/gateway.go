package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/disk"
	"repro/internal/provider"
	"repro/internal/proxy"
	"repro/internal/wire"
)

// gateway: open-loop Poisson arrivals at one fixed offered rate, in
// modeled time. One generator spreads requests over two thin-client edges,
// which go through two proxies to eight providers. 90 % of requests are
// 1 KiB reads over 64 preloaded 64 KiB files, skewed by a Zipf
// distribution; 10 % are 4 KiB committed writes of fresh files. It is the only
// workload that exercises the proxy tier: the thin protocol, read-handle
// coalescing and re-resolution every ReadTTL. The skew is what would let a
// read cache show. The backend is cache-resident, with the DiskModel and
// OpCost overrides of the proxy sweep (sorrento-bench -exp proxy), which
// finds the highest sustainable rate and is too costly to run per check.
var gatewayWorkload = workload{
	// Time 4: modeled time runs at a quarter of wall speed. The host spends
	// about a core per 1000 modeled requests/s, and at Time 2 a busy shared
	// host still moved the read p50 by 20 % in some runs.
	scale: bench.Scale{Time: 4, Data: 1},
	opts: bench.SorrentoOptions{
		Providers: 8,
		ReplDeg:   2,
		DiskModel: disk.Model{SeekTime: 20 * time.Microsecond, TransferRate: 2e9},
		Provider:  provider.Config{OpCost: 100 * time.Microsecond},
	},
	tailQ: gatewayTailQ,
	setup: setupGateway,
}

const (
	// gatewayRate is the offered load in requests per modeled second.
	gatewayRate      = 2000.0
	gatewayFiles     = 64
	gatewayFileSize  = 64 << 10
	gatewayReadSize  = 1 << 10
	gatewayPutSize   = 4 << 10
	gatewayWriteFrac = 0.1
	gatewayZipfS     = 1.1
	// gatewayTailQ is the tail percentile: a traced run's untraced half
	// sees about 350 writes.
	gatewayTailQ = 0.95
	// gatewayReadLimit is the latency limit on the read tail at gatewayRate.
	gatewayReadLimit = 20 * time.Millisecond
	// gatewayLateLimit bounds the generator's p99 dispatch lateness. Each
	// request is timed from its due time, so lateness shows in latency;
	// past the latency limit itself, though, the generator rather than the
	// system shaped the tail, and the run is invalid.
	gatewayLateLimit = gatewayReadLimit
	// gatewayMaxInFlight caps outstanding requests; an arrival beyond it is
	// refused and counts as failed, so a stalled system cannot grow the
	// benchmark's memory without bound.
	gatewayMaxInFlight = 10000
	// gatewayUnlinks is how many of its fresh files each edge unlinks
	// after the measured window (the thin-protocol case of unlink_p50_ms).
	gatewayUnlinks = 50
)

type gateway struct {
	e       *env
	seed    int64
	edges   []*proxy.ThinClient
	content [][]byte
	rng     *rand.Rand // generator-owned
	zipf    *rand.Zipf
	puts    atomic.Int64
	inFly   atomic.Int64

	mu       sync.Mutex
	fresh    [][]string // per edge: committed fresh files
	putBytes int64      // bytes committed by fresh-file writes, warm-up included
}

func setupGateway(e *env, seed int64) (instance, error) {
	g := &gateway{e: e, seed: seed}
	g.rng = rand.New(rand.NewSource(int64(payloadKey(seed, 7))))
	g.zipf = rand.NewZipf(g.rng, gatewayZipfS, 1, gatewayFiles-1)
	var ids []wire.NodeID
	for i := 0; i < 2; i++ {
		px, err := e.newProxy(fmt.Sprintf("gw%d", i))
		if err != nil {
			return nil, err
		}
		ids = append(ids, px.ID())
	}
	loader, err := e.newClient("load")
	if err != nil {
		return nil, err
	}
	if err := e.awaitMembers(); err != nil {
		return nil, err
	}
	attrs := wire.FileAttrs{ReplDeg: 2, Alpha: 0.5}
	g.content = make([][]byte, gatewayFiles)
	errs := make([]error, gatewayFiles)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8) // preload concurrency
	for k := range g.content {
		g.content[k] = make([]byte, gatewayFileSize)
		fill(g.content[k], payloadKey(seed, 8, int64(k)))
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[k] = createFile(loader, gatewayPath(k), g.content[k], attrs)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for i := range ids {
		// Each edge is sticky to its own proxy and fails over to the other.
		tc, err := e.newEdge(fmt.Sprintf("edge%d", i), ids[i], ids[1-i])
		if err != nil {
			return nil, err
		}
		g.edges = append(g.edges, tc)
		g.fresh = append(g.fresh, nil)
	}
	return g, nil
}

func gatewayPath(k int) string { return fmt.Sprintf("/gw-%03d", k) }

func (g *gateway) run(h *harness, rec *recorder) error {
	h.window(nil, time.Second, g.drive)
	h.window(rec, h.wall, g.drive)
	if tail := quantile(rec.lat["read"], gatewayTailQ); tail > gatewayReadLimit {
		fmt.Fprintf(os.Stderr, "gateway: read p%g %.2f ms is over the %v limit at %.0f req/s\n",
			100*gatewayTailQ, ms(tail), gatewayReadLimit, gatewayRate)
	}
	fmt.Fprintf(os.Stderr, "gateway: generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		ms(quantile(rec.genLate, 0.5)), ms(quantile(rec.genLate, 0.99)), ms(quantile(rec.genLate, 1)))
	if late := quantile(rec.genLate, 0.99); late > gatewayLateLimit {
		rec.problem("generator ran %.2f ms late at p99 (limit %v)", ms(late), gatewayLateLimit)
	}
	// No quiesce: at this write rate the home hosts' repair backlog takes
	// minutes of modeled time to drain, and storedBytes already counts
	// the replicas still missing.
	g.mu.Lock()
	user := float64(gatewayFiles*gatewayFileSize) + float64(g.putBytes)
	g.mu.Unlock()
	rec.stored = float64(g.e.storedBytes()) / user
	g.teardown(rec)
	return nil
}

// drive generates Poisson arrivals over the window and waits for every
// dispatched request. Each request is timed from its due time, so a stall
// also charges the wait it imposes on later arrivals.
func (g *gateway) drive(w *window) {
	clock := g.e.clock
	var wg sync.WaitGroup
	due := w.start
	for {
		due += time.Duration(g.rng.ExpFloat64() / gatewayRate * float64(time.Second))
		if due >= w.end {
			break
		}
		edge := g.rng.Intn(len(g.edges))
		write := g.rng.Float64() < gatewayWriteFrac
		file := int(g.zipf.Uint64())
		off := g.rng.Int63n(gatewayFileSize/gatewayReadSize) * gatewayReadSize
		if d := due - clock.Now(); d > 0 {
			clock.Sleep(d)
		}
		counted := w.counts(due)
		if counted {
			late := clock.Now() - due
			w.rec.mu.Lock()
			w.rec.genLate = append(w.rec.genLate, late)
			w.rec.mu.Unlock()
		}
		kind := "read"
		if write {
			kind = "write"
		}
		if g.inFly.Load() >= gatewayMaxInFlight {
			if counted {
				w.rec.op(kind, 0, fmt.Errorf("refused: %d requests in flight", gatewayMaxInFlight), 0, false)
			}
			continue
		}
		g.inFly.Add(1)
		wg.Add(1)
		go func(due time.Duration) {
			defer wg.Done()
			defer g.inFly.Add(-1)
			if write {
				g.put(w, edge, due, counted)
			} else {
				g.read(w, edge, file, off, due, counted)
			}
		}(due)
	}
	wg.Wait()
}

func (g *gateway) read(w *window, edge, file int, off int64, due time.Duration, counted bool) {
	data, _, _, err := g.edges[edge].Read(gatewayPath(file), off, gatewayReadSize)
	if !counted {
		return
	}
	lat := g.e.clock.Now() - due
	if err == nil && !bytes.Equal(data, g.content[file][off:off+gatewayReadSize]) {
		w.rec.mismatch("read")
		return
	}
	w.rec.op("read", lat, err, gatewayReadSize, false)
	if err == nil {
		w.rec.session()
	}
}

// put writes a fresh file through the edge as one thin write session: a
// PWrite that creates the file, then a PCommit. This is the request pair
// ThinClient.PutFile sends for a payload this small, but under a session
// name of the benchmark's own: PutFile takes its session number from the
// edge's sticky-proxy cursor, so concurrent PutFiles on one edge move each
// other's commits to the other proxy, which fails them with "unknown
// session". Those failures depend on how the host schedules the requests,
// so the failure count would differ between runs of one seed. Failed
// writes count as failed and are not retried.
func (g *gateway) put(w *window, edge int, due time.Duration, counted bool) {
	n := g.puts.Add(1)
	tc := g.edges[edge]
	path := fmt.Sprintf("/put-%d-%08d", edge, n)
	sess := fmt.Sprintf("put-%d", n)
	data := make([]byte, gatewayPutSize)
	fill(data, payloadKey(g.seed, 9, n))
	err := tc.Write(sess, path, 0, data, true, 2)
	if err != nil {
		tc.Abort(sess, path)
	} else {
		_, _, err = tc.Commit(sess, path)
	}
	lat := g.e.clock.Now() - due
	if err == nil {
		g.mu.Lock()
		g.fresh[edge] = append(g.fresh[edge], path)
		g.putBytes += gatewayPutSize
		g.mu.Unlock()
	}
	if counted {
		w.rec.op("write", lat, err, gatewayPutSize, true)
		if err == nil {
			w.rec.session()
		}
	}
}

// teardown unlinks up to gatewayUnlinks fresh files per edge, one at a
// time per edge, and records the unlinks.
func (g *gateway) teardown(rec *recorder) {
	clock := g.e.clock
	var wg sync.WaitGroup
	for i, tc := range g.edges {
		files := g.fresh[i]
		if len(files) > gatewayUnlinks {
			files = files[:gatewayUnlinks]
		}
		wg.Add(1)
		go func(tc *proxy.ThinClient, files []string) {
			defer wg.Done()
			for _, path := range files {
				start := clock.Now()
				err := tc.Remove(path)
				rec.teardownOp(clock.Now()-start, err)
			}
		}(tc, files)
	}
	wg.Wait()
}
