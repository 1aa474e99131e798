// Command perfbench is the repository's benchmark. It stands up an
// in-process Sorrento cluster, runs one named workload on a seed, checks
// every read against the content it wrote, and prints each metric by name
// and unit. With --trace 1 it instead runs the workload twice, untraced and
// traced, and prints the per-layer metrics. See README.md.
//
//	perfbench --workload smallfile --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
)

// setupRuns is how many times a run stands the deployment up; setup_s is
// their median and the last one is measured.
const setupRuns = 3

// workload is one named traffic mix.
type workload struct {
	scale bench.Scale
	opts  bench.SorrentoOptions
	// tailQ is the percentile reported as tail.read_ms and tail.write_ms,
	// fixed so that at least ten samples lie beyond it.
	tailQ float64
	setup func(e *env, seed int64) (instance, error)
}

// instance is a workload attached to a stood-up deployment.
type instance interface {
	// run warms the load up, drives the measured windows through h, and
	// records the post-measurement steps into rec.
	run(h *harness, rec *recorder) error
}

var workloads = map[string]workload{
	"smallfile": smallfileWorkload,
	"bulk":      bulkWorkload,
	"gateway":   gatewayWorkload,
}

func main() {
	name := flag.String("workload", "", "workload: smallfile, bulk or gateway")
	seed := flag.Int64("seed", 1, "seed the workload derives every input from")
	seconds := flag.Float64("seconds", 10, "wall seconds of measurement")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	outDir := flag.String("out-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(w, *name, *seed, *seconds, *outDir)
	} else {
		res, err = untracedRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one stood-up and measured deployment.
type pass struct {
	rec    *recorder
	setup  []float64
	layers map[string]float64
	tr     *tracer
}

func runPass(w workload, seed int64, seconds float64, traced bool, setups int) (*pass, error) {
	p := &pass{rec: newRecorder()}
	var (
		e    *env
		inst instance
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		e, err = newEnv(w.scale, w.opts, traced)
		if err != nil {
			return nil, err
		}
		if inst, err = w.setup(e, seed); err != nil {
			e.close()
			return nil, fmt.Errorf("set up: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if i < setups-1 {
			e.close()
		}
	}
	defer e.close()
	h := &harness{e: e, wall: time.Duration(seconds * float64(time.Second))}
	if traced {
		h.layers = newLayers(e)
	}
	if err := inst.run(h, p.rec); err != nil {
		return nil, err
	}
	if traced {
		p.layers = perLayer(e, h.layers, p.rec, p.rec.modeled)
		p.tr = e.tr
	}
	return p, nil
}

func untracedRun(w workload, seed int64, seconds float64) (*result, error) {
	p, err := runPass(w, seed, seconds, false, setupRuns)
	if err != nil {
		return nil, err
	}
	rec := p.rec
	rec.summary(w.tailQ)
	mb := float64(rec.bytes) * float64(w.scale.Data) / 1e6
	rss := peakRSSMiB()
	m := map[string]metric{
		"read_p50_ms":                {rec.quantileMs("read", 0.5), "ms"},
		"write_p50_ms":               {rec.quantileMs("write", 0.5), "ms"},
		"unlink_p50_ms":              {rec.quantileMs("unlink", 0.5), "ms"},
		"sessions_per_s":             {float64(rec.sessions) / rec.modeled.Seconds(), "1/s"},
		"mb_per_s":                   {mb / rec.modeled.Seconds(), "MB/s"},
		"stored_bytes_per_user_byte": {rec.stored, "ratio"},
		"ok_frac":                    {rec.okFrac(), "ratio"},
		"cpu_per_modeled_s":          {rec.cpu / rec.modeled.Seconds(), "s/s"},
		"wall_per_modeled_s":         {rec.wall.Seconds() / rec.modeled.Seconds(), "s/s"},
		"setup_s":                    {median(p.setup), "s"},
		"rss_peak_mb":                {rss, "MiB"},
	}
	return rec.result(m), nil
}

// tracedRun measures the workload untraced and then traced, each for half
// the seconds, and reports the per-layer metrics plus the tracing overhead
// on read_p50_ms. Spans are written to outDir.
func tracedRun(w workload, name string, seed int64, seconds float64, outDir string) (*result, error) {
	base, err := runPass(w, seed, seconds/2, false, 1)
	if err != nil {
		return nil, err
	}
	tp, err := runPass(w, seed, seconds/2, true, 1)
	if err != nil {
		return nil, err
	}
	if err := tp.tr.writeSpans(spanFile(outDir, name, seed)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	m := map[string]metric{}
	for k, unit := range layerUnits {
		m[k] = metric{tp.layers[k], unit} // 0 where the layer does no such work
	}
	// The tails are diagnostics: on a wall-coupled clock they move with
	// host scheduling noise by more than a tenth between runs. They come
	// from the untraced pass.
	base.rec.summary(w.tailQ)
	m["tail.read_ms"] = metric{base.rec.quantileMs("read", w.tailQ), "ms"}
	m["tail.write_ms"] = metric{base.rec.quantileMs("write", w.tailQ), "ms"}
	baseP50 := base.rec.quantileMs("read", 0.5)
	m["trace.overhead_frac"] = metric{tp.rec.quantileMs("read", 0.5)/baseP50 - 1, "ratio"}
	fmt.Fprintf(os.Stderr, "trace: read_p50 untraced %.3f ms, traced %.3f ms\n",
		baseP50, tp.rec.quantileMs("read", 0.5))
	res := tp.rec.result(m)
	b := base.rec.result(nil)
	res.Correct = res.Correct && b.Correct
	res.Attempted += b.Attempted
	res.Failed += b.Failed
	return res, nil
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"core.self_ms_per_read":           "ms",
	"core.self_ms_per_write":          "ms",
	"core.rpc_error_frac":             "ratio",
	"core.cpu_us_per_op":              "us",
	"core.allocs_per_op":              "count",
	"namespace.rtts_per_read":         "count",
	"namespace.rtts_per_write":        "count",
	"namespace.rtts_per_unlink":       "count",
	"namespace.ms_per_write":          "ms",
	"namespace.cpu_util":              "ratio",
	"namespace.backlog_ms":            "ms",
	"locate.queries_per_op":           "count",
	"locate.probes_per_op":            "count",
	"locate.ms_per_op":                "ms",
	"provider.prepare_ms":             "ms",
	"provider.commit_ms":              "ms",
	"provider.2pc_rounds_per_write":   "count",
	"provider.shadow_ms":              "ms",
	"provider.segread_ms":             "ms",
	"provider.fetch_ms":               "ms",
	"replication.bytes_per_user_byte": "ratio",
	"replication.pulls_per_write":     "count",
	"replication.pending_repairs_end": "count",
	"simnet.nic_util_max":             "ratio",
	"simnet.nic_util_mean":            "ratio",
	"simnet.nic_backlog_ms":           "ms",
	"simnet.wire_bytes_per_user_byte": "ratio",
	"disk.util_max":                   "ratio",
	"disk.util_mean":                  "ratio",
	"disk.backlog_ms":                 "ms",
	"disk.ios_per_op":                 "count",
	"proxy.self_ms_per_read":          "ms",
	"proxy.coalesced_frac":            "ratio",
	"proxy.lookups_per_read":          "count",
	"simtime.gen_late_ms":             "ms",
	"trace.overhead_frac":             "ratio",
	"tail.read_ms":                    "ms",
	"tail.write_ms":                   "ms",
}

// harness runs a workload's windows on one deployment.
type harness struct {
	e      *env
	wall   time.Duration // measured wall time of the whole run
	layers *layers       // nil when untraced
}

// window is one stretch of modeled time over which streams drive load.
// Ops that start inside [start, end) are recorded; rec is nil during
// warm-up.
type window struct {
	rec        *recorder
	start, end time.Duration
	h          *harness
}

// counts reports whether an op starting at t is measured.
func (w *window) counts(t time.Duration) bool {
	return w.rec != nil && t >= w.start && t < w.end
}

// over reports whether the window's time is up.
func (w *window) over() bool { return w.h.e.clock.Now() >= w.end }

// window drives load for wall of wall time. For a measured window (rec
// non-nil) it accounts wall, modeled and CPU time up to the window's end
// and, in a traced run, turns tracing and sampling on for it; drive must
// return once its streams have stopped.
func (h *harness) window(rec *recorder, wall time.Duration, drive func(w *window)) {
	clock := h.e.clock
	now := clock.Now()
	w := &window{rec: rec, start: now, end: now + clock.Modeled(wall), h: h}
	if rec == nil {
		drive(w)
		return
	}
	if h.layers != nil {
		h.layers.begin()
		h.e.tr.active.Store(true)
	}
	wall0, cpu0 := time.Now(), mustCPU()
	done := make(chan struct{})
	go func() {
		defer close(done)
		drive(w)
	}()
	if d := w.end - clock.Now(); d > 0 {
		clock.Sleep(d)
	}
	wallD, cpu1 := time.Since(wall0), mustCPU()
	modeled := clock.Now() - w.start
	if h.layers != nil {
		h.layers.finish()
	}
	<-done
	if h.layers != nil {
		h.e.tr.active.Store(false)
	}
	rec.mu.Lock()
	rec.modeled += modeled
	rec.wall += wallD
	rec.cpu += cpu1 - cpu0
	rec.mu.Unlock()
}

// recorder collects one run's measured ops.
type recorder struct {
	mu       sync.Mutex
	lat      map[string][]time.Duration // successful ops' modeled latency
	attempts map[string]int
	fails    map[string]int
	wrong    int   // reads whose bytes differed from the content model
	bytes    int64 // user bytes (scaled) moved by successful measured ops
	written  int64 // of which written
	sessions int
	teardown int             // ops recorded after the measured windows
	genLate  []time.Duration // open-loop dispatch lateness
	problems []string        // validity failures

	modeled, wall time.Duration
	cpu           float64
	stored        float64 // stored bytes per user byte after quiesce
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]time.Duration{}, attempts: map[string]int{}, fails: map[string]int{}}
}

// op records one measured op of kind: its modeled latency, failure, and
// the user bytes it moved when it succeeded.
func (r *recorder) op(kind string, lat time.Duration, err error, moved int64, write bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts[kind]++
	if err != nil {
		if r.fails[kind]++; r.fails[kind] <= 3 {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", kind, err)
		}
		return
	}
	r.lat[kind] = append(r.lat[kind], lat)
	r.bytes += moved
	if write {
		r.written += moved
	}
}

// mismatch records a read whose bytes were wrong; the op counts as failed.
func (r *recorder) mismatch(kind string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts[kind]++
	r.fails[kind]++
	r.wrong++
}

// teardownOp records an unlink made after the measured windows: it counts
// toward unlink_p50_ms and the failure counts, but no traced window saw it.
func (r *recorder) teardownOp(lat time.Duration, err error) {
	r.op("unlink", lat, err, 0, false)
	r.mu.Lock()
	r.teardown++
	r.mu.Unlock()
}

func (r *recorder) session() {
	r.mu.Lock()
	r.sessions++
	r.mu.Unlock()
}

func (r *recorder) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *recorder) totalAttempts() int {
	n := 0
	for _, v := range r.attempts {
		n += v
	}
	return n
}

func (r *recorder) totalFails() int {
	n := 0
	for _, v := range r.fails {
		n += v
	}
	return n
}

func (r *recorder) okFrac() float64 {
	a := r.totalAttempts()
	if a == 0 {
		return 0
	}
	return float64(a-r.totalFails()) / float64(a)
}

func (r *recorder) quantileMs(kind string, q float64) float64 {
	return ms(quantile(r.lat[kind], q))
}

func (r *recorder) genLateMs() float64 {
	return ms(quantile(r.genLate, 0.99))
}

// summary prints per-op sample counts and failures to stderr.
func (r *recorder) summary(tailQ float64) {
	kinds := make([]string, 0, len(r.attempts))
	for k := range r.attempts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		n := len(r.lat[k])
		fmt.Fprintf(os.Stderr, "%-7s attempted %d failed %d p50 %.3f ms p%g %.3f ms (%d samples beyond)\n",
			k, r.attempts[k], r.fails[k], r.quantileMs(k, 0.5), tailQ*100, r.quantileMs(k, tailQ),
			n-int(float64(n)*tailQ))
	}
	fmt.Fprintf(os.Stderr, "modeled %.2f s, wall %.2f s, %d sessions\n", r.modeled.Seconds(), r.wall.Seconds(), r.sessions)
}

// result assembles the output line. A run is correct when no read
// returned wrong bytes and every validity check held.
func (r *recorder) result(m map[string]metric) *result {
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "invalid run: %s\n", p)
	}
	if r.wrong > 0 {
		fmt.Fprintf(os.Stderr, "invalid run: %d reads returned wrong bytes\n", r.wrong)
	}
	return &result{
		Correct:   r.wrong == 0 && len(r.problems) == 0 && r.totalAttempts() > 0,
		Attempted: r.totalAttempts(),
		Failed:    r.totalFails(),
		Metrics:   m,
	}
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)) + 0.999999999)
	if idx < 1 {
		idx = 1
	}
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the process's user+system CPU seconds.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

func mustCPU() float64 {
	v, err := processCPU()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
		os.Exit(1)
	}
	return v
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spanFile names the traced run's span output.
func spanFile(dir, name string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
}
