// Command perfbench measures the proving service end to end and per
// layer. It drives an in-process provesvc.Service, configured as zkserve
// configures it at its default flags, through provesvc.NewHandler with
// JSON bodies and no sockets, from a closed loop of at most GOMAXPROCS
// client goroutines.
//
//	perfbench --workload prove-large --seed 1 --seconds 30 --trace 0
//
// A run sets the workload up several times and reports the median set-up
// time, runs warm-up rounds, then measures whole rounds of requests for
// --seconds. It checks every output against computations of its own and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// procStart stands in for the process start: the first set-up is timed
// from here.
var procStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// blocks is how many consecutive groups of whole rounds the measured
// window is cut into. ops_per_s, p50_ms and tail_ms are each the median
// of their values over the blocks, so load from outside the process that
// slows less than half the window moves them little.
const blocks = 8

// spec is the fixed shape of a workload.
type spec struct {
	name       string
	clients    int     // closed-loop client goroutines
	roundSize  int     // operations per round; runs attempt whole rounds
	warmRounds int     // rounds run before the measured window
	tail       float64 // the percentile tail_ms reports
}

// outcome is one operation as the client saw it.
type outcome struct {
	lat   time.Duration
	done  time.Time // when the client had the answer; drive sets it
	err   error     // the request failed, or its output failed a check
	wrong bool      // err is a failed correctness check
}

// workload is one traffic mix against a fresh service.
type workload interface {
	spec() spec
	// setUp starts a fresh service and does everything the workload
	// needs before its first request: compile and trusted setup for every
	// circuit, and any proofs its requests carry.
	setUp(seed uint64, dir string) error
	// tearDown stops the service setUp started.
	tearDown() error
	// do runs operation i of the seed's sequence; with tr set it records
	// the operation's layers into tr.
	do(i int, tr *layerAcc) outcome
	// check runs the untimed checks after the window and returns how many
	// operations they fail.
	check() (failed int, err error)
	// shared is the state common to all workloads.
	shared() *base
}

var workloads = map[string]func() workload{
	"prove-large": func() workload { return newProveLarge() },
	"verify-mix":  func() workload { return newVerifyMix() },
	"jobs-small":  func() workload { return newJobsSmall() },
}

func main() {
	name := flag.String("workload", "", "workload to run: prove-large, verify-mix or jobs-small")
	seed := flag.Uint64("seed", 1, "seed of the request sequence and the service RNG")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload prove-large|verify-mix|jobs-small, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(mk(), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
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

func run(w workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	sp := w.spec()
	// Scratch space (the job journal) lives in the working directory, not
	// in the system temp directory, and goes when the run ends.
	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var setups []float64
	for r := 0; r < setupReps; r++ {
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if r == 0 {
			t0 = procStart
		}
		if err := w.setUp(seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupReps-1 {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			runtime.GC()
		}
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s: set-ups took %.3f s\n", sp.name, setups)
	warm := sp.warmRounds * sp.roundSize
	for _, o := range drive(w, sp, 0, warm, time.Time{}, nil) {
		if o.err != nil {
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}

	var acc *layerAcc
	if traced {
		acc = newLayerAcc()
	}
	runtime.GC()
	before := sampleProcess(w.shared())
	t0 := time.Now()
	outs := drive(w, sp, warm, -1, t0.Add(window), acc)
	after := sampleProcess(w.shared())
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: len(outs)}
	for i, o := range outs {
		if o.err != nil {
			res.Failed++
			res.Correct = res.Correct && !o.wrong
			fmt.Fprintf(os.Stderr, "perfbench: operation %d: %v\n", warm+i, o.err)
		}
	}
	answered := len(outs) - res.Failed
	bad, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	if bad > 0 {
		res.Failed += bad
		res.Correct = false
	}
	if acc != nil {
		if err := w.shared().compileTimes(); err != nil {
			return nil, err
		}
	}
	if err := w.tearDown(); err != nil {
		return nil, err
	}

	if rule := tailPercentile(answered); rule < sp.tail {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples support p%g only; tail_ms is p%g\n", sp.name, answered, rule, sp.tail)
	}
	if traced {
		res.Metrics = acc.metrics(w.shared(), before, after, len(outs))
	} else {
		rate, p50, tail := windowStats(outs, sp.roundSize, t0, sp.tail)
		res.Metrics = endToEnd(setups, rate, p50, tail, rss)
	}
	return res, nil
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(setups []float64, rate, p50, tail, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"ops_per_s":   {rate, "1/s"},
		"p50_ms":      {p50, "ms"},
		"tail_ms":     {tail, "ms"},
		"rss_peak_mb": {rssMB, "MB"},
	}
}

// windowStats cuts the window's outcomes, which start at t0 and hold
// whole rounds of roundSize, into up to `blocks` groups of whole rounds
// and returns the medians over the groups of the operations per second,
// the median latency and the tail percentile of the latencies. A group's
// time runs from the last answer of the group before it to its own last
// answer. Failed operations count in the rate, not in the latencies.
func windowStats(outs []outcome, roundSize int, t0 time.Time, tail float64) (rate, p50, tailMs float64) {
	rounds := len(outs) / roundSize
	n := min(blocks, rounds)
	var rates, p50s, tails []float64
	prev := t0
	for b := 0; b < n; b++ {
		lo, hi := b*rounds/n*roundSize, (b+1)*rounds/n*roundSize
		end := prev
		var lats []time.Duration
		for _, o := range outs[lo:hi] {
			if o.done.After(end) {
				end = o.done
			}
			if o.err == nil {
				lats = append(lats, o.lat)
			}
		}
		rates = append(rates, float64(hi-lo)/end.Sub(prev).Seconds())
		p50s = append(p50s, ms(percentile(lats, 50)))
		tails = append(tails, ms(percentile(lats, tail)))
		prev = end
	}
	return median(rates), median(p50s), median(tails)
}

// drive runs operations from index `from` on sp.clients goroutines. With
// a zero deadline it runs exactly n operations; otherwise it starts
// rounds until the deadline and finishes the round in progress, so every
// run attempts whole rounds. Outcomes come back in operation order.
func drive(w workload, sp spec, from, n int, deadline time.Time, acc *layerAcc) []outcome {
	d := &dispenser{next: from, limit: -1, roundSize: sp.roundSize, deadline: deadline}
	if deadline.IsZero() {
		d.limit = from + n
	}
	var mu sync.Mutex
	outs := map[int]outcome{}
	var wg sync.WaitGroup
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				var tr *layerAcc
				if acc != nil && (i/sp.roundSize)%2 == 1 {
					tr = acc // odd rounds are traced, even ones are the control
				}
				o := w.do(i, tr)
				o.done = time.Now()
				if acc != nil {
					acc.latency(tr != nil, o.lat)
				}
				mu.Lock()
				outs[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	list := make([]outcome, 0, len(outs))
	for i := from; i < from+len(outs); i++ {
		list = append(list, outs[i])
	}
	return list
}

// dispenser hands out operation indices to the clients. Past the
// deadline it refuses the first index of a new round and everything
// after it.
type dispenser struct {
	mu        sync.Mutex
	next      int
	limit     int // -1: not yet cut
	roundSize int
	deadline  time.Time
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.limit < 0 && d.next%d.roundSize == 0 && time.Now().After(d.deadline) {
		d.limit = d.next
	}
	if d.limit >= 0 && d.next >= d.limit {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// peakRSS is the process's peak resident set in MB: getrusage's
// ru_maxrss, the high-water mark /proc/self/status shows as VmHWM.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// processSample is the process-wide state the per-layer metrics take
// differences of across the measured window.
type processSample struct {
	cpu           time.Duration // user + system, from getrusage
	alloc, gcs    uint64
	kernels       map[string]kernelTotals
	hits, lookups uint64
	dedup         uint64
}

func sampleProcess(b *base) processSample {
	var s processSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.alloc, s.gcs = m.TotalAlloc, uint64(m.NumGC)
	s.kernels = scrapeKernels(b.h)
	reg := b.svc.Registry()
	s.hits = reg.Hits()
	s.lookups = reg.Hits() + reg.Misses()
	s.dedup = b.svc.Stats().Jobs.Journal.DedupHits
	return s
}
