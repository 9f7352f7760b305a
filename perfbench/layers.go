package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"zkperf/internal/circuit"
	"zkperf/internal/provesvc"
	"zkperf/internal/telemetry"
)

// circuitSpec is one circuit a workload serves: the exponentiation
// circuit y = x^e on a curve, under a backend.
type circuitSpec struct {
	curve, backend string
	e              int
	src            string
}

func expCircuit(curve, backend string, e int) circuitSpec {
	return circuitSpec{curve: curve, backend: backend, e: e, src: circuit.ExponentiateSource(e)}
}

// base is the state every workload shares: the service, its handler, the
// circuits, and what the last set-up measured of them.
type base struct {
	seed     uint64
	svc      *provesvc.Service
	h        http.Handler
	circuits []circuitSpec

	buildMs, setupMs, compileMs []float64 // per circuit
}

func (b *base) shared() *base { return b }

// start builds a fresh service and runs the cold registry lookup, which
// compiles the circuit and runs its trusted setup, for every circuit.
func (b *base) start(seed uint64, journalDir string) error {
	svc, err := newService(seed, journalDir)
	if err != nil {
		return err
	}
	b.seed, b.svc, b.h = seed, svc, provesvc.NewHandler(svc)
	b.buildMs, b.setupMs = nil, nil
	for _, c := range b.circuits {
		t0 := time.Now()
		art, err := svc.Registry().Get(context.Background(), c.curve, c.backend, c.src)
		if err != nil {
			return fmt.Errorf("%s/%s x^%d: %w", c.curve, c.backend, c.e, err)
		}
		b.buildMs = append(b.buildMs, ms(time.Since(t0)))
		b.setupMs = append(b.setupMs, ms(art.SetupTime))
	}
	return nil
}

// tearDown stops the service and lets it go, so the next set-up's peak
// memory does not stack on this one's.
func (b *base) tearDown() error {
	err := stopService(b.svc)
	b.svc, b.h = nil, nil
	return err
}

// compileTimes times the circuit compiler on the workload's sources.
func (b *base) compileTimes() error {
	b.compileMs = nil
	for _, c := range b.circuits {
		cv, err := b.svc.Registry().CurveFor(c.curve)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := circuit.CompileSource(cv.Fr, c.src); err != nil {
			return fmt.Errorf("compiling x^%d: %w", c.e, err)
		}
		b.compileMs = append(b.compileMs, ms(time.Since(t0)))
	}
	return nil
}

// kernelTotals is one kernel's cumulative time and work items in the
// service's metrics registry.
type kernelTotals struct {
	seconds float64
	items   float64
}

// scrapeKernels reads the kernel totals from GET /v1/metrics, summed over
// backends and curves.
func scrapeKernels(h http.Handler) map[string]kernelTotals {
	res := serve(h, call{method: "GET", path: "/v1/metrics"})
	out := map[string]kernelTotals{}
	sc := bufio.NewScanner(bytes.NewReader(res.body))
	for sc.Scan() {
		line := sc.Text()
		var isSum bool
		switch {
		case strings.HasPrefix(line, "zkp_kernel_duration_seconds_sum{"):
			isSum = true
		case strings.HasPrefix(line, "zkp_kernel_items_total{"):
		default:
			continue
		}
		kernel := labelValue(line, "kernel")
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if kernel == "" || err != nil {
			continue
		}
		t := out[kernel]
		if isSum {
			t.seconds += v
		} else {
			t.items += v
		}
		out[kernel] = t
	}
	return out
}

func labelValue(line, name string) string {
	i := strings.Index(line, name+`="`)
	if i < 0 {
		return ""
	}
	rest := line[i+len(name)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// stageMs sums the durations of the probe's top-level spans with the
// given stage name.
func stageMs(p *telemetry.Probe, name string) float64 {
	var total time.Duration
	for _, s := range p.Tree().Children {
		if s.Name == name {
			total += s.Duration
		}
	}
	return ms(total)
}

// layerAcc collects the per-layer samples of the traced rounds.
type layerAcc struct {
	mu    sync.Mutex
	sum   map[string]float64
	count map[string]int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sum: map[string]float64{}, count: map[string]int{}}
}

// add records one sample of a per-operation quantity. Safe on nil.
func (a *layerAcc) add(name string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sum[name] += v
	a.count[name]++
	a.mu.Unlock()
}

// probe returns a fresh probe for a traced request, nil otherwise.
func (a *layerAcc) probe() *telemetry.Probe {
	if a == nil {
		return nil
	}
	return telemetry.NewProbe("")
}

func (a *layerAcc) latency(traced bool, d time.Duration) {
	name := "lat.control"
	if traced {
		name = "lat.traced"
	}
	a.mu.Lock()
	a.sum[name] += ms(d)
	a.count[name]++
	a.mu.Unlock()
}

func (a *layerAcc) mean(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.count[name] == 0 {
		return 0
	}
	return a.sum[name] / float64(a.count[name])
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metrics assembles the per-layer metrics of a traced run: per-operation
// means from the traced rounds, kernel totals and process counters as
// differences across the whole window divided by its operations.
func (a *layerAcc) metrics(b *base, before, after processSample, ops int) map[string]metric {
	perOp := func(v float64) float64 { return v / float64(ops) }
	kernel := func(name string) (msPerOp, itemsPerOp, nsPerItem float64) {
		dt := after.kernels[name].seconds - before.kernels[name].seconds
		di := after.kernels[name].items - before.kernels[name].items
		if di > 0 {
			nsPerItem = dt * 1e9 / di
		}
		return perOp(dt * 1e3), perOp(di), nsPerItem
	}
	g1ms, g1pts, g1ns := kernel(telemetry.KernelMSMG1)
	g2ms, g2pts, _ := kernel(telemetry.KernelMSMG2)
	nttMs, nttSize, _ := kernel(telemetry.KernelNTT)
	pairMs, loops, _ := kernel(telemetry.KernelPairing)
	var hitRatio float64
	if n := after.lookups - before.lookups; n > 0 {
		hitRatio = float64(after.hits-before.hits) / float64(n)
	}
	var overhead float64
	if c := a.mean("lat.control"); c > 0 {
		overhead = 100 * (a.mean("lat.traced")/c - 1)
	}
	return map[string]metric{
		"provesvc.http_ms":          {a.mean("provesvc.http_ms"), "ms"},
		"provesvc.queue_wait_ms":    {a.mean("provesvc.queue_wait_ms"), "ms"},
		"provesvc.build_ms":         {meanOf(b.buildMs), "ms"},
		"provesvc.cache_hit_ratio":  {hitRatio, "ratio"},
		"circuit.compile_ms":        {meanOf(b.compileMs), "ms"},
		"backend.setup_ms":          {meanOf(b.setupMs), "ms"},
		"backend.prove_ms":          {a.mean("backend.prove_ms"), "ms"},
		"backend.verify_ms":         {a.mean("backend.verify_ms"), "ms"},
		"witness.solve_ms":          {a.mean("witness.solve_ms"), "ms"},
		"curve.msm_g1_ms":           {g1ms, "ms"},
		"curve.msm_g1_points":       {g1pts, "count"},
		"curve.msm_g1_ns_per_point": {g1ns, "ns"},
		"curve.msm_g2_ms":           {g2ms, "ms"},
		"curve.msm_g2_points":       {g2pts, "count"},
		"poly.ntt_ms":               {nttMs, "ms"},
		"poly.ntt_size":             {nttSize, "count"},
		"pairing.ms":                {pairMs, "ms"},
		"pairing.miller_loops":      {loops, "count"},
		"jobs.submit_ms":            {a.mean("jobs.submit_ms"), "ms"},
		"jobs.wait_ms":              {a.mean("jobs.wait_ms"), "ms"},
		"jobs.run_ms":               {a.mean("jobs.run_ms"), "ms"},
		"jobs.polls_per_job":        {a.mean("jobs.polls"), "count"},
		"jobs.dedup_served":         {float64(after.dedup - before.dedup), "count"},
		"go.cpu_ms_per_op":          {perOp(ms(after.cpu - before.cpu)), "ms"},
		"go.alloc_kb_per_op":        {perOp(float64(after.alloc-before.alloc) / 1024), "KB"},
		"go.gc_per_op":              {perOp(float64(after.gcs - before.gcs)), "count"},
		"trace.overhead_pct":        {overhead, "%"},
	}
}
