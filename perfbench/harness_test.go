package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {20, 50}, {39, 50}, // fewer than forty: the median alone
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {100000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// The rule itself: at least ten samples beyond the chosen percentile,
	// fewer than ten beyond the next candidate up.
	for n := 40; n < 20000; n += 7 {
		p := tailPercentile(n)
		if beyond := n - rank(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
		for i, c := range tailCandidates {
			if c == p && i+1 < len(tailCandidates) {
				if next := tailCandidates[i+1]; n-rank(next, n) >= 10 {
					t.Fatalf("n=%d: p%g has ten samples beyond it but p%g was chosen", n, next, p)
				}
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{50: 50, 75: 75, 90: 90, 95: 95, 99: 99, 99.9: 100} {
		if got := percentile(s, p); got != want*time.Millisecond {
			t.Errorf("p%g = %v, want %v", p, got, want*time.Millisecond)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestWindowStats checks the block medians: a slow stretch inside fewer
// than half the blocks leaves them where the rest of the window puts them,
// failed operations count in the rate only, and a window of fewer rounds
// than blocks makes one block per round.
func TestWindowStats(t *testing.T) {
	t0 := time.Unix(1000, 0)
	window := func(rounds, roundSize int, slow map[int]bool) []outcome {
		var outs []outcome
		at := t0
		for i := 0; i < rounds*roundSize; i++ {
			lat := 10 * time.Millisecond
			if slow[i/roundSize] {
				lat *= 10
			}
			at = at.Add(lat)
			outs = append(outs, outcome{lat: lat, done: at})
		}
		return outs
	}
	// 16 rounds of 4: eight blocks of two rounds; rounds 4 to 7 (two
	// blocks) run ten times slower.
	outs := window(16, 4, map[int]bool{4: true, 5: true, 6: true, 7: true})
	outs[1].err = fmt.Errorf("failed")
	outs[1].lat = time.Hour
	rate, p50, tail := windowStats(outs, 4, t0, 95)
	if rate != 100 || p50 != 10 || tail != 10 {
		t.Errorf("rate %g/s, p50 %g ms, tail %g ms; want 100, 10, 10", rate, p50, tail)
	}
	// Five slow blocks of eight: the medians are the slow ones.
	outs = window(16, 4, map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true})
	if rate, p50, _ := windowStats(outs, 4, t0, 95); rate != 10 || p50 != 100 {
		t.Errorf("mostly slow: rate %g/s, p50 %g ms; want 10, 100", rate, p50)
	}
	// Three rounds: three blocks, the middle one slow.
	outs = window(3, 2, map[int]bool{1: true})
	if rate, p50, tail := windowStats(outs, 2, t0, 95); rate != 100 || p50 != 10 || tail != 10 {
		t.Errorf("three rounds: rate %g/s, p50 %g ms, tail %g ms; want 100, 10, 10", rate, p50, tail)
	}
}

// sequence renders the first n operations a workload would send under
// seed, as comparable text.
func sequence(name string, seed uint64, n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		switch name {
		case "prove-large":
			b.WriteString(randScalar(opRNG(seed, i), "bn128").String())
		case "verify-mix":
			kind, items := opItems(seed, i)
			fmt.Fprintf(&b, "%d %+v", kind, items)
		case "jobs-small":
			op := jobOpFor(seed, i)
			fmt.Fprintf(&b, "%d %s %s %d", op.circuit, op.x, op.key, op.dedupOf)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSeedFixesSequence(t *testing.T) {
	for name := range workloads {
		a, b := sequence(name, 7, 200), sequence(name, 7, 200)
		if a != b {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if a == sequence(name, 8, 200) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

func TestRoundsAreAlike(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for round := 0; round < 10; round++ {
			// verify-mix: one item in eight tampered, in the same kinds.
			var items, tampered int
			kinds := map[int]int{}
			for pos := range mixOrder {
				kind, its := opItems(seed, round*len(mixOrder)+pos)
				kinds[kind]++
				for _, it := range its {
					items++
					if it.tampered {
						tampered++
					}
				}
			}
			if items != 8*tampered || !reflect.DeepEqual(kinds, map[int]int{kindA: 12, kindB: 2, kindC: 2, kindD: 2}) {
				t.Fatalf("verify-mix seed %d round %d: %d of %d items tampered, kinds %v", seed, round, tampered, items, kinds)
			}
			// jobs-small: seven fresh submits, then one repeat of a key
			// from earlier in the same round.
			keys := map[string]int{}
			for pos := 0; pos < jobsRound; pos++ {
				i := round*jobsRound + pos
				op := jobOpFor(seed, i)
				if (op.dedupOf >= 0) != (pos == jobsRound-1) {
					t.Fatalf("jobs-small seed %d op %d: dedupOf %d", seed, i, op.dedupOf)
				}
				if op.dedupOf >= 0 {
					if op.dedupOf < round*jobsRound || op.dedupOf >= i || keys[op.key] != op.dedupOf+1 {
						t.Fatalf("jobs-small seed %d op %d repeats op %d (key %s)", seed, i, op.dedupOf, op.key)
					}
					continue
				}
				keys[op.key] = i + 1
			}
		}
	}
}

func TestTamperMakesAFalseStatement(t *testing.T) {
	for curve, r := range scalarModulus {
		rng := opRNG(1, 0)
		xs := []*big.Int{big.NewInt(1), new(big.Int).Sub(r, big.NewInt(1))}
		for i := 0; i < 200; i++ {
			xs = append(xs, randScalar(rng, curve))
		}
		for _, x := range xs {
			if x.Sign() <= 0 || x.Cmp(r) >= 0 {
				t.Fatalf("%s: x = %s is outside [1, r)", curve, x)
			}
			for _, e := range []int{1, 2, 255, 256, 4096} {
				y := expOutput(curve, x, e)
				if err := checkOutput(curve, []string{y.String()}, x, e); err != nil {
					t.Fatalf("%s: true statement rejected: %v", curve, err)
				}
				if err := checkOutput(curve, []string{tamper(curve, y).String()}, x, e); err == nil {
					t.Fatalf("%s: tampered output of x=%s e=%d passes", curve, x, e)
				}
			}
		}
		// The wrap: r-1 tampers to 0, which no nonzero x reaches.
		if got := tamper(curve, new(big.Int).Sub(r, big.NewInt(1))); got.Sign() != 0 {
			t.Errorf("%s: tamper(r-1) = %s, want 0", curve, got)
		}
	}
}

// benchmarkFile is the fixed form of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json does not parse into its fixed form: %v", err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"perfbench"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		mk, ok := workloads[w.Name]
		if !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown to the program, or its why is empty or too long", w.Name)
		} else if got := mk().spec().name; got != w.Name {
			t.Errorf("workload %q names itself %q", w.Name, got)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"jobs-small", "prove-large", "verify-mix"}) {
		t.Errorf("workloads %v", names)
	}

	// Every metric the file names is one the program prints, in the same
	// unit, and nothing else.
	e2e := endToEnd([]float64{1}, 1, 1, 1, 1)
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): the program prints %+v", m.Name, m.Unit, got)
		}
		delete(e2e, m.Name)
	}
	if len(e2e) > 0 {
		t.Errorf("the program prints end-to-end metrics the file does not name: %v", e2e)
	}
	var sb base
	layers := newLayerAcc().metrics(&sb, processSample{}, processSample{}, 1)
	for _, m := range f.PerLayer {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): the program prints %+v", m.Name, m.Unit, got)
		}
		delete(layers, m.Name)
	}
	if len(layers) > 0 {
		t.Errorf("the program prints per-layer metrics the file does not name: %v", layers)
	}
}
