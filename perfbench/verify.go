package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"os"
	"sync"

	"zkperf/internal/telemetry"
)

type verifyReply struct {
	Valid bool `json:"valid"`
}

type verifyBatchReply struct {
	Results []struct {
		Valid *bool          `json:"valid"`
		Error map[string]any `json:"error"`
	} `json:"results"`
}

// Request kinds of verify-mix. A, B and C are single verifies of a
// Groth16 BN254, Groth16 BLS12-381 and PLONK BN254 proof; D is a
// /v1/verify/batch of batchItems Groth16 BN254 proofs.
const (
	kindA = iota
	kindB
	kindC
	kindD
)

// mixOrder is one round of verify-mix: 12 A, 2 B, 2 C and 2 D. The A's,
// the fastest kind, are two thirds of the requests, so the median sits
// well inside them; the batches are the slowest ninth, which holds p95.
var mixOrder = []int{
	kindA, kindA, kindB, kindA, kindD, kindA, kindA, kindC, kindA,
	kindA, kindB, kindA, kindD, kindA, kindA, kindC, kindA, kindA,
}

const batchItems = 16

// poolSize is how many proofs set-up makes of each single kind's
// circuit; the requests draw from them.
var poolSize = [3]int{4, 1, 1}

// pooled is a proof made before the run, with the statement it proves.
type pooled struct {
	proof string
	y     *big.Int
}

// item is one proof a verify request carries: which pooled proof, and
// whether its public output was tampered with.
type item struct {
	kind, proof int
	tampered    bool
}

// verifyMix is the verifier's mix of single and batched verifies over
// proofs made during set-up. One item in eight is tampered (public output
// + 1) and must come back invalid.
type verifyMix struct {
	base
	pool [3][]pooled

	mu      sync.Mutex
	batches map[int][]itemVerdict // batch operation -> its items' verdicts
}

type itemVerdict struct {
	item
	valid bool
}

func newVerifyMix() *verifyMix {
	return &verifyMix{batches: map[int][]itemVerdict{}, base: base{circuits: []circuitSpec{
		expCircuit("bn128", "groth16", 1<<8),
		expCircuit("bls12-381", "groth16", 1<<8),
		expCircuit("bn128", "plonk", 1<<8),
	}}}
}

func (w *verifyMix) spec() spec {
	return spec{name: "verify-mix", clients: 1, roundSize: len(mixOrder), warmRounds: 1, tail: 95}
}

// setUp starts the service and proves the pool through one
// /v1/prove/batch call, which spreads it over the workers.
func (w *verifyMix) setUp(seed uint64, _ string) error {
	if err := w.start(seed, ""); err != nil {
		return err
	}
	var items []any
	var xs []*big.Int
	for k := range poolSize {
		c := w.circuits[k]
		rng := opRNG(^seed, k)
		for j := 0; j < poolSize[k]; j++ {
			x := randScalar(rng, c.curve)
			xs = append(xs, x)
			items = append(items, proveBody(c, x))
		}
	}
	var reply struct {
		Results []struct {
			proveReply
			Error map[string]any `json:"error"`
		} `json:"results"`
	}
	if err := serve(w.h, call{method: "POST", path: "/v1/prove/batch", body: mustJSON(map[string]any{"items": items})}).decode(200, &reply); err != nil {
		return fmt.Errorf("proving the pool: %w", err)
	}
	if len(reply.Results) != len(items) {
		return fmt.Errorf("proving the pool: %d results for %d items", len(reply.Results), len(items))
	}
	n := 0
	for k := range poolSize {
		c := w.circuits[k]
		w.pool[k] = nil
		for j := 0; j < poolSize[k]; j++ {
			r := reply.Results[n]
			if r.Error != nil {
				return fmt.Errorf("proving the pool: %v", r.Error)
			}
			if err := checkOutput(c.curve, r.Public, xs[n], c.e); err != nil {
				return fmt.Errorf("pool proof %d of %s/%s: %w", j, c.curve, c.backend, err)
			}
			w.pool[k] = append(w.pool[k], pooled{proof: r.Proof, y: expOutput(c.curve, xs[n], c.e)})
			n++
		}
	}
	return nil
}

// roundPlan is what a round's seed decides: which A and which B or C
// request carries a tampered statement.
func roundPlan(seed uint64, round int) (tamperedA, tamperedBC int) {
	rng := rand.New(rand.NewPCG(seed, uint64(round)|1<<63))
	return rng.IntN(12), rng.IntN(4)
}

// opItems is the list of proofs operation i verifies, with the request
// kind. The sequence depends on the seed and i alone.
func opItems(seed uint64, i int) (kind int, items []item) {
	round, pos := i/len(mixOrder), i%len(mixOrder)
	kind = mixOrder[pos]
	// group puts B and C together: a round tampers one of the four.
	group := func(k int) int {
		if k == kindC {
			return kindB
		}
		return k
	}
	nth := 0 // this request's place among the round's requests of its group
	for _, k := range mixOrder[:pos] {
		if group(k) == group(kind) {
			nth++
		}
	}
	rng := opRNG(seed, i)
	if kind == kindD {
		items = make([]item, batchItems)
		for j := range items {
			items[j] = item{kind: kindA, proof: rng.IntN(poolSize[kindA])}
		}
		// Two in sixteen tampered, one in each half: the bisection that
		// finds them then takes the same steps wherever they sit.
		items[rng.IntN(batchItems/2)].tampered = true
		items[batchItems/2+rng.IntN(batchItems/2)].tampered = true
		return kind, items
	}
	tA, tBC := roundPlan(seed, round)
	tampered := (kind == kindA && nth == tA) || (kind != kindA && nth == tBC)
	return kind, []item{{kind: kind, proof: rng.IntN(poolSize[kind]), tampered: tampered}}
}

// body is the verify body of one item.
func (w *verifyMix) body(it item) map[string]any {
	c := w.circuits[it.kind]
	p := w.pool[it.kind][it.proof]
	y := p.y
	if it.tampered {
		y = tamper(c.curve, y)
	}
	return verifyBody(c, p.proof, []string{y.String()})
}

func (w *verifyMix) do(i int, tr *layerAcc) outcome {
	kind, items := opItems(w.seed, i)
	probe := tr.probe()
	var res response
	if kind != kindD {
		res = serve(w.h, call{method: "POST", path: "/v1/verify", body: mustJSON(w.body(items[0])), probe: probe})
		var reply verifyReply
		if err := res.decode(200, &reply); err != nil {
			return outcome{lat: res.took, err: err}
		}
		if reply.Valid == items[0].tampered {
			return outcome{lat: res.took, err: fmt.Errorf("verify of %+v answered valid=%v", items[0], reply.Valid), wrong: true}
		}
	} else {
		list := make([]any, len(items))
		for j, it := range items {
			list[j] = w.body(it)
		}
		res = serve(w.h, call{method: "POST", path: "/v1/verify/batch", body: mustJSON(map[string]any{"items": list}), probe: probe})
		var reply verifyBatchReply
		if err := res.decode(200, &reply); err != nil {
			return outcome{lat: res.took, err: err}
		}
		if len(reply.Results) != len(items) {
			return outcome{lat: res.took, err: fmt.Errorf("batch answered %d of %d items", len(reply.Results), len(items)), wrong: true}
		}
		verdicts := make([]itemVerdict, len(items))
		for j, r := range reply.Results {
			if r.Valid == nil {
				return outcome{lat: res.took, err: fmt.Errorf("batch item %d failed: %v", j, r.Error)}
			}
			if *r.Valid == items[j].tampered {
				return outcome{lat: res.took, err: fmt.Errorf("batch item %d %+v answered valid=%v", j, items[j], *r.Valid), wrong: true}
			}
			verdicts[j] = itemVerdict{items[j], *r.Valid}
		}
		w.mu.Lock()
		w.batches[i] = verdicts
		w.mu.Unlock()
	}
	if tr != nil {
		verify := stageMs(probe, telemetry.StageVerify)
		tr.add("provesvc.http_ms", ms(res.took)-verify)
		tr.add("backend.verify_ms", verify)
	}
	return outcome{lat: res.took}
}

// check verifies every pooled proof, intact and tampered, with a single
// /v1/verify outside the window, and holds each batch item's verdict
// against the single verdict for the same item.
func (w *verifyMix) check() (int, error) {
	single := map[item]bool{}
	bad := 0
	for k := range poolSize {
		for j := range w.pool[k] {
			for _, t := range []bool{false, true} {
				it := item{kind: k, proof: j, tampered: t}
				var reply verifyReply
				if err := serve(w.h, call{method: "POST", path: "/v1/verify", body: mustJSON(w.body(it))}).decode(200, &reply); err != nil {
					return 0, fmt.Errorf("single verify of %+v: %w", it, err)
				}
				single[it] = reply.Valid
				if reply.Valid == t {
					bad++
					fmt.Fprintf(os.Stderr, "perfbench: single verify of %+v answered valid=%v\n", it, reply.Valid)
				}
			}
		}
	}
	for op, verdicts := range w.batches {
		for _, v := range verdicts {
			if v.valid != single[v.item] {
				bad++
				fmt.Fprintf(os.Stderr, "perfbench: batch %d: %+v answered valid=%v, single verify %v\n", op, v.item, v.valid, single[v.item])
				break
			}
		}
	}
	return bad, nil
}
