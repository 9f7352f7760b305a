package main

import (
	"fmt"
	"math/big"
	"os"
	"sync"

	"zkperf/internal/telemetry"
)

// proveReply is the body of a successful prove, and the result of a
// finished prove job.
type proveReply struct {
	Proof       string   `json:"proof"`
	Public      []string `json:"public"`
	QueueWaitMs float64  `json:"queue_wait_ms"`
	WitnessMs   float64  `json:"witness_ms"`
	ProveMs     float64  `json:"prove_ms"`
	TotalMs     float64  `json:"total_ms"`
}

func proveBody(c circuitSpec, x *big.Int) map[string]any {
	return map[string]any{
		"curve": c.curve, "backend": c.backend, "circuit": c.src,
		"inputs": map[string]string{"x": x.String()},
	}
}

func verifyBody(c circuitSpec, proof string, public []string) map[string]any {
	return map[string]any{
		"curve": c.curve, "backend": c.backend, "circuit": c.src,
		"proof": proof, "public": public,
	}
}

// provedOp is a proof an operation got back, kept for the checks after
// the window.
type provedOp struct {
	op      int
	circuit int
	proof   string
	public  []string
}

// proofLog collects the proofs of a run.
type proofLog struct {
	mu   sync.Mutex
	list []provedOp
}

func (l *proofLog) add(p provedOp) {
	l.mu.Lock()
	l.list = append(l.list, p)
	l.mu.Unlock()
}

// verifyAll checks, outside the timed window, that the service accepts
// every proof of the run. It sends them through /v1/verify/batch in
// groups of 16 of one circuit and returns how many it rejected.
func verifyAll(b *base, l *proofLog) (int, error) {
	byCircuit := map[int][]provedOp{}
	for _, p := range l.list {
		byCircuit[p.circuit] = append(byCircuit[p.circuit], p)
	}
	bad := 0
	for ci, ps := range byCircuit {
		c := b.circuits[ci]
		for len(ps) > 0 {
			n := min(16, len(ps))
			items := make([]any, n)
			for i, p := range ps[:n] {
				items[i] = verifyBody(c, p.proof, p.public)
			}
			var reply verifyBatchReply
			if err := serve(b.h, call{method: "POST", path: "/v1/verify/batch", body: mustJSON(map[string]any{"items": items})}).decode(200, &reply); err != nil {
				return 0, fmt.Errorf("verifying returned proofs: %w", err)
			}
			if len(reply.Results) != n {
				return 0, fmt.Errorf("verify batch answered %d of %d items", len(reply.Results), n)
			}
			for i, r := range reply.Results {
				if r.Valid == nil || !*r.Valid {
					bad++
					fmt.Fprintf(os.Stderr, "perfbench: proof of operation %d rejected (%v)\n", ps[i].op, r.Error)
				}
			}
			ps = ps[n:]
		}
	}
	return bad, nil
}

// proveLarge is the MSM-bound prover: synchronous Groth16 proves on
// BN254 over the exponentiation circuit at 2^12 constraints, one client,
// a fresh private x each time.
type proveLarge struct {
	base
	proofs proofLog
}

func newProveLarge() *proveLarge {
	return &proveLarge{base: base{circuits: []circuitSpec{expCircuit("bn128", "groth16", 1<<12)}}}
}

func (w *proveLarge) spec() spec {
	return spec{name: "prove-large", clients: 1, roundSize: 1, warmRounds: 2, tail: 75}
}

func (w *proveLarge) setUp(seed uint64, _ string) error { return w.start(seed, "") }

func (w *proveLarge) do(i int, tr *layerAcc) outcome {
	c := w.circuits[0]
	x := randScalar(opRNG(w.seed, i), c.curve)
	probe := tr.probe()
	res := serve(w.h, call{method: "POST", path: "/v1/prove", body: mustJSON(proveBody(c, x)), probe: probe})
	var reply proveReply
	if err := res.decode(200, &reply); err != nil {
		return outcome{lat: res.took, err: err}
	}
	if err := checkOutput(c.curve, reply.Public, x, c.e); err != nil {
		return outcome{lat: res.took, err: err, wrong: true}
	}
	w.proofs.add(provedOp{op: i, proof: reply.Proof, public: reply.Public})
	recordProve(tr, probe, res, &reply)
	return outcome{lat: res.took}
}

// recordProve books a traced synchronous prove's layers: the handler
// time not spent in the service (queue, witness, prove), the queue wait,
// and the stage spans the service recorded into the request's probe.
func recordProve(tr *layerAcc, p *telemetry.Probe, res response, reply *proveReply) {
	if tr == nil {
		return
	}
	tr.add("provesvc.http_ms", ms(res.took)-reply.TotalMs)
	tr.add("provesvc.queue_wait_ms", reply.QueueWaitMs)
	tr.add("witness.solve_ms", stageMs(p, telemetry.StageWitness))
	tr.add("backend.prove_ms", stageMs(p, telemetry.StageProve))
}

func (w *proveLarge) check() (int, error) { return verifyAll(&w.base, &w.proofs) }
