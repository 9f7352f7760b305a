package main

import (
	"fmt"
	"math/big"
	"os"
	"sync"
	"time"

	"zkperf/internal/provesvc"
)

// jobsRound is one round of jobs-small: seven fresh submits, then one
// that repeats the Idempotency-Key of an earlier submit of the round.
const jobsRound = 8

// pollEvery is the client's poll interval, small against the job time.
const pollEvery = 5 * time.Millisecond

// jobExps are the exponents of the four distinct circuits: just under
// 2^8 constraints, so all four share the 256-point evaluation domain
// (x^256 needs 512).
var jobExps = []int{252, 253, 254, 255}

type jobReply struct {
	ID      string         `json:"id"`
	State   string         `json:"state"`
	WaitMs  float64        `json:"wait_ms"`
	RunMs   float64        `json:"run_ms"`
	Result  *proveReply    `json:"result"`
	Error   map[string]any `json:"error"`
	Deduped bool           `json:"deduped"`
}

// jobOp is what the seed decides for one jobs-small operation.
type jobOp struct {
	circuit int
	x       *big.Int
	key     string // Idempotency-Key
	dedupOf int    // the operation whose key this one repeats; -1 for a fresh submit
}

func jobOpFor(seed uint64, i int) jobOp {
	round, pos := i/jobsRound, i%jobsRound
	rng := opRNG(seed, i)
	if pos == jobsRound-1 {
		orig := round*jobsRound + rng.IntN(jobsRound-1)
		op := jobOpFor(seed, orig)
		op.dedupOf = orig
		return op
	}
	c := (round*(jobsRound-1) + pos) % len(jobExps)
	return jobOp{
		circuit: c,
		x:       randScalar(rng, "bn128"),
		key:     fmt.Sprintf("perfbench-%d-%d", seed, i),
		dedupOf: -1,
	}
}

// submitted is a fresh job as its submit saw it.
type submitted struct {
	ready chan struct{} // closed once id is set
	id    string
	proof string // set when the job is done
}

// jobsSmall is the async path: POST /v1/jobs with the job journal on,
// then GET /v1/jobs/{id} polls until the job is done, from two clients,
// over four small Groth16 BN254 circuits.
type jobsSmall struct {
	base
	dir    string
	proofs proofLog

	mu   sync.Mutex
	jobs map[int]*submitted // by operation
}

func newJobsSmall() *jobsSmall {
	w := &jobsSmall{jobs: map[int]*submitted{}}
	for _, e := range jobExps {
		w.circuits = append(w.circuits, expCircuit("bn128", "groth16", e))
	}
	return w
}

func (w *jobsSmall) spec() spec {
	return spec{name: "jobs-small", clients: 2, roundSize: jobsRound, warmRounds: 2, tail: 95}
}

func (w *jobsSmall) setUp(seed uint64, dir string) error {
	w.dir = dir
	return w.start(seed, dir)
}

func (w *jobsSmall) job(i int) *submitted {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.jobs[i]
	if s == nil {
		s = &submitted{ready: make(chan struct{})}
		w.jobs[i] = s
	}
	return s
}

func (w *jobsSmall) do(i int, tr *layerAcc) outcome {
	op := jobOpFor(w.seed, i)
	c := w.circuits[op.circuit]
	var orig, mine *submitted
	if op.dedupOf >= 0 {
		// The repeated submit must follow the original's; with rounds
		// handed out in order it almost always does already.
		orig = w.job(op.dedupOf)
		<-orig.ready
		if orig.id == "" {
			return outcome{err: fmt.Errorf("the submit operation %d repeats failed", op.dedupOf)}
		}
	} else {
		mine = w.job(i)
		defer func() {
			if mine.id == "" {
				close(mine.ready) // a failed submit still releases its repeat
			}
		}()
	}

	t0 := time.Now()
	res := serve(w.h, call{
		method: "POST", path: "/v1/jobs", body: mustJSON(proveBody(c, op.x)),
		header: map[string]string{"Idempotency-Key": op.key},
	})
	var sub jobReply
	want := 202
	if orig != nil {
		want = 200
	}
	if err := res.decode(want, &sub); err != nil {
		return outcome{lat: time.Since(t0), err: fmt.Errorf("submit: %w", err)}
	}
	if orig != nil && (!sub.Deduped || sub.ID != orig.id) {
		return outcome{lat: time.Since(t0), err: fmt.Errorf("repeated key %s answered job %s (deduped=%v), want the original %s", op.key, sub.ID, sub.Deduped, orig.id), wrong: true}
	}
	if mine != nil {
		mine.id = sub.ID
		close(mine.ready)
	}
	submitMs := ms(res.took)

	var final jobReply
	polls := 0
	var pollMs float64
	for {
		if sub.State == "done" || sub.State == "failed" {
			final = sub // a deduplicated submit may already carry the result
			break
		}
		time.Sleep(pollEvery)
		res = serve(w.h, call{method: "GET", path: "/v1/jobs/" + sub.ID})
		polls++
		pollMs += ms(res.took)
		if err := res.decode(200, &final); err != nil {
			return outcome{lat: time.Since(t0), err: fmt.Errorf("poll: %w", err)}
		}
		if final.State == "done" || final.State == "failed" {
			break
		}
	}
	lat := time.Since(t0)
	if final.State != "done" || final.Result == nil {
		return outcome{lat: lat, err: fmt.Errorf("job %s ended %s: %v", sub.ID, final.State, final.Error)}
	}
	if err := checkOutput(c.curve, final.Result.Public, op.x, c.e); err != nil {
		return outcome{lat: lat, err: err, wrong: true}
	}
	if mine != nil {
		mine.proof = final.Result.Proof
		w.proofs.add(provedOp{op: i, circuit: op.circuit, proof: final.Result.Proof, public: final.Result.Public})
	}
	if tr != nil {
		tr.add("jobs.submit_ms", submitMs)
		tr.add("jobs.polls", float64(polls))
		tr.add("provesvc.http_ms", pollMs)
		if mine != nil {
			tr.add("jobs.wait_ms", final.WaitMs)
			tr.add("jobs.run_ms", final.RunMs)
			tr.add("provesvc.queue_wait_ms", final.Result.QueueWaitMs)
			tr.add("witness.solve_ms", final.Result.WitnessMs)
			tr.add("backend.prove_ms", final.Result.ProveMs)
		}
	}
	return outcome{lat: lat}
}

// check verifies every returned proof, then the journal's promise: the
// service is shut down, a fresh one opens the same journal directory,
// and every finished job must still poll as done with the same proof.
func (w *jobsSmall) check() (int, error) {
	bad, err := verifyAll(&w.base, &w.proofs)
	if err != nil {
		return 0, err
	}
	if err := stopService(w.svc); err != nil {
		return 0, err
	}
	svc, err := newService(w.seed, w.dir)
	if err != nil {
		return 0, fmt.Errorf("reopening the journal: %w", err)
	}
	w.svc, w.h = svc, provesvc.NewHandler(svc)
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, s := range w.jobs {
		if s.proof == "" {
			continue // the job failed in the window and is counted there
		}
		var got jobReply
		err := serve(w.h, call{method: "GET", path: "/v1/jobs/" + s.id}).decode(200, &got)
		if err == nil && (got.State != "done" || got.Result == nil || got.Result.Proof != s.proof) {
			err = fmt.Errorf("state %s, same proof %v", got.State, got.Result != nil && got.Result.Proof == s.proof)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %s of operation %d after restart: %v\n", s.id, i, err)
			bad++
		}
	}
	return bad, nil
}
