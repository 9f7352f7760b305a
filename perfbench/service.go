package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"zkperf/internal/provesvc"
	"zkperf/internal/telemetry"
)

// newService builds the service the way zkserve does at its default
// flags, with the RNG seed pinned and, when journalDir is set, the async
// job journal on (-job-journal-dir). The access log is left out: it is a
// wrapper around the handler, not part of it.
func newService(seed uint64, journalDir string) (*provesvc.Service, error) {
	opts := []provesvc.Option{
		provesvc.WithWorkers(runtime.GOMAXPROCS(0)),
		provesvc.WithQueueDepth(256),
		provesvc.WithProveThreads(1),
		provesvc.WithDefaultTimeout(60 * time.Second),
		provesvc.WithMaxTimeout(0),
		provesvc.WithMaxBodyBytes(provesvc.DefaultMaxBodyBytes),
		provesvc.WithBreaker(provesvc.DefaultBreakerThreshold, provesvc.DefaultBreakerCooldown),
		provesvc.WithJobTTL(5*time.Minute, 0),
		provesvc.WithJobMaxActive(1024),
		provesvc.WithSeed(seed),
		provesvc.WithWorkloadSched(provesvc.WorkloadConfig{
			Enabled:       true,
			HotMinRate:    0.5,
			ReservePerHot: 1,
		}),
	}
	if journalDir != "" {
		opts = append(opts, provesvc.WithJobJournal(journalDir))
	}
	svc := provesvc.New(opts...)
	if err := svc.JobJournalError(); err != nil {
		return nil, fmt.Errorf("job journal: %w", err)
	}
	svc.Start()
	return svc, nil
}

// stopService drains the service the way zkserve does on SIGTERM.
func stopService(svc *provesvc.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := svc.Shutdown(ctx)
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if rep.Dropped+rep.Forced > 0 {
		return fmt.Errorf("shutdown dropped %d and force-cancelled %d jobs", rep.Dropped, rep.Forced)
	}
	return nil
}

// call is one request through the service's HTTP handler, with no
// socket in between.
type call struct {
	method, path string
	body         []byte
	header       map[string]string
	probe        *telemetry.Probe // attached to the request context when set
}

// response is what the handler answered, and how long it took.
type response struct {
	status int
	body   []byte
	took   time.Duration
}

// serve runs c through h. Only ServeHTTP is timed: the handler's JSON
// decoding and encoding count, the benchmark's own do not.
func serve(h http.Handler, c call) response {
	ctx := telemetry.WithProbe(context.Background(), c.probe)
	req, err := http.NewRequestWithContext(ctx, c.method, "http://perfbench"+c.path, bytes.NewReader(c.body))
	if err != nil {
		panic(err) // method and path are constants of this program
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range c.header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return response{status: rec.Code, body: rec.Body.Bytes(), took: time.Since(t0)}
}

// decode parses a JSON reply, or reports the status and envelope of a
// reply that is not the one wanted.
func (r response) decode(want int, out any) error {
	if r.status != want {
		return fmt.Errorf("status %d, want %d: %s", r.status, want, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, out); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are marshaled
	}
	return b
}
