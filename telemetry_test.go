package eplog_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eplog/eplog"
)

// TestServeTelemetryConcurrentSoak exercises the live telemetry endpoint
// the way an operator would: a sharded, parallel array under concurrent
// write/read load while a scraper hammers every endpoint. All four paths
// must answer 200 with non-empty bodies throughout, and the span and
// metrics payloads must stay well-formed mid-flight.
func TestServeTelemetryConcurrentSoak(t *testing.T) {
	a, _, _ := newArray(t, eplog.Config{
		CommitEvery: 16,
		TraceEvents: 256,
		Spans:       128,
		Shards:      2,
	})
	defer a.Close()
	srv, err := a.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	writeErrs := make([]error, 4)
	for w := range writeErrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, chunk)
			rbuf := make([]byte, chunk)
			lba := int64(w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf[0] = byte(i)
				if err := a.Write(lba, buf); err != nil {
					writeErrs[w] = err
					return
				}
				if err := a.Read(lba, rbuf); err != nil {
					writeErrs[w] = err
					return
				}
				lba = (lba + 4) % a.Chunks()
			}
		}(w)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	paths := []string{"/metrics", "/metrics.json", "/spans", "/healthz", "/debug/pprof/"}
	bodies := map[string]string{}
	for i := 0; i < 15; i++ {
		for _, p := range paths {
			resp, err := client.Get(base + p)
			if err != nil {
				t.Fatalf("GET %s (iteration %d): %v", p, i, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("GET %s: read body: %v", p, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", p, resp.StatusCode)
			}
			if len(body) == 0 && p != "/spans" {
				t.Fatalf("GET %s: empty body", p)
			}
			bodies[p] = string(body)
		}
	}
	close(stop)
	wg.Wait()
	for w, err := range writeErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	// The last scrape happened under full load; its payloads must already
	// be well-formed.
	if !strings.Contains(bodies["/metrics"], "eplog_core_write_latency_bucket") {
		t.Errorf("/metrics missing write latency histogram:\n%.400s", bodies["/metrics"])
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(bodies["/metrics.json"]), &snap); err != nil {
		t.Errorf("/metrics.json not valid JSON: %v", err)
	}
	if !strings.HasPrefix(bodies["/healthz"], "ok") {
		t.Errorf("/healthz = %q", bodies["/healthz"])
	}
	for _, line := range strings.Split(strings.TrimSpace(bodies["/spans"]), "\n") {
		if line == "" {
			continue
		}
		var tree eplog.SpanTree
		if err := json.Unmarshal([]byte(line), &tree); err != nil {
			t.Fatalf("/spans line not valid JSON (%v): %.200s", err, line)
		}
		if tree.Kind == "" {
			t.Fatalf("/spans tree missing kind: %.200s", line)
		}
	}

	// The final quiesced state serves spans for the completed operations.
	if len(a.Spans()) == 0 {
		t.Error("array retained no span trees after the soak")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Error("request after Close succeeded")
	}
}
