// Command ptrand is the long-running analysis daemon: it serves the full
// paper pipeline (static checks, counter planning, profiling, TIME/VAR
// estimation) over HTTP.
//
//	POST /v1/analyze  {"source": "...", "engine": "vm", "plan": "sarkar", "seeds": [1,2]}
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text exposition of the obs registry
//
// The daemon caches compiled artifacts across requests (content hash ×
// engine × plan, single-flighted), bounds cold compiles with a worker pool
// and a shedding queue, enforces per-request deadlines, and drains
// in-flight analyses on SIGINT/SIGTERM before exiting.
//
// Usage:
//
//	ptrand [-addr :8321] [-workers N] [-queue N] [-cache N] [-timeout 30s]
//	ptrand -smoke
//
// -smoke starts the server on a loopback listener, runs one cold and one
// warm analysis plus a health and metrics probe against it, prints the
// measured latencies, and exits non-zero on any failure — the CI
// smoke test without an orchestrator.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", 0, "max concurrent cold compiles (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max queued compiles before shedding with 503")
	cacheSize := flag.Int("cache", 128, "compiled-artifact LRU capacity")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	smoke := flag.Bool("smoke", false, "self-test against an in-process server and exit")
	cacheDir := artifact.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	disk, err := artifact.StoreFromFlag(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptrand:", err)
		os.Exit(1)
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		DiskCache:      disk,
	})

	if *smoke {
		if err := runSmoke(svc); err != nil {
			fmt.Fprintln(os.Stderr, "ptrand: smoke:", err)
			os.Exit(1)
		}
		return
	}

	srv := &http.Server{Addr: *addr, Handler: svc}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("ptrand: listening on %s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("ptrand: %v", err)
	case s := <-sig:
		log.Printf("ptrand: %v, draining", s)
	}

	// Drain in order: stop admitting new analyses, wait for in-flight ones,
	// then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("ptrand: drain incomplete: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("ptrand: server shutdown: %v", err)
	}
}

// smokeSrc is a tiny program exercising a call, a loop, and a branch.
const smokeSrc = `      PROGRAM SMOKE
      INTEGER I, S, T
      S = 0
      DO 10 I = 1, 10
         IF (RAND() .GE. 0.5) THEN
            CALL WORK(I, T)
            S = S + T
         ENDIF
   10 CONTINUE
      END

      SUBROUTINE WORK(N, T)
      INTEGER N, J, T
      T = 0
      DO 20 J = 1, N
         T = T + J
   20 CONTINUE
      RETURN
      END
`

// runSmoke exercises the service end to end over a real loopback listener.
func runSmoke(svc *service.Service) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	analyze := func() (cacheHit bool, ms float64, err error) {
		body, _ := json.Marshal(map[string]any{"source": smokeSrc, "seeds": []uint64{1, 2, 3}})
		t0 := time.Now()
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, 0, err
		}
		defer resp.Body.Close()
		ms = float64(time.Since(t0)) / float64(time.Millisecond)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return false, ms, fmt.Errorf("analyze: status %d: %s", resp.StatusCode, b)
		}
		var out struct {
			CacheHit bool   `json:"cache_hit"`
			Main     string `json:"main"`
			Errors   int    `json:"errors"`
			Procs    []any  `json:"procs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return false, ms, err
		}
		if out.Main == "" || len(out.Procs) == 0 {
			return false, ms, fmt.Errorf("analyze: incomplete result %+v", out)
		}
		if out.Errors != 0 {
			return false, ms, fmt.Errorf("analyze: %d error diagnostics", out.Errors)
		}
		return out.CacheHit, ms, nil
	}

	hit, coldMs, err := analyze()
	if err != nil {
		return err
	}
	if hit {
		return fmt.Errorf("first analyze reported a cache hit")
	}
	hit, warmMs, err := analyze()
	if err != nil {
		return err
	}
	if !hit {
		return fmt.Errorf("second analyze missed the cache")
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{"repro_service_requests_total", "repro_service_cache_hits_total"} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("metrics: missing %s", want)
		}
	}

	fmt.Printf("ptrand smoke ok: cold %.1fms, warm %.1fms (hit)\n", coldMs, warmMs)
	return nil
}
