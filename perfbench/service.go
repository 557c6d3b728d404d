package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/vm"
)

const (
	// zipfS is the Zipf exponent of the working-set draw. With W programs,
	// an LRU of W/4 and 5% never-seen requests it gives about 85% LRU hits
	// and 10% LRU misses served warm from the disk store. With one service
	// worker and two closed-loop clients a request waits for the other
	// client's whole request, so only hit-after-hit requests are fast. At
	// s=1.5 (about 77% hits) the fast requests were just under half of all
	// and the p50 sat on the cliff between them and the ones waiting behind
	// a disk load, where it moved by a third between seeds; at s=1.8 the
	// p50 lies inside the fast hits.
	zipfS = 1.8
	// Each client sends rounds of roundSize requests, freshPerRound of
	// them (5%) for never-seen programs, which compile cold.
	roundSize, freshPerRound = 100, 5
	// serviceSeeds is the number of profiling seeds per request.
	serviceSeeds = 8
	// Working-set programs' mean steps per run fall in this band (about the
	// middle 40% of medium programs), so a hit's cost does not depend on
	// which programs the seed made popular.
	mediumMinSteps, mediumMaxSteps = 2000, 4500
)

// svcProgram is one service-mix program with its fixed request body and
// the in-process reference estimate its responses must match.
type svcProgram struct {
	src             string
	seeds           []uint64
	body            []byte
	refTime, refVar float64
}

func newSvcProgram(src string, rng *rand.Rand) *svcProgram {
	sp := &svcProgram{src: src}
	base := 1 + rng.Uint64N(1<<30)
	for i := uint64(0); i < serviceSeeds; i++ {
		sp.seeds = append(sp.seeds, base+i)
	}
	sp.body, _ = json.Marshal(service.AnalyzeRequest{Source: sp.src, Engine: "vm", Plan: "sarkar", Seeds: sp.seeds})
	return sp
}

// reference computes the Pipeline estimate of the program's source and
// seeds; a non-nil store also writes the program's artifacts to it.
func (sp *svcProgram) reference(store *artifact.Store) error {
	p, err := core.LoadOpts(sp.src, core.LoadOptions{Workers: 1, Engine: interp.EngineVM, Plan: core.StrategySarkar, Cache: store})
	if err != nil {
		return err
	}
	est, err := p.Estimate(cost.Optimized, core.Options{}, sp.seeds...)
	if err != nil {
		return err
	}
	sp.refTime, sp.refVar = est.Main.Time, est.Main.Var
	return nil
}

// check compares a response's main-program TIME/VAR with the reference.
func (sp *svcProgram) check(c *config, r *analyzeReply) error {
	for _, pr := range r.Procs {
		if pr.Name != r.Main {
			continue
		}
		if !near(pr.Estimate["time"], c.want(sp.refTime)) || !near(pr.Estimate["var"], c.want(sp.refVar)) {
			return fmt.Errorf("response TIME=%v VAR=%v, pipeline %v and %v",
				pr.Estimate["time"], pr.Estimate["var"], c.want(sp.refTime), c.want(sp.refVar))
		}
		return nil
	}
	return fmt.Errorf("response has no main program %q", r.Main)
}

// analyzeReply is the part of service.AnalyzeResponse the benchmark reads.
type analyzeReply struct {
	Main     string        `json:"main"`
	CacheHit bool          `json:"cache_hit"`
	Spans    []report.Span `json:"spans"`
	Procs    []struct {
		Name     string         `json:"name"`
		Estimate report.Metrics `json:"estimate"`
	} `json:"procs"`
}

// svcState is service-mix's set-up: the working set with its references,
// the artifact store they were compiled into, and the service.
type svcState struct {
	c        *config
	working  []*svcProgram
	cum      []float64 // cumulative Zipf weights over working-set ranks
	svc      *service.Service
	storeDir string
}

// newSvcState draws the working set (each program from its own stream of
// the seed, so the draw is the same for any worker count).
func newSvcState(c *config) (*svcState, error) {
	st := &svcState{c: c, working: make([]*svcProgram, c.workingSet)}
	err := parallel(c.workingSet, c.nproc, func(i int) error {
		rng := rand.New(rand.NewPCG(c.seed, 0x5e70000+uint64(i)))
		src, err := drawProgram(rng, medium, mediumMinSteps, mediumMaxSteps)
		st.working[i] = newSvcProgram(src, rng)
		return err
	})
	total := 0.0
	for k := 1; k <= c.workingSet; k++ {
		total += 1 / math.Pow(float64(k), zipfS)
		st.cum = append(st.cum, total)
	}
	for i := range st.cum {
		st.cum[i] /= total
	}
	return st, err
}

// setup computes every working-set reference while writing the programs'
// artifacts into a fresh store, starts the service on that store, and
// fills its LRU with the W/4 most popular programs.
func (st *svcState) setup(o *outcome) func() error {
	c := st.c
	return func() error {
		o.op(checkFigure1(c))
		st.close()
		dir, err := os.MkdirTemp(c.workdir, "store-")
		if err != nil {
			return err
		}
		st.storeDir = dir
		store, err := artifact.Open(dir)
		if err != nil {
			return err
		}
		if err := parallel(len(st.working), c.nproc, func(i int) error { return st.working[i].reference(store) }); err != nil {
			return err
		}
		st.svc = service.New(service.Config{
			Workers:        max(1, c.nproc-1),
			Queue:          64,
			CacheSize:      max(1, c.workingSet/4),
			RequestTimeout: 30 * time.Second,
			DiskCache:      store,
		})
		for _, sp := range st.working[:max(1, c.workingSet/4)] {
			_, rec := st.post(sp.body)
			r, err := decodeReply(rec)
			if err == nil {
				err = sp.check(c, r)
			}
			o.op(err)
		}
		return nil
	}
}

// close removes the artifact store.
func (st *svcState) close() {
	if st.storeDir != "" {
		os.RemoveAll(st.storeDir)
		st.storeDir = ""
	}
}

// post sends one request through the service's http.Handler, with no
// socket, and returns its latency.
func (st *svcState) post(body []byte) (float64, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	st.svc.ServeHTTP(rec, req)
	return msSince(t0), rec
}

// scrape reads the service's /metrics counters.
func (st *svcState) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	st.svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

func decodeReply(rec *httptest.ResponseRecorder) (*analyzeReply, error) {
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	r := &analyzeReply{}
	if err := json.NewDecoder(rec.Body).Decode(r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return r, nil
}

// round is one client's next roundSize requests as working-set ranks,
// with -1 for a never-seen program, in shuffled order. The ranks are drawn
// by systematic sampling (evenly spaced Zipf quantiles behind one random
// offset), so every round holds each class in the same share; independent
// draws would let the cold share alone vary by ±15% between seeds.
func (st *svcState) round(rng *rand.Rand) []int {
	out := make([]int, 0, roundSize)
	u := rng.Float64()
	for k := 0; k < roundSize-freshPerRound; k++ {
		q := (float64(k) + u) / float64(roundSize-freshPerRound)
		out = append(out, min(sort.SearchFloat64s(st.cum, q), len(st.cum)-1))
	}
	for k := 0; k < freshPerRound; k++ {
		out = append(out, -1)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pick returns the program for a rank: a working-set program, or for -1 a
// never-seen one drawn in the medium node band.
func (st *svcState) pick(rank int, rng *rand.Rand) (*svcProgram, error) {
	if rank >= 0 {
		return st.working[rank], nil
	}
	src, err := drawProgram(rng, medium, 0, 0)
	return newSvcProgram(src, rng), err
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	lat []float64
	// at holds each request's completion time, in seconds from the start
	// of the pass, parallel to lat.
	at   []float64
	ok   int
	errs []error
	// byClass splits the successful requests' latencies into LRU hits,
	// LRU misses and never-seen programs.
	byClass map[string][]float64
	// fresh holds never-seen programs with their responses, checked after
	// the window.
	fresh   []*svcProgram
	replies []*analyzeReply
	// traced passes keep every reply for the span and cache-hit metrics.
	traced []*analyzeReply
}

// runClients runs nproc closed-loop clients, each sending its next request
// only after the previous reply, until more reports false (every client
// sends at least one request). stream separates the request sequences of
// different passes over the same seed.
func (st *svcState) runClients(stream uint64, more func(n int) bool, keep bool) []*clientLog {
	logs := make([]*clientLog, st.c.nproc)
	start := time.Now()
	var wg sync.WaitGroup
	for id := range logs {
		logs[id] = &clientLog{byClass: make(map[string][]float64)}
		wg.Add(1)
		go func(log *clientLog, id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(st.c.seed, stream<<8|uint64(id)))
			var ranks []int
			for n := 0; n == 0 || more(n); n++ {
				if len(ranks) == 0 {
					ranks = st.round(rng)
				}
				rank := ranks[0]
				ranks = ranks[1:]
				fresh := rank < 0
				sp, err := st.pick(rank, rng)
				if err != nil {
					log.errs = append(log.errs, err)
					continue
				}
				ms, rec := st.post(sp.body)
				log.lat = append(log.lat, ms)
				log.at = append(log.at, time.Since(start).Seconds())
				r, err := decodeReply(rec)
				if err == nil {
					log.ok++
					class := "miss"
					switch {
					case fresh:
						class = "cold"
					case r.CacheHit:
						class = "hit"
					}
					log.byClass[class] = append(log.byClass[class], ms)
					if keep {
						log.traced = append(log.traced, r)
					}
					if fresh {
						log.fresh = append(log.fresh, sp)
						log.replies = append(log.replies, r)
						continue
					}
					err = sp.check(st.c, r)
				}
				log.errs = append(log.errs, err)
			}
		}(logs[id], id)
	}
	wg.Wait()
	return logs
}

// settle records every client's operations, checking the never-seen
// programs' responses against references computed now, after the window.
func (st *svcState) settle(o *outcome, logs []*clientLog) error {
	var fresh []*svcProgram
	var replies []*analyzeReply
	for _, l := range logs {
		for _, err := range l.errs {
			o.op(err)
		}
		fresh = append(fresh, l.fresh...)
		replies = append(replies, l.replies...)
	}
	if err := parallel(len(fresh), st.c.nproc, func(i int) error { return fresh[i].reference(nil) }); err != nil {
		return err
	}
	for i, sp := range fresh {
		o.op(sp.check(st.c, replies[i]))
	}
	return nil
}

func allLatencies(logs []*clientLog) (lat []float64, ok int) {
	for _, l := range logs {
		lat = append(lat, l.lat...)
		ok += l.ok
	}
	return lat, ok
}

// The window is cut into slices of equal length; the throughput and the
// p50 are medians over the slices, so host contention that stalls a few
// seconds of a run does not move them.
const slices = 5

// sliceOf is the slice a completion time t falls in.
func sliceOf(t, window float64) int { return min(int(t/window*slices), slices-1) }

// windowRate is the median over the slices of the requests completed per
// second (all of them successful in a valid run).
func windowRate(logs []*clientLog, window float64) float64 {
	counts := make([]float64, slices)
	for _, l := range logs {
		for _, t := range l.at {
			counts[sliceOf(t, window)]++
		}
	}
	for i := range counts {
		counts[i] /= window / slices
	}
	return quantile(counts, 0.5)
}

// sliceP50 is the median over the slices of each slice's p50 latency.
func sliceP50(logs []*clientLog, window float64) float64 {
	lat := make([][]float64, slices)
	for _, l := range logs {
		for i, t := range l.at {
			k := sliceOf(t, window)
			lat[k] = append(lat[k], l.lat[i])
		}
	}
	var p50s []float64
	for _, xs := range lat {
		if len(xs) > 0 {
			p50s = append(p50s, quantile(xs, 0.5))
		}
	}
	return quantile(p50s, 0.5)
}

func serviceMix(c *config, o *outcome) error {
	st, err := newSvcState(c)
	if err != nil {
		return err
	}
	defer st.close()
	setupS, err := timeSetup(c.reps(3), st.setup(o))
	if err != nil {
		return err
	}
	a0 := allocBytes()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(c.seconds * float64(time.Second)))
	logs := st.runClients(1, func(int) bool { return time.Now().Before(deadline) }, false)
	window := time.Since(t0).Seconds()
	alloc := float64(allocBytes() - a0)
	if err := st.settle(o, logs); err != nil {
		return err
	}
	lat, ok := allLatencies(logs)
	rate, p50 := windowRate(logs, window), sliceP50(logs, window)
	o.endToEnd(setupS, rate, p50, quantile(lat, 0.99), div(alloc, float64(len(lat))))
	o.name("setup_s", setupS, "s", c.reps(3))
	o.name("service_req_per_s", rate, "1/s", ok)
	o.name("service_ms_p50", p50, "ms", len(lat))
	o.name("service_ms_p99", quantile(lat, 0.99), "ms", len(lat))
	for _, class := range []string{"hit", "miss", "cold"} {
		var cl []float64
		for _, l := range logs {
			cl = append(cl, l.byClass[class]...)
		}
		o.name("service_"+class+"_share", float64(len(cl))/float64(max(1, ok)), "1", ok)
		if len(cl) > 0 {
			o.name("service_"+class+"_ms_p50", quantile(cl, 0.5), "ms", len(cl))
		}
	}
	return nil
}

// serviceMixTraced is service-mix's traced pass: cold and warm artifact
// loads and per-seed VM runs over the working set, then an untraced and a
// traced pass of traceOps×30 requests per client. The traced pass reads
// each response's spans and cache_hit flag and the /metrics counters
// around it; the overhead is the difference of the two passes' median
// latencies.
func serviceMixTraced(c *config, o *outcome) error {
	st, err := newSvcState(c)
	if err != nil {
		return err
	}
	defer st.close()
	if _, err := timeSetup(1, st.setup(o)); err != nil {
		return err
	}
	if err := artifactLoads(c, o, st.working); err != nil {
		return err
	}
	perClient := 30 * c.traceOps
	more := func(n int) bool { return n < perClient }
	untraced := st.runClients(2, more, false)
	before := st.scrape()
	traced := st.runClients(3, more, true)
	after := st.scrape()
	if err := st.settle(o, untraced); err != nil {
		return err
	}
	if err := st.settle(o, traced); err != nil {
		return err
	}

	spans := make(map[string][]float64)
	var replies, hits float64
	for _, l := range traced {
		for _, r := range l.traced {
			replies++
			if r.CacheHit {
				hits++
			}
			for _, sp := range r.Spans {
				spans[sp.Name] = append(spans[sp.Name], sp.WallMs)
			}
		}
	}
	o.set("service.queue_wait_ms_p50", quantile(spans["queue_wait"], 0.5), "ms")
	o.set("service.queue_wait_ms_p99", quantile(spans["queue_wait"], 0.99), "ms")
	o.set("service.compile_ms", mean(spans["compile"]), "ms")
	o.set("service.profile_ms", mean(spans["profile"]), "ms")
	o.set("service.estimate_ms", mean(spans["estimate"]), "ms")
	o.set("service.lru_hit_ratio", hits/max(1, replies), "1")
	diskHit := after["repro_artifact_hit"] - before["repro_artifact_hit"]
	diskMiss := after["repro_artifact_miss"] - before["repro_artifact_miss"]
	o.set("artifact.disk_hit_ratio", diskHit/max(1, diskHit+diskMiss), "1")
	o.set("artifact.reject", after["repro_artifact_reject"]-before["repro_artifact_reject"], "count")
	tLat, _ := allLatencies(traced)
	uLat, _ := allLatencies(untraced)
	o.set("trace.service-mix.overhead_ms", quantile(tLat, 0.5)-quantile(uLat, 0.5), "ms")
	return nil
}

// artifactLoads times core.LoadOpts over the working set into an empty
// store (cold: derive and write back) and again from the populated store
// (warm), checks the warm pipeline's estimate against the reference, and
// times vm.Program.Run per seed on each program's bytecode.
func artifactLoads(c *config, o *outcome, working []*svcProgram) error {
	dir, err := os.MkdirTemp(c.workdir, "loads-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	opts := core.LoadOptions{Workers: c.nproc, Engine: interp.EngineVM, Plan: core.StrategySarkar, Cache: store}
	var cold, warm []float64
	var runNs, runs float64
	for _, sp := range working {
		t0 := time.Now()
		if _, err := core.LoadOpts(sp.src, opts); err != nil {
			return err
		}
		cold = append(cold, msSince(t0))
		t0 = time.Now()
		p, err := core.LoadOpts(sp.src, opts)
		if err != nil {
			return err
		}
		warm = append(warm, msSince(t0))
		est, err := p.Estimate(cost.Optimized, core.Options{}, sp.seeds...)
		if err == nil && (!near(est.Main.Time, c.want(sp.refTime)) || !near(est.Main.Var, c.want(sp.refVar))) {
			err = fmt.Errorf("warm load TIME=%v VAR=%v, cold %v and %v", est.Main.Time, est.Main.Var, c.want(sp.refTime), c.want(sp.refVar))
		}
		o.op(err)
		code, err := vm.Compile(p.Res)
		if err != nil {
			return err
		}
		for _, s := range sp.seeds {
			t0 := time.Now()
			_, err := code.Run(interp.Options{Seed: s})
			runNs += float64(time.Since(t0))
			runs++
			o.op(err)
		}
	}
	o.set("artifact.cold_load_ms", mean(cold), "ms")
	o.set("artifact.warm_load_ms", mean(warm), "ms")
	o.set("vm.run_ns_per_seed", runNs/max(1, runs), "ns")
	return nil
}
