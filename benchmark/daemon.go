package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atgpu/internal/experiments"
	"atgpu/internal/service"
)

// Daemon-mix shape: an in-process atgpud with daemonWorkers job workers,
// driven by daemonClients closed-loop clients (each sends its next job
// only after the previous reply).
const (
	daemonWorkers = 2
	daemonClients = 2
	// daemonWarmup is discarded before measuring starts.
	daemonWarmup = 1500 * time.Millisecond
	// repeatWindow bounds how far back a repeat reaches: each client's
	// last repeatWindow fresh requests, which the 256-entry FIFO result
	// cache still holds, so every repeat is a cache hit.
	repeatWindow = 32
	// windowJobs is the completions per daemon-mix batch for batch_s.
	windowJobs = 64
	// replayPerKind is how many of each client's first fresh run and
	// analyze jobs form the digest set, which a traced run also replays
	// through the layers.
	replayPerKind = 6
	// rssJobs is the job count at which peak_rss_mb is read. atgpud
	// keeps every job it has served, so its RSS grows with the jobs a
	// run completes, and on a time-bounded run that count follows the
	// host's speed. Clients keep sending past the deadline until this
	// many jobs have completed; about 6,000 complete in 30 s on a 2-vCPU VM.
	rssJobs = 3000
)

// mixSizes are the fresh-job sizes: the paper's three workloads at
// sizes whose uncached run takes milliseconds.
var mixSizes = map[string]int{"vecadd": 1 << 16, "reduce": 1 << 16, "matmul": 64}

// mixClient is one closed-loop client with its own seeded job stream.
type mixClient struct {
	id     int
	url    string
	http   *http.Client
	rng    *rand.Rand
	base   int64 // request seeds are base + 2·serial + id, unique per run
	serial int64
	kinds  *deck
	shapes map[string]*deck
	// history holds the client's last repeatWindow fresh requests and
	// the result bytes their (cache-miss) jobs returned.
	history []freshJob
	// replay holds the first replayPerKind fresh run and analyze jobs.
	replay []freshJob

	samples []jobSample
	jobs    int
	fails   []string
	rss     *rssProbe
}

// rssProbe reads peak RSS once rssJobs jobs have completed, counted over
// every client.
type rssProbe struct {
	done atomic.Int64
	mb   float64
	err  error
}

// count records one completed job; the client that completes job
// rssJobs reads the peak.
func (p *rssProbe) count() {
	if p.done.Add(1) == rssJobs {
		p.mb, p.err = peakRSSMB()
	}
}

func (p *rssProbe) pending() bool { return p.done.Load() < rssJobs }

type freshJob struct {
	req    service.Request
	result []byte
	job    service.Job
}

// jobSample is one measured job.
type jobSample struct {
	kind string
	hit  bool
	rt   time.Duration
	job  service.Job
	done time.Time
}

// deck deals cards in a seeded shuffle, reshuffling when used up, so
// every full pass holds each card exactly once.
type deck struct {
	cards []string
	used  int
}

func (d *deck) deal(rng *rand.Rand) string {
	if d.used%len(d.cards) == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	d.used++
	return d.cards[(d.used-1)%len(d.cards)]
}

// newMixDecks returns one client's decks. Every 20 jobs hold exactly 10
// fresh runs, 5 repeats of an earlier request, 3 analyze and 2 lint
// jobs, and each fresh kind cycles through the three shapes, so the mix
// does not drift with the seed; the seed only orders it. The weights and
// the sizes in mixSizes are an assumed mix, not recorded atgpud traffic.
func newMixDecks() (kinds *deck, shapes map[string]*deck) {
	kinds = &deck{cards: []string{
		"run", "run", "run", "run", "run", "run", "run", "run", "run", "run",
		"repeat", "repeat", "repeat", "repeat", "repeat",
		"analyze", "analyze", "analyze",
		"lint", "lint",
	}}
	shapes = map[string]*deck{}
	for _, k := range []string{"run", "analyze", "lint"} {
		shapes[k] = &deck{cards: []string{"vecadd", "reduce", "matmul"}}
	}
	return kinds, shapes
}

// next draws the client's next request. repeat is the history index of
// a repeat, or -1.
func (c *mixClient) next() (req service.Request, repeat int) {
	kind := c.kinds.deal(c.rng)
	if kind == "repeat" {
		if len(c.history) > 0 {
			i := c.rng.Intn(len(c.history))
			return c.history[i].req, i
		}
		kind = "run" // nothing to repeat yet
	}
	workload := c.shapes[kind].deal(c.rng)
	c.serial++
	return service.Request{
		Kind:     kind,
		Workload: workload,
		N:        mixSizes[workload],
		Seed:     c.base + 2*c.serial + int64(c.id),
		Wait:     true,
	}, -1
}

// submit posts one wait=true job and returns the terminal job and the
// client round trip.
func (c *mixClient) submit(req service.Request) (service.Job, time.Duration, error) {
	var job service.Job
	body, err := json.Marshal(req)
	if err != nil {
		return job, 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return job, 0, err
	}
	hreq.Header.Set("X-Client-ID", fmt.Sprintf("bench-%d", c.id))
	t0 := time.Now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		return job, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return job, rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return job, rt, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		return job, rt, err
	}
	if job.State != service.StateSuccess {
		return job, rt, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
	}
	return job, rt, nil
}

// loop sends jobs until deadline, and after it while the RSS probe waits
// for its job count, keeping those that complete inside
// [measureFrom, deadline] as samples.
func (c *mixClient) loop(measureFrom, deadline time.Time) {
	for time.Now().Before(deadline) || c.rss.pending() {
		req, repeat := c.next()
		job, rt, err := c.submit(req)
		done := time.Now()
		c.jobs++
		c.rss.count()
		if err == nil && repeat >= 0 && !bytes.Equal(job.Result, c.history[repeat].result) {
			err = fmt.Errorf("repeat of job %s returned different result bytes (cache hit %v)",
				c.history[repeat].job.ID, job.CacheHit)
		}
		if err != nil {
			c.fails = append(c.fails, fmt.Sprintf("client %d %s %s n=%d: %v", c.id, req.Kind, req.Workload, req.N, err))
			continue
		}
		if repeat < 0 {
			fj := freshJob{req: req, result: job.Result, job: job}
			c.history = append(c.history, fj)
			if len(c.history) > repeatWindow {
				c.history = c.history[1:]
			}
			if (req.Kind == "run" || req.Kind == "analyze") && c.countReplay(req.Kind) < replayPerKind {
				c.replay = append(c.replay, fj)
			}
		}
		if !done.Before(measureFrom) && !done.After(deadline) {
			c.samples = append(c.samples, jobSample{kind: req.Kind, hit: job.CacheHit, rt: rt, job: job, done: done})
		}
	}
}

func (c *mixClient) countReplay(kind string) int {
	n := 0
	for _, f := range c.replay {
		if f.req.Kind == kind {
			n++
		}
	}
	return n
}

// daemon is the in-process atgpud under test, served on loopback.
type daemon struct {
	srv    *service.Server
	http   *http.Server
	url    string
	served chan error
}

// newServer is the daemon-mix set-up: atgpud's core with gtx650 warmed.
func newServer() (*service.Server, error) {
	return service.NewServer(service.ServerConfig{Workers: daemonWorkers, Warm: []string{"gtx650"}})
}

func shutdownServer(s *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // idle servers built only to time set-up
}

func serve(s *service.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the HTTP server, then drains the daemon, and waits for both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

func runDaemonMix(o options) (*outcome, error) {
	out := newOutcome(o)
	setup, srv, err := timeSetup(newServer, shutdownServer)
	if err != nil {
		return nil, err
	}
	d, err := serve(srv)
	if err != nil {
		shutdownServer(srv)
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: daemonClients}
	defer transport.CloseIdleConnections()

	var ref hostRef
	ref.sample(refReps)
	if err := resetPeakRSS(); err != nil {
		_ = d.close() // the run has already failed
		return nil, err
	}
	clients := make([]*mixClient, daemonClients)
	probe := &rssProbe{}
	for i := range clients {
		kinds, shapes := newMixDecks()
		clients[i] = &mixClient{
			kinds:  kinds,
			shapes: shapes,
			id:     i,
			url:    d.url,
			http:   &http.Client{Transport: transport},
			rng:    rand.New(rand.NewSource(derivedSeed(o.seed, "daemon-mix", "client", i, 0))),
			base:   o.seed * 1_000_000_000,
			rss:    probe,
		}
	}
	start := time.Now()
	measureFrom := start.Add(daemonWarmup)
	deadline := measureFrom.Add(max(o.seconds, time.Second))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			c.loop(measureFrom, deadline)
		}(c)
	}
	time.Sleep(time.Until(measureFrom))
	a0 := totalAlloc()
	time.Sleep(time.Until(deadline))
	allocB := totalAlloc() - a0
	wg.Wait()
	if probe.err != nil {
		_ = d.close() // the run has already failed
		return nil, probe.err
	}
	stats := srv.Stats()
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}
	transport.CloseIdleConnections()
	ref.sample(refReps)

	var samples []jobSample
	for _, c := range clients {
		out.Attempted += c.jobs
		for _, f := range c.fails {
			out.fail("%s", f)
		}
		samples = append(samples, c.samples...)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("daemon-mix: no job completed in the measured window")
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].done.Before(samples[j].done) })
	window := deadline.Sub(measureFrom)
	out.note("jobs: %d attempted, %d measured over %.1fs after a %.1fs warm-up; daemon rejected %d",
		out.Attempted, len(samples), window.Seconds(), daemonWarmup.Seconds(), stats.Rejected)

	digest, err := replaySetDigest(clients)
	if err != nil {
		return nil, err
	}
	out.note("record digest (sha256 of the canonical results.Record JSON of each client's first %d fresh run and analyze jobs, seed %d): %s",
		replayPerKind, o.seed, digest)
	mix := map[string]int{}
	for _, s := range samples {
		k := s.kind
		if s.hit {
			k = "hit"
		}
		mix[k]++
	}
	out.note("measured mix: run=%d analyze=%d lint=%d hit=%d", mix["run"], mix["analyze"], mix["lint"], mix["hit"])
	if o.trace {
		return traceDaemon(o, out, samples, clients, window, stats.Rejected)
	}
	e2e := endToEnd{
		setup:      setup,
		jobsPerSec: float64(len(samples)) / window.Seconds(),
		allocMB:    float64(allocB) / float64(len(samples)) / 1e6,
		peakRSS:    probe.mb,
		ref:        ref,
	}
	for _, s := range samples {
		e2e.jobs = append(e2e.jobs, float64(s.rt)/1e6)
	}
	for i := windowJobs; i < len(samples); i += windowJobs {
		e2e.batches = append(e2e.batches, samples[i].done.Sub(samples[i-windowJobs].done).Seconds())
	}
	if len(e2e.batches) == 0 {
		e2e.batches = []float64{window.Seconds() * windowJobs / float64(len(samples))}
	}
	e2e.fill(out)
	return out, nil
}

// traceDaemon reports the service layer from each job's own lifecycle
// stamps, then replays each client's first fresh run and analyze jobs
// through the simulator layers and checks the replayed records against
// the daemon's.
func traceDaemon(o options, out *outcome, samples []jobSample, clients []*mixClient,
	window time.Duration, rejected int64) (*outcome, error) {
	p := perLayer{"service.rejected": float64(rejected)}
	var busy float64
	var waits, https []float64
	exec := map[string][]float64{}
	hits := 0
	for _, s := range samples {
		j := s.job
		wait := float64(j.Started.Sub(j.Created)) / 1e6
		run := float64(j.Finished.Sub(j.Started)) / 1e6
		waits = append(waits, wait)
		https = append(https, float64(s.rt)/1e6-float64(j.Finished.Sub(j.Created))/1e6)
		busy += run
		if s.hit {
			hits++
		} else {
			exec[s.kind] = append(exec[s.kind], run)
		}
	}
	p["service.queue_wait_ms.p50"] = quantile(waits, 0.5)
	p["service.queue_wait_ms.p99"] = quantile(waits, 0.99)
	p["service.http_ms.p50"] = quantile(https, 0.5)
	p["service.exec_ms.run"] = median(exec["run"])
	p["service.exec_ms.analyze"] = median(exec["analyze"])
	p["service.exec_ms.lint"] = median(exec["lint"])
	p["service.cache_hit_ratio"] = float64(hits) / float64(len(samples))
	p["sched.idle_frac"] = 1 - busy/1e3/(daemonWorkers*window.Seconds())

	tr := newTracer()
	cfg := experiments.DefaultConfig()
	calMs, link, cal, err := timeCalibration(tr, cfg)
	if err != nil {
		return nil, err
	}
	p["calibrate.ms"] = calMs

	mark := tr.mark()
	var replayWall time.Duration
	var counts counters
	pid := 1
	for _, c := range clients {
		for _, f := range c.replay {
			rcfg := cfg
			rcfg.Seed = f.req.Seed
			rcfg.Workers = 1
			r, err := experiments.NewRunnerCalibrated(rcfg, link, cal)
			if err != nil {
				return nil, err
			}
			rp := &replayer{r: r, link: link, tr: tr}
			t0 := time.Now()
			rec, cnt, err := rp.point(f.req.Kind, f.req.Workload, f.req.N, 0, pid)
			replayWall += time.Since(t0)
			pid++
			if err == nil {
				err = sameRecord(f.result, rec)
			}
			if err != nil {
				out.fail("replay of job %s: %v", f.job.ID, err)
				continue
			}
			counts.add(cnt)
			p["trace.direct_s"] += f.job.Finished.Sub(f.job.Started).Seconds()
		}
	}
	p.setLayers([]perLayer{sampleLayers(tr, mark)})
	p["trace.replay_s"] = replayWall.Seconds()
	p.fill(out, counts)
	out.note("replayed %d fresh jobs through the layers; spans=%d -> %s", pid-1, tr.mark(), o.spans)
	return out, tr.write(o.spans)
}

// jobRecord returns the single canonical record of a daemon result,
// compacted: the daemon serves its job JSON indented.
func jobRecord(result []byte) ([]byte, error) {
	var doc struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return nil, err
	}
	if len(doc.Records) != 1 {
		return nil, fmt.Errorf("daemon result holds %d records, want 1", len(doc.Records))
	}
	var buf bytes.Buffer
	err := json.Compact(&buf, doc.Records[0])
	return buf.Bytes(), err
}

// sameRecord checks that a daemon result's record is the replayed one.
func sameRecord(result []byte, rec any) error {
	got, err := jobRecord(result)
	if err != nil {
		return err
	}
	want, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replayed record differs from the daemon's:\n got %s\nwant %s", want, got)
	}
	return nil
}

// replaySetDigest is the SHA-256 of the records the daemon returned for
// each client's first fresh run and analyze jobs, a set the seed alone
// fixes.
func replaySetDigest(clients []*mixClient) (string, error) {
	h := sha256.New()
	for _, c := range clients {
		for _, f := range c.replay {
			rec, err := jobRecord(f.result)
			if err != nil {
				return "", err
			}
			h.Write(rec)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
