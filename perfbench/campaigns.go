package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/serve"
	"mfc/internal/core"
	"mfc/internal/obs"
)

// readPasses is how many times a campaign repetition runs the read side
// over its fresh store. The read operations are short (tens of
// milliseconds each), so their medians need many samples to be steady.
const readPasses = 5

// timer times one call into a layer and, in traced repetitions, records
// it as a harness span.
type timer struct {
	t0 time.Time
	sp obs.SpanRef
}

func start(rec *obs.SpanRecorder, name string, parent uint64) timer {
	return timer{t0: time.Now(), sp: rec.Start(name, "bench", -1, parent)}
}

func (t timer) stop() float64 {
	t.sp.End()
	return time.Since(t.t0).Seconds()
}

// campaignRep is what one campaign repetition measured.
type campaignRep struct {
	t0       time.Time  // repetition start, before the plan is written
	cpu      float64    // user+sys seconds of the benchmark and its children
	rssKB    int64      // largest peak RSS among the workload's processes
	progSpan []obs.Span // the program's own span spills
	events   *eventLog  // run-clean traced repetitions only
	mem      [2]runtime.MemStats
}

// finishCampaign turns one finished campaign store into samples: it reads
// the program's span spills for the first job start (or shard claim) and
// the last record, verifies the store, times its read side, and in traced
// repetitions hands everything to the per-layer aggregation.
func (b *bench) finishCampaign(kind, dir string, plan *campaign.Plan, r *campaignRep, traced bool, repSpan obs.SpanRef) error {
	var err error
	r.progSpan, err = campaign.ReadSpans(dir)
	if err != nil {
		return err
	}
	first, last := int64(0), int64(0)
	for i := range r.progSpan {
		sp := &r.progSpan[i]
		if sp.Cat == "job" || sp.Cat == "claim" {
			if first == 0 || sp.Start < first {
				first = sp.Start
			}
		}
		if sp.Cat == "job" && sp.End > last {
			last = sp.End
		}
	}
	spansOK := b.check(first > 0 && last > first, "no job spans in %s", dir)
	jps := float64(plan.Jobs()) / (float64(last-first) / 1e6)
	switch {
	case !spansOK:
	case traced:
		b.tracedJPS = append(b.tracedJPS, jps)
	default:
		b.plainJPS = append(b.plainJPS, jps)
		b.sample("jobs_per_s", jps)
		b.sample("cpu_ms_per_job", r.cpu*1000/float64(plan.Jobs()))
		b.sample("setup_s", float64(first-r.t0.UnixMicro())/1e6)
		b.sample("peak_rss_mb", float64(r.rssKB)/1024)
	}

	// The read side runs readPasses times on the fresh store; readPass
	// collects garbage before each timed operation, so the campaign's
	// garbage is not collected on its clock.
	rec := b.recFor(traced)
	var rt readTimes
	f, err := b.verifyStore(kind, dir, plan, &rt, rec, repSpan.ID())
	if err != nil {
		return err
	}
	for i := 1; i < readPasses; i++ {
		report, analyzed, err := b.readPass(dir, plan, &rt, rec, repSpan.ID())
		if err != nil {
			return err
		}
		b.check(report == f.Report && analyzed == f.Analyze, "read pass %d of %s: report or analyze bytes changed", i, dir)
	}
	if !traced {
		jobs := float64(plan.Jobs())
		for i := range rt.merge {
			b.sample("report_jobs_per_s", jobs/rt.report(i))
			b.sample("analyze_jobs_per_s", jobs/rt.analyze(i))
			b.sample("merge_jobs_per_s", jobs/rt.merge[i])
		}
		return nil
	}
	repSpan.End()
	b.lay.addRead(&rt)
	b.lay.addCampaign(plan, b.slots, r, f, b.rec.Drain(nil))
	return nil
}

// runClean: campaign.Run in-process with nproc pool slots, recording the
// run's spans exactly as `mfc-campaign run` does.
func runClean(b *bench) error {
	return b.loop(func(i int, traced bool) error {
		rec := b.recFor(traced)
		dir := b.repDir(fmt.Sprintf("rep%d", i))
		defer os.RemoveAll(dir)
		repSpan := rec.Start("bench.rep", "bench", -1, 0)
		defer repSpan.End()

		r := &campaignRep{t0: time.Now()}
		plan, err := newPlan("clean", b.planSeed(i))
		if err != nil {
			return err
		}
		if err := plan.Save(dir); err != nil {
			return err
		}
		opts := campaign.Options{Workers: b.slots, Spans: obs.NewSpanRecorder("run", 0)}
		if traced {
			r.events = newEventLog()
			opts.OnEvent = r.events.on
			runtime.ReadMemStats(&r.mem[0])
		}
		t := start(rec, "bench.campaign", repSpan.ID())
		cpu0 := cpuSelf()
		st, err := campaign.Run(b.ctx, dir, opts)
		r.cpu = cpuSelf() - cpu0
		t.stop()
		if traced {
			runtime.ReadMemStats(&r.mem[1])
		}
		r.rssKB = selfMaxRSSKB()
		if err != nil {
			return err
		}
		b.check(st.Done() == plan.Jobs(), "run finished %d of %d jobs", st.Done(), plan.Jobs())
		return b.finishCampaign("clean", dir, plan, r, traced, repSpan)
	})
}

// sweepFS: the chaos sweep on nproc `mfc-campaign work -dir` processes,
// one measurement slot each.
func sweepFS(b *bench) error {
	return b.loop(func(i int, traced bool) error {
		rec := b.recFor(traced)
		dir := b.repDir(fmt.Sprintf("rep%d", i))
		defer os.RemoveAll(dir)
		repSpan := rec.Start("bench.rep", "bench", -1, 0)
		defer repSpan.End()

		r := &campaignRep{t0: time.Now()}
		plan, err := newPlan("sweep", b.planSeed(i))
		if err != nil {
			return err
		}
		if err := plan.Save(dir); err != nil {
			return err
		}
		argv := make([][]string, b.slots)
		for w := range argv {
			argv[w] = []string{"work", "-dir", dir, "-workers", "1", "-quiet",
				"-owner", fmt.Sprintf("fs-%d", w), "-poll", "500ms"}
		}
		t := start(rec, "bench.fleet", repSpan.ID())
		cpu0 := cpuSelf()
		kids, err := b.runChildren(argv)
		selfCPU := cpuSelf() - cpu0
		t.stop()
		kidCPU, rss := b.reap(kids)
		r.cpu, r.rssKB = selfCPU+kidCPU, rss
		if err != nil {
			return err
		}
		return b.finishCampaign("sweep", dir, plan, r, traced, repSpan)
	})
}

// joinFleet: the clean plan served by an in-process control plane on a
// loopback listener, worked by nproc `mfc-campaign work -join` processes.
func joinFleet(b *bench) error {
	return b.loop(func(i int, traced bool) error {
		rec := b.recFor(traced)
		dir := b.repDir(fmt.Sprintf("rep%d", i))
		defer os.RemoveAll(dir)
		repSpan := rec.Start("bench.rep", "bench", -1, 0)
		defer repSpan.End()

		r := &campaignRep{t0: time.Now()}
		plan, err := newPlan("clean", b.planSeed(i))
		if err != nil {
			return err
		}
		if err := plan.Save(dir); err != nil {
			return err
		}
		cpu0 := cpuSelf()
		srv, err := serve.New(dir, serve.Options{})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		meter := &rpcMeter{next: srv.Handler(), rec: rec, parent: repSpan.ID()}
		sctx, stop := context.WithCancel(b.ctx)
		served := make(chan error, 1)
		go func() { served <- campaign.ServeUntil(sctx, ln, meter) }()

		argv := make([][]string, b.slots)
		for w := range argv {
			argv[w] = []string{"work", "-join", ln.Addr().String(), "-workers", "1", "-quiet",
				"-owner", fmt.Sprintf("join-%d", w), "-poll", "500ms"}
		}
		t := start(rec, "bench.fleet", repSpan.ID())
		kids, runErr := b.runChildren(argv)
		t.stop()
		stop()
		serveErr := <-served
		closeErr := srv.Close()
		selfCPU := cpuSelf() - cpu0
		kidCPU, rss := b.reap(kids)
		r.cpu = selfCPU + kidCPU
		r.rssKB = max(rss, selfMaxRSSKB())
		for _, err := range []error{runErr, serveErr, closeErr} {
			if err != nil {
				return err
			}
		}
		total, failed := meter.total.Load(), meter.failed.Load()
		b.count(total, failed, "control-plane RPC answered non-2xx")
		if traced {
			b.lay.addRPC(meter)
		}
		return b.finishCampaign("clean", dir, plan, r, traced, repSpan)
	})
}

// eventLog stamps each job's coordinator events with host time, from
// Options.OnEvent: stage start (the end of the crawl), every completed
// epoch, the last check-phase entry and the terminal event.
type eventLog struct {
	mu   sync.Mutex
	jobs map[int]*jobEvents
}

type jobEvents struct {
	stage, check, end time.Time
	epochs            []time.Time
}

func newEventLog() *eventLog { return &eventLog{jobs: make(map[int]*jobEvents)} }

func (l *eventLog) on(ev campaign.SiteEvent) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	j := l.jobs[ev.Job]
	if j == nil {
		j = &jobEvents{}
		l.jobs[ev.Job] = j
	}
	switch ev.Event.(type) {
	case core.StageStarted:
		j.stage = now
	case core.EpochCompleted:
		j.epochs = append(j.epochs, now)
	case core.CheckPhaseEntered:
		j.check = now
	case core.ExperimentFinished:
		j.end = now
	}
}

// rpcMeter wraps the control plane's handler. It always counts /api/
// requests and their non-2xx answers; in traced repetitions it also times
// each one and records it as a harness span.
type rpcMeter struct {
	next   http.Handler
	rec    *obs.SpanRecorder
	parent uint64

	total, failed atomic.Int64

	mu        sync.Mutex
	latencyMs map[string][]float64 // by endpoint name (grant, records, ...)
	recordsKB []float64
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (m *rpcMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, api := strings.CutPrefix(r.URL.Path, "/api/")
	if !api {
		m.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	if m.rec == nil {
		m.next.ServeHTTP(sw, r)
	} else {
		t0 := time.Now()
		sp := m.rec.Start("serve."+name, "serve", -1, m.parent)
		m.next.ServeHTTP(sw, r)
		d := time.Since(t0)
		sp.End(obs.A("status", strconv.Itoa(sw.code)))
		m.mu.Lock()
		if m.latencyMs == nil {
			m.latencyMs = make(map[string][]float64)
		}
		m.latencyMs[name] = append(m.latencyMs[name], float64(d)/1e6)
		if name == "records" && r.ContentLength >= 0 {
			m.recordsKB = append(m.recordsKB, float64(r.ContentLength)/1024)
		}
		m.mu.Unlock()
	}
	m.total.Add(1)
	if sw.code < 200 || sw.code > 299 {
		m.failed.Add(1)
	}
}
