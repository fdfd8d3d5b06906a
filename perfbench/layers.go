package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mfc/internal/campaign"
	"mfc/internal/obs"
)

// layers aggregates the per-layer data of a traced run's traced
// repetitions. Per-repetition figures are kept as one sample per
// repetition and reported as medians.
type layers struct {
	jobMs, crawlMs, epochMs, checkMs []float64
	scenarioMs                       map[string][]float64
	busy, tail                       []float64
	allocsPerJob, allocKBPerJob      []float64
	hostUsPerReq, hostMsPerSimS      []float64

	shardS, claimGapMs          []float64
	idleS, workerBusy, distTail []float64
	takeovers, fenced           int64
	rpcMs                       map[string][]float64
	rpcTotal, rpcFailed         int64
	rpcPerRep, recordsKB        []float64
	read                        readTimes
	spansTotal                  []float64
	self                        map[string]*selfRow
	trace                       []obs.Span
	nextSynth                   uint64
}

type selfRow struct {
	n           int
	total, self int64 // microseconds
}

func newLayers() *layers {
	return &layers{
		scenarioMs: make(map[string][]float64),
		rpcMs:      make(map[string][]float64),
		self:       make(map[string]*selfRow),
		nextSynth:  1 << 40,
	}
}

func (l *layers) addRead(rt *readTimes) {
	r := &l.read
	r.summarize = append(r.summarize, rt.summarize...)
	r.render = append(r.render, rt.render...)
	r.compute = append(r.compute, rt.compute...)
	r.json = append(r.json, rt.json...)
	r.merge = append(r.merge, rt.merge...)
	r.completed = append(r.completed, rt.completed...)
}

func (l *layers) addRPC(m *rpcMeter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, v := range m.latencyMs {
		l.rpcMs[name] = append(l.rpcMs[name], v...)
	}
	l.recordsKB = append(l.recordsKB, m.recordsKB...)
	total := m.total.Load()
	l.rpcTotal += total
	l.rpcFailed += m.failed.Load()
	l.rpcPerRep = append(l.rpcPerRep, float64(total))
}

// jobIndex parses the program's "job N" span name.
func jobIndex(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "job ")
	if !ok {
		return 0, false
	}
	j, err := strconv.Atoi(s)
	return j, err == nil
}

// addCampaign folds one traced campaign: the program's spans (run or
// work roots, shards, jobs, claims, idle waits), the coordinator events
// stamped by the harness (turned into crawl, epoch and check spans under
// each job span), allocation deltas, and the harness's own spans.
func (l *layers) addCampaign(plan *campaign.Plan, slots int, r *campaignRep, f *facts, harness []obs.Span) {
	spans := r.progSpan
	jobs := make(map[int]*obs.Span)
	var firstStart, lastStart, lastEnd, rootEnd, busy, shardSum, workSum, idle int64
	var workEnds []int64
	claims := make(map[string][]int64)
	sealed := make(map[string][]int64)
	for i := range spans {
		sp := &spans[i]
		dur := sp.End - sp.Start
		switch sp.Cat {
		case "job":
			l.jobMs = append(l.jobMs, float64(dur)/1e3)
			busy += dur
			if firstStart == 0 || sp.Start < firstStart {
				firstStart = sp.Start
			}
			lastStart = max(lastStart, sp.Start)
			lastEnd = max(lastEnd, sp.End)
			if j, ok := jobIndex(sp.Name); ok && j < plan.Jobs() {
				jobs[j] = sp
				if sc := plan.Cells[plan.CellOf(j)].Scenario; sc != "" {
					l.scenarioMs[sc] = append(l.scenarioMs[sc], float64(dur)/1e3)
				}
			}
		case "work":
			rootEnd = max(rootEnd, sp.End)
			if sp.Name == "work" {
				workEnds = append(workEnds, sp.End)
				workSum += dur
			}
		case "shard":
			l.shardS = append(l.shardS, float64(dur)/1e6)
			shardSum += dur
			sealed[sp.Worker] = append(sealed[sp.Worker], sp.End)
			if sp.Attr("takeover") == "true" {
				l.takeovers++
			}
			if sp.Attr("fenced") == "true" {
				l.fenced++
			}
		case "claim":
			claims[sp.Worker] = append(claims[sp.Worker], sp.Start)
		case "idle":
			idle += dur
		}
	}
	if lastEnd > firstStart {
		l.busy = append(l.busy, float64(busy)/float64(int64(slots)*(lastEnd-firstStart)))
		l.tail = append(l.tail, float64(rootEnd-lastStart)/1e6)
	}
	if f.Requests > 0 && f.SimNs > 0 {
		l.hostUsPerReq = append(l.hostUsPerReq, float64(busy)/float64(f.Requests))
		l.hostMsPerSimS = append(l.hostMsPerSimS, float64(busy)/1e3/(float64(f.SimNs)/1e9))
	}
	if len(workEnds) > 0 {
		l.idleS = append(l.idleS, float64(idle)/1e6)
		if workSum > 0 {
			l.workerBusy = append(l.workerBusy, float64(shardSum)/float64(workSum))
		}
		sort.Slice(workEnds, func(i, j int) bool { return workEnds[i] < workEnds[j] })
		l.distTail = append(l.distTail, float64(workEnds[len(workEnds)-1]-workEnds[0])/1e6)
	}
	// Claim gap: from a shard's end (seal) to the same worker's next claim.
	for w, ends := range sealed {
		cs := claims[w]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		for _, e := range ends {
			k := sort.Search(len(cs), func(i int) bool { return cs[i] >= e })
			if k < len(cs) {
				l.claimGapMs = append(l.claimGapMs, float64(cs[k]-e)/1e3)
			}
		}
	}

	all := append(append([]obs.Span(nil), spans...), harness...)
	if r.events != nil {
		all = append(all, l.eventSpans(r.events, jobs)...)
		n := float64(plan.Jobs())
		l.allocsPerJob = append(l.allocsPerJob, float64(r.mem[1].Mallocs-r.mem[0].Mallocs)/n)
		l.allocKBPerJob = append(l.allocKBPerJob, float64(r.mem[1].TotalAlloc-r.mem[0].TotalAlloc)/1024/n)
	}
	l.addHarness(all)
}

// eventSpans turns the harness's event stamps into spans: a crawl span
// (job start to StageStarted), one epoch span per EpochCompleted (from the
// previous epoch or the stage start; only gaps between two EpochCompleted
// events enter core.epoch_ms_p50), and a check span from the last
// CheckPhaseEntered to the terminal event, which parents the check-phase
// epochs.
func (l *layers) eventSpans(ev *eventLog, jobs map[int]*obs.Span) []obs.Span {
	var out []obs.Span
	mk := func(job *obs.Span, parent uint64, name string, from, to int64) uint64 {
		l.nextSynth++
		out = append(out, obs.Span{Trace: job.Trace, ID: l.nextSynth, Parent: parent, Name: name, Cat: name,
			Worker: job.Worker, Shard: job.Shard, Start: from, End: to})
		return l.nextSynth
	}
	for j, e := range ev.jobs {
		job := jobs[j]
		if job == nil || e.stage.IsZero() || e.end.IsZero() {
			continue
		}
		stage := e.stage.UnixMicro()
		l.crawlMs = append(l.crawlMs, float64(stage-job.Start)/1e3)
		mk(job, job.ID, "crawl", job.Start, stage)
		var checkID uint64
		check := int64(0)
		if !e.check.IsZero() {
			check = e.check.UnixMicro()
			end := e.end.UnixMicro()
			l.checkMs = append(l.checkMs, float64(end-check)/1e3)
			checkID = mk(job, job.ID, "check", check, end)
		}
		prev := stage
		for i, t := range e.epochs {
			at := t.UnixMicro()
			if i > 0 {
				l.epochMs = append(l.epochMs, float64(at-prev)/1e3)
			}
			parent := job.ID
			if checkID != 0 && prev >= check {
				parent = checkID
			}
			mk(job, parent, "epoch", prev, at)
			prev = at
		}
	}
	return out
}

// addHarness folds a repetition's complete span set into the self-time
// table and the Chrome trace.
func (l *layers) addHarness(spans []obs.Span) {
	l.spansTotal = append(l.spansTotal, float64(len(spans)))
	l.addSelf(spans)
	l.trace = append(l.trace, spans...)
}

// addSelf adds each span's duration and self time — its duration minus
// the union of its children's intervals — to its layer's row. Parents
// are resolved within one worker's span ids, except that the program's
// root spans count as children of the harness span that ran them.
func (l *layers) addSelf(spans []obs.Span) {
	type key struct {
		worker string
		id     uint64
	}
	kids := make(map[key][]*obs.Span)
	var host *obs.Span
	var roots []*obs.Span
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != 0 {
			k := key{sp.Worker, sp.Parent}
			kids[k] = append(kids[k], sp)
		} else if sp.Cat == "work" {
			roots = append(roots, sp)
		}
		if sp.Name == "bench.campaign" || sp.Name == "bench.fleet" {
			host = sp
		}
	}
	if host != nil {
		// The program's run or work roots execute inside the harness span
		// that started them, in this process or in its children.
		k := key{host.Worker, host.ID}
		kids[k] = append(kids[k], roots...)
	}
	for i := range spans {
		sp := &spans[i]
		dur := sp.End - sp.Start
		if dur <= 0 {
			continue // instants: claims, fences
		}
		var iv [][2]int64
		for _, c := range kids[key{sp.Worker, sp.ID}] {
			if s, e := max(c.Start, sp.Start), min(c.End, sp.End); e > s {
				iv = append(iv, [2]int64{s, e})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		for _, in := range iv {
			if in[0] > end {
				covered += in[1] - in[0]
				end = in[1]
			} else if in[1] > end {
				covered += in[1] - end
				end = in[1]
			}
		}
		row := l.self[layerOf(sp)]
		if row == nil {
			row = &selfRow{}
			l.self[layerOf(sp)] = row
		}
		row.n++
		row.total += dur
		row.self += dur - covered
	}
}

// layerOf names the layer a span belongs to in the self-time table.
func layerOf(sp *obs.Span) string {
	switch sp.Cat {
	case "work":
		if sp.Name == "run" {
			return "runner.run"
		}
		return "dist.work"
	case "shard", "heartbeat", "idle":
		return "dist." + sp.Cat
	case "job":
		return "campaign.job"
	case "crawl":
		return "campaign.crawl"
	case "epoch", "check":
		return "core." + sp.Cat
	case "serve", "bench":
		return sp.Name
	}
	return sp.Cat + "." + sp.Name
}

// writeSelfTable prints the per-layer self-time table, largest self time
// first.
func (l *layers) writeSelfTable(w io.Writer) {
	names := make([]string, 0, len(l.self))
	var all int64
	for n, r := range l.self {
		names = append(names, n)
		all += r.self
	}
	sort.Slice(names, func(i, j int) bool { return l.self[names[i]].self > l.self[names[j]].self })
	fmt.Fprintf(w, "%-18s %8s %11s %11s %7s\n", "layer", "spans", "total_s", "self_s", "self%")
	for _, n := range names {
		r := l.self[n]
		fmt.Fprintf(w, "%-18s %8d %11.3f %11.3f %6.1f%%\n", n, r.n, float64(r.total)/1e6, float64(r.self)/1e6,
			100*float64(r.self)/float64(max(all, 1)))
	}
}

// writeTrace writes every traced span — the harness's own, the program's
// span spills and the event-derived spans — as one Chrome trace.
func (l *layers) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteFleetTrace(f, l.trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
