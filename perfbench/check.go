package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/dist"
	"mfc/internal/core"
	"mfc/internal/obs"
	"mfc/internal/population"
)

// Plan sizes. run-clean and join-fleet share the clean plan
// (18 cells x 50 sites = 900 jobs); sweep-fs runs the sweep plan
// (72 cells x 10 sites = 720 jobs). Both use 16-job shards, the unit the
// fleet workers claim.
const (
	cleanSites = 50
	sweepSites = 10
	shardJobs  = 16
)

// sweepScenarios are the 12 sweep-fs cells per band.
var sweepScenarios = []string{"clean", "lossy", "flaky-link", "chaos", "brownout", "cdn",
	"diurnal", "throttled", "waf-reject", "global-clients", "fast-junk-200", "flash-crowd"}

// newPlan builds a plan exactly as `mfc-campaign plan -bands all -stages
// ... [-scenarios ...] -sites N -seed S -shard-jobs 16` would.
func newPlan(kind string, seed int64) (*campaign.Plan, error) {
	stages := []core.Stage{core.StageBase, core.StageSmallQuery, core.StageLargeObject}
	var scenarios []string
	sites := cleanSites
	if kind == "sweep" {
		stages, scenarios, sites = []core.Stage{core.StageBase}, sweepScenarios, sweepSites
	}
	name := fmt.Sprintf("%dband-%dstage-%dsites", len(population.Bands), len(stages), sites)
	p, err := campaign.NewPlan(name, population.Bands, stages, scenarios, sites, seed)
	if err != nil {
		return nil, err
	}
	p.ShardJobs = shardJobs
	return p, nil
}

// facts are the checked outputs of one complete store: the digests of
// `report` and `analyze -json`, and the exact simulated totals.
type facts struct {
	Report   string `json:"report_sha256"`
	Analyze  string `json:"analyze_sha256"`
	Requests int64  `json:"sim_requests_total"`
	SimNs    int64  `json:"sim_ns_total"`
	Epochs   int64  `json:"epochs_total"`

	shardBytes int64
}

func (f *facts) same(o *facts) bool {
	return f.Report == o.Report && f.Analyze == o.Analyze &&
		f.Requests == o.Requests && f.SimNs == o.SimNs && f.Epochs == o.Epochs
}

func (f *facts) String() string {
	b, _ := json.Marshal(f)
	return string(b)
}

// pinned are the facts at the default seed, one entry per plan. The
// analyze bytes depend on shard_jobs (summation order), so each entry
// holds only for the plan sizes above.
// Both digests were cross-checked against `mfc-campaign report` and
// `mfc-campaign analyze -json` on stores planned with the CLI.
var pinned = map[string]facts{
	"clean": {
		Report:   "497143375f5c5511c7630ee93a96db2164211386c679047652527c7b6e7d505d",
		Analyze:  "72235ae6b3d8e9b7183a6e7e020ce419a4d30e667888e2569a7964faf16659e4",
		Requests: 189053, SimNs: 176187734973799, Epochs: 7632,
	},
	"sweep": {
		Report:   "04ec39e2a3d7d26369110bc2b52ecccc70eab1f875811e66618990c8ca8c0d65",
		Analyze:  "f0841fa3224d9ae6ed0217a851b859a1d94e020f04c2d99b5dc541d0ff0bb5e2",
		Requests: 167903, SimNs: 141444662815514, Epochs: 6505,
	},
}

// readTimes collects the read-side timings of one or more passes, in
// seconds.
type readTimes struct {
	summarize, render, compute, json, merge, completed []float64
	cpu                                                float64 // CPU seconds of the report, analyze and merge calls
}

func (rt *readTimes) report(i int) float64  { return rt.summarize[i] + rt.render[i] }
func (rt *readTimes) analyze(i int) float64 { return rt.compute[i] + rt.json[i] }

// readPass runs the store's read side once — report (Summarize +
// RenderReport), analyze (Compute + Doc().JSON()), merge into a fresh
// directory, and the resume scan (Store.Completed) — timing each call and
// checking that the merged store reports identically and that every job
// is complete. Each of the three timed operations starts after a GC, so
// none pays for the garbage of the one before it. It returns the report
// and analyze digests.
func (b *bench) readPass(dir string, plan *campaign.Plan, rt *readTimes, rec *obs.SpanRecorder, parent uint64) (report, analyzed string, err error) {
	runtime.GC()
	cpu0 := cpuSelf()
	t := start(rec, "store.summarize", parent)
	p, sum, err := campaign.Summarize(dir)
	rt.summarize = append(rt.summarize, t.stop())
	if err != nil {
		return "", "", err
	}
	var rep bytes.Buffer
	t = start(rec, "store.render", parent)
	err = campaign.RenderReport(&rep, p, sum)
	rt.render = append(rt.render, t.stop())
	if err != nil {
		return "", "", err
	}

	runtime.GC()
	t = start(rec, "analyze.compute", parent)
	a, err := analyze.Compute([]string{dir})
	rt.compute = append(rt.compute, t.stop())
	if err != nil {
		return "", "", err
	}
	t = start(rec, "analyze.json", parent)
	doc, err := a.Doc().JSON()
	rt.json = append(rt.json, t.stop())
	if err != nil {
		return "", "", err
	}

	merged := dir + ".merged"
	runtime.GC()
	t = start(rec, "store.merge", parent)
	err = dist.Merge([]string{dir}, merged)
	rt.merge = append(rt.merge, t.stop())
	if err != nil {
		return "", "", err
	}
	rt.cpu += cpuSelf() - cpu0

	var mrep bytes.Buffer
	if mp, msum, err := campaign.Summarize(merged); err == nil {
		err = campaign.RenderReport(&mrep, mp, msum)
	}
	b.check(bytes.Equal(mrep.Bytes(), rep.Bytes()), "merged store of %s reports differently from its source", filepath.Base(dir))
	os.RemoveAll(merged)

	t = start(rec, "store.completed", parent)
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	var done map[int]bool
	if err == nil {
		done, err = st.Completed(plan.Jobs())
		st.Close()
	}
	rt.completed = append(rt.completed, t.stop())
	if err != nil {
		return "", "", err
	}
	b.check(len(done) == plan.Jobs(), "Store.Completed found %d of %d jobs in %s", len(done), plan.Jobs(), filepath.Base(dir))
	return digest(rep.Bytes()), digest(doc), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// verifyStore runs a read pass over a finished campaign store and a full
// scan of its records, then checks the store's facts (see checkFacts).
// Every job counts as one attempted operation; a job with no record or
// with a record carrying Err fails.
func (b *bench) verifyStore(kind, dir string, plan *campaign.Plan, rt *readTimes, rec *obs.SpanRecorder, parent uint64) (*facts, error) {
	report, analyzed, err := b.readPass(dir, plan, rt, rec, parent)
	if err != nil {
		return nil, err
	}
	t := start(rec, "bench.verify", parent)
	defer t.stop()
	f := &facts{Report: report, Analyze: analyzed}
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	seen := make([]bool, plan.Jobs())
	var missing, errored int64
	sc := campaign.NewShardScanner()
	for k := 0; k < plan.Shards(); k++ {
		recs, err := sc.Scan(st, k, plan.Jobs(), true)
		if err != nil {
			return nil, err
		}
		for i := range recs {
			r := &recs[i]
			if seen[r.Job] {
				continue // a duplicate record: wasted work, never a different result
			}
			seen[r.Job] = true
			if r.Err != "" {
				errored++
				if errored == 1 {
					b.problems = append(b.problems, fmt.Sprintf("job %d: %s", r.Job, r.Err))
				}
			}
			f.Requests += int64(r.Requests)
			f.SimNs += r.SimElapsedNs
			if r.Result != nil {
				for _, s := range r.Result.Stages {
					f.Epochs += int64(len(s.Epochs))
				}
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, "shards", fmt.Sprintf("shard-%04d.jsonl", k))); err == nil {
			f.shardBytes += fi.Size()
		}
	}
	for _, ok := range seen {
		if !ok {
			missing++
		}
	}
	b.count(int64(plan.Jobs()), missing+errored, fmt.Sprintf("job missing or errored in %s", filepath.Base(dir)))
	b.checkFacts(kind, plan, f)
	return f, nil
}

// checkFacts checks one store's facts. Stores of one plan within a run
// must agree exactly. At the default seed the facts are pinned. At any
// other seed the first workload to run a plan records its facts under the
// out directory, and every later run of that plan — run-clean and
// join-fleet share plans — must reproduce them exactly.
func (b *bench) checkFacts(kind string, plan *campaign.Plan, f *facts) {
	if b.ref == nil {
		b.ref = f
	}
	if prev, ok := b.seen[plan.Seed]; ok {
		b.check(f.same(prev), "%s plan seed %d: a store differs from an earlier one of this run: %s vs %s",
			kind, plan.Seed, f, prev)
		return
	}
	b.seen[plan.Seed] = f
	fmt.Printf("facts %s plan seed %d: %s\n", kind, plan.Seed, f)
	if p, ok := pinned[kind]; ok && plan.Seed == defaultSeed {
		b.check(f.same(&p), "%s plan facts at seed %d: got %s, pinned %s", kind, plan.Seed, f, &p)
		return
	}
	path := filepath.Join(b.o.out, "consistency", fmt.Sprintf("%s-%s-seed%d.json", kind, plan.Name, plan.Seed))
	type entry struct {
		Workload string `json:"workload"`
		facts
	}
	if data, err := os.ReadFile(path); err == nil {
		var e entry
		if err := json.Unmarshal(data, &e); err != nil {
			b.fail("corrupt consistency record %s: %v", path, err)
			return
		}
		b.check(f.same(&e.facts), "%s plan facts at seed %d disagree with %s's: %s vs %s",
			kind, plan.Seed, e.Workload, f, &e.facts)
		return
	}
	data, _ := json.MarshalIndent(entry{b.o.workload, *f}, "", "  ")
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	b.check(err == nil, "recording %s: %v", path, err)
}
