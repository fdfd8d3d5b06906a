package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// result assembles the final line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func (b *bench) result() result {
	var m map[string]metric
	if b.o.traced {
		m = b.layerMetrics()
		b.lay.writeSelfTable(os.Stdout)
		path := filepath.Join(b.o.out, fmt.Sprintf("trace-%s-seed%d.json", b.o.workload, b.o.seed))
		if err := b.lay.writeTrace(path); err != nil {
			b.fail("writing trace: %v", err)
		} else {
			fmt.Printf("chrome trace: %s (%d spans)\n", path, len(b.lay.trace))
		}
	} else {
		m = b.endToEnd()
	}
	b.checkMetricNames(m)
	return result{Correct: b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: m}
}

func (b *bench) endToEnd() map[string]metric {
	ok := 1.0
	if b.attempted > 0 {
		ok = 1 - float64(b.failed)/float64(b.attempted)
	}
	return map[string]metric{
		"jobs_per_s":         {median(b.e2e["jobs_per_s"]), "jobs/s"},
		"cpu_ms_per_job":     {median(b.e2e["cpu_ms_per_job"]), "ms"},
		"report_jobs_per_s":  {median(b.e2e["report_jobs_per_s"]), "jobs/s"},
		"analyze_jobs_per_s": {median(b.e2e["analyze_jobs_per_s"]), "jobs/s"},
		"merge_jobs_per_s":   {median(b.e2e["merge_jobs_per_s"]), "jobs/s"},
		"setup_s":            {median(b.e2e["setup_s"]), "s"},
		"peak_rss_mb":        {median(b.e2e["peak_rss_mb"]), "MB"},
		"ok_ratio":           {ok, "ratio"},
	}
}

func (b *bench) layerMetrics() map[string]metric {
	l := b.lay
	var f facts
	if b.ref != nil {
		f = *b.ref
	}
	rpcMs := func(name string, q float64) float64 { return quantile(l.rpcMs[name], q) }
	failRatio := 0.0
	if l.rpcTotal > 0 {
		failRatio = float64(l.rpcFailed) / float64(l.rpcTotal)
	}
	overhead := 0.0
	if p := median(b.plainJPS); p > 0 {
		overhead = median(b.tracedJPS) / p
	}
	ms := func(xs []float64) float64 { return median(xs) * 1000 }
	m := map[string]metric{
		"runner.busy_ratio":              {median(l.busy), "ratio"},
		"runner.tail_s":                  {median(l.tail), "s"},
		"campaign.measure_ms_p50":        {quantile(l.jobMs, 0.5), "ms"},
		"campaign.measure_ms_p99":        {quantile(l.jobMs, 0.99), "ms"},
		"campaign.crawl_ms_p50":          {median(l.crawlMs), "ms"},
		"campaign.allocs_per_job":        {median(l.allocsPerJob), "count"},
		"campaign.alloc_kb_per_job":      {median(l.allocKBPerJob), "KiB"},
		"core.epochs_total":              {float64(f.Epochs), "count"},
		"core.epoch_ms_p50":              {median(l.epochMs), "ms"},
		"core.check_ms_p50":              {median(l.checkMs), "ms"},
		"websim.sim_requests_total":      {float64(f.Requests), "count"},
		"netsim.sim_s_total":             {float64(f.SimNs) / 1e9, "s"},
		"netsim.host_us_per_sim_request": {median(l.hostUsPerReq), "us"},
		"netsim.host_ms_per_sim_s":       {median(l.hostMsPerSimS), "ms"},
		"dist.shard_s_p50":               {quantile(l.shardS, 0.5), "s"},
		"dist.shard_s_p99":               {quantile(l.shardS, 0.99), "s"},
		"dist.claim_gap_ms_p50":          {quantile(l.claimGapMs, 0.5), "ms"},
		"dist.claim_gap_ms_p99":          {quantile(l.claimGapMs, 0.99), "ms"},
		"dist.idle_s_total":              {median(l.idleS), "s"},
		"dist.worker_busy_ratio":         {median(l.workerBusy), "ratio"},
		"dist.tail_s":                    {median(l.distTail), "s"},
		"dist.takeovers_total":           {float64(l.takeovers), "count"},
		"dist.fenced_total":              {float64(l.fenced), "count"},
		"serve.grant_ms_p50":             {rpcMs("grant", 0.5), "ms"},
		"serve.grant_ms_p99":             {rpcMs("grant", 0.99), "ms"},
		"serve.records_ms_p50":           {rpcMs("records", 0.5), "ms"},
		"serve.records_ms_p99":           {rpcMs("records", 0.99), "ms"},
		"serve.heartbeat_ms_p50":         {rpcMs("heartbeat", 0.5), "ms"},
		"serve.done_ms_p50":              {rpcMs("done", 0.5), "ms"},
		"serve.spans_ms_p50":             {rpcMs("spans", 0.5), "ms"},
		"serve.rpc_total":                {median(l.rpcPerRep), "count"},
		"serve.rpc_fail_ratio":           {failRatio, "ratio"},
		"serve.records_kb_mean":          {mean(l.recordsKB), "KiB"},
		"store.summarize_ms":             {ms(l.read.summarize), "ms"},
		"store.render_ms":                {ms(l.read.render), "ms"},
		"store.completed_ms":             {ms(l.read.completed), "ms"},
		"store.merge_ms":                 {ms(l.read.merge), "ms"},
		"store.shard_bytes_total":        {float64(f.shardBytes), "bytes"},
		"analyze.compute_ms":             {ms(l.read.compute), "ms"},
		"analyze.json_ms":                {ms(l.read.json), "ms"},
		"obs.spans_total":                {median(l.spansTotal), "count"},
		"obs.trace_overhead":             {overhead, "ratio"},
	}
	for _, sc := range sweepScenarios {
		m["scenario."+sc+".measure_ms_p50"] = metric{median(l.scenarioMs[sc]), "ms"}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// checkMetricNames fails the run when BENCHMARK.json (read from the
// working directory, if present) and the metrics emitted here disagree,
// so the two cannot drift apart.
func (b *bench) checkMetricNames(m map[string]metric) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		b.fail("BENCHMARK.json: %v", err)
		return
	}
	want := spec.EndToEnd
	if b.o.traced {
		want = spec.PerLayer
	}
	var mismatched []string
	for _, w := range want {
		if got, ok := m[w.Name]; !ok || got.Unit != w.Unit {
			mismatched = append(mismatched, w.Name)
		}
	}
	if len(want) != len(m) || len(mismatched) > 0 {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		b.fail("BENCHMARK.json metrics disagree with the emitted ones (missing or unit differs: %v; emitted: %v)", mismatched, names)
	}
}
