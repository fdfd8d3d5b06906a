// Command perfbench is the campaign benchmark. It runs one workload of
// the campaign engine end to end through the program's public entry
// points, checks that the workload's outputs are correct, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of stdout:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md for why each exists and what it stresses):
//
//	run-clean   campaign.Run in-process, the §5 base/query/large plan
//	sweep-fs    nproc `mfc-campaign work -dir` processes, 12-scenario chaos sweep
//	join-fleet  in-process serve.Server + nproc `mfc-campaign work -join` processes
//
// Every workload also times report, analyze and merge passes over each
// campaign's fresh store.
//
// Normally started through run.sh, which builds this command and the
// mfc-campaign binary first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the correctness digests are pinned at.
const defaultSeed = 11

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	bin      string // mfc-campaign binary (sweep-fs, join-fleet)
	out      string // scratch root for stores, traces and result files
}

var workloads = map[string]func(*bench) error{
	"run-clean":  runClean,
	"sweep-fs":   sweepFS,
	"join-fleet": joinFleet,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: run-clean, sweep-fs or join-fleet")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "campaign seed; every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&o.bin, "bin", "", "path of the built mfc-campaign binary")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for stores, traces and result files")
	flag.Parse()
	o.traced = trace == 1

	fn, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.workload != "run-clean" {
		if _, err := os.Stat(o.bin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: -bin: %v\n", err)
			os.Exit(2)
		}
	}

	b, err := newBench(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fp := takeFingerprint()
	runErr := fn(b)
	if runErr != nil {
		b.fail("%s: %v", o.workload, runErr)
	}
	fp.finish()
	res := b.result()

	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	for _, p := range b.problems {
		fmt.Printf("FAILED %s\n", p)
	}
	b.saveResult(fp, res)
	b.cleanup()

	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// saveResult writes the result, stamped with the machine fingerprint, to
// the out directory so figures are never compared across machines.
func (b *bench) saveResult(fp *fingerprint, res result) {
	doc := struct {
		Workload    string               `json:"workload"`
		Seed        int64                `json:"seed"`
		Seconds     float64              `json:"seconds"`
		Traced      bool                 `json:"traced"`
		Reps        int                  `json:"reps"`
		Fingerprint *fingerprint         `json:"fingerprint"`
		Problems    []string             `json:"problems,omitempty"`
		Samples     map[string][]float64 `json:"samples,omitempty"`
		Result      result               `json:"result"`
	}{b.o.workload, b.o.seed, b.o.seconds, b.o.traced, b.reps, fp, b.problems, b.e2e, res}
	data, _ := json.MarshalIndent(doc, "", "  ")
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", b.o.workload, b.o.seed, boolInt(b.o.traced))
	if err := os.WriteFile(filepath.Join(b.o.out, name), append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
	}
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// fingerprint identifies the machine and its load around one run.
type fingerprint struct {
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	LoadBefore string   `json:"loadavg_before"`
	LoadAfter  string   `json:"loadavg_after"`
	StealTicks [2]int64 `json:"steal_ticks_before_after"`
	Start      string   `json:"start"`
	WallS      float64  `json:"wall_s"`
	start      time.Time
}

func takeFingerprint() *fingerprint {
	fp := &fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadBefore: loadavg(),
		start:      time.Now(),
	}
	fp.StealTicks[0] = stealTicks()
	fp.Start = fp.start.UTC().Format(time.RFC3339)
	return fp
}

func (fp *fingerprint) finish() {
	fp.LoadAfter = loadavg()
	fp.StealTicks[1] = stealTicks()
	fp.WallS = time.Since(fp.start).Seconds()
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadavg() string {
	data, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// stealTicks is the aggregate steal column of /proc/stat (-1 if absent).
func stealTicks() int64 {
	data, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	var v int64
	fmt.Sscan(f[8], &v)
	return v
}
