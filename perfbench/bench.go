package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mfc/internal/obs"
)

const (
	// hardLimit bounds a whole invocation: child processes still running
	// then are killed, so the benchmark always exits well inside 180 s.
	hardLimit = 165 * time.Second
	// lastRepStart is the latest a new repetition may begin.
	lastRepStart = 120 * time.Second
	// maxProblems caps the failure messages kept for printing.
	maxProblems = 20
)

// bench is one invocation's state: accounting, samples and the harness's
// own span recorder.
type bench struct {
	o       options
	dir     string // this invocation's scratch directory under o.out
	slots   int    // measurement slots a campaign may hold (nproc)
	started time.Time
	ctx     context.Context
	cancel  context.CancelFunc
	reps    int

	attempted, failed int64
	problems          []string

	// rec records the harness's spans in traced repetitions; nil otherwise.
	rec *obs.SpanRecorder

	e2e map[string][]float64 // per-repetition end-to-end samples

	ref  *facts           // the first store's facts (the run seed's plan)
	seen map[int64]*facts // facts by plan seed, checked once per plan
	lay  *layers          // per-layer data from traced repetitions

	tracedJPS, plainJPS []float64 // jobs/s of traced and untraced repetitions
}

func newBench(o options) (*bench, error) {
	b := &bench{
		o:       o,
		slots:   runtime.NumCPU(),
		started: time.Now(),
		e2e:     make(map[string][]float64),
		seen:    make(map[int64]*facts),
		lay:     newLayers(),
	}
	b.ctx, b.cancel = context.WithTimeout(context.Background(), hardLimit)
	b.dir = filepath.Join(o.out, fmt.Sprintf("work-%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	if o.traced {
		b.rec = obs.NewSpanRecorder("perfbench", 0)
	}
	return b, nil
}

func (b *bench) cleanup() {
	b.cancel()
	os.RemoveAll(b.dir)
}

// recFor returns the harness recorder for a traced repetition, nil (a
// no-op recorder) for an untraced one.
func (b *bench) recFor(traced bool) *obs.SpanRecorder {
	if traced {
		return b.rec
	}
	return nil
}

func (b *bench) repDir(name string) string { return filepath.Join(b.dir, name) }

// fail records one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.attempted++
	b.failed++
	if len(b.problems) < maxProblems {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// check records one attempted operation that failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if ok {
		b.attempted++
		return true
	}
	b.fail(format, args...)
	return false
}

// count records n attempted operations of which bad failed.
func (b *bench) count(n, bad int64, what string) {
	b.attempted += n - bad
	for i := int64(0); i < bad; i++ {
		b.fail("%s", what)
	}
}

func (b *bench) sample(name string, v float64) { b.e2e[name] = append(b.e2e[name], v) }

// loop runs repetitions back to back for the measurement window: at
// least one, and two in a traced run, which alternates traced and
// untraced repetitions so the tracing overhead can be measured. It stops
// at the repetition boundary nearest the end of the window, judging the
// next repetition's length by the mean so far, so a run measures about
// the window whatever one repetition costs. A repetition that returns an
// error ends the loop; it is never retried.
func (b *bench) loop(rep func(i int, traced bool) error) error {
	window := time.Duration(b.o.seconds * float64(time.Second))
	start := time.Now()
	minReps := 1
	if b.o.traced {
		minReps = 2
	}
	for i := 0; ; i++ {
		traced := b.o.traced && i%2 == 0
		runtime.GC()
		if err := rep(i, traced); err != nil {
			return err
		}
		b.reps++
		elapsed := time.Since(start)
		next := elapsed / time.Duration(i+1)
		if b.reps >= minReps && elapsed+next/2 >= window {
			return nil
		}
		if time.Since(b.started) >= lastRepStart {
			return nil
		}
	}
}

// planSeed is the campaign seed of repetition i: the run's seed for the
// first, seed*1000+k for the k-th after it, so a run's median spans
// several plans. A traced run gives each traced repetition and the
// untraced one after it the same plan.
func (b *bench) planSeed(i int) int64 {
	k := i
	if b.o.traced {
		k = i / 2
	}
	if k == 0 {
		return b.o.seed
	}
	return b.o.seed*1000 + int64(k)
}

// cpuSelf is this process's user+system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// selfMaxRSSKB is this process's peak resident set in KiB.
func selfMaxRSSKB() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss
}

// child is one mfc-campaign process the benchmark started.
type child struct {
	name string
	cmd  *exec.Cmd
	out  bytes.Buffer
}

// runChildren starts one mfc-campaign process per argument list and
// waits for every one of them. A process that fails to start stops the
// ones already running. Every process is waited for before returning.
func (b *bench) runChildren(argv [][]string) ([]*child, error) {
	kids := make([]*child, 0, len(argv))
	var startErr error
	for i, args := range argv {
		c := &child{name: fmt.Sprintf("%s#%d", args[0], i)}
		c.cmd = exec.CommandContext(b.ctx, b.o.bin, args...)
		c.cmd.Stdout = &c.out
		c.cmd.Stderr = &c.out
		c.cmd.WaitDelay = 5 * time.Second
		if err := c.cmd.Start(); err != nil {
			startErr = err
			break
		}
		kids = append(kids, c)
	}
	if startErr != nil {
		for _, c := range kids {
			c.cmd.Process.Kill()
		}
	}
	for _, c := range kids {
		c.cmd.Wait()
	}
	return kids, startErr
}

// reap accounts each child's exit status, CPU and peak RSS: it returns
// their summed CPU seconds and largest peak RSS in KiB.
func (b *bench) reap(kids []*child) (cpu float64, rssKB int64) {
	for _, c := range kids {
		ps := c.cmd.ProcessState
		if ps == nil {
			b.fail("%s did not run", c.name)
			continue
		}
		cpu += ps.UserTime().Seconds() + ps.SystemTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > rssKB {
			rssKB = ru.Maxrss
		}
		b.check(ps.Success(), "%s exited %v: %s", c.name, ps, tail(c.out.String(), 400))
	}
	return cpu, rssKB
}

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// median and quantile use linear interpolation between order statistics;
// both return 0 for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
