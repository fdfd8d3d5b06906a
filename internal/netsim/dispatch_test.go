package netsim

import (
	"runtime"
	"testing"
	"time"
)

// The dispatch loop runs on whichever goroutine holds the token, so a
// callback can run on a process goroutine: here on one blocked in Sleep, or
// on one whose body has returned. Its panic must not unwind the process
// body or crash the binary; Run re-raises the identical value on its
// caller's goroutine and drains the pool first.
func TestCallbackPanicOnProcGoroutineReraisedFromRun(t *testing.T) {
	type boom struct{ n int }
	cases := []struct {
		name    string
		blocked bool // the token holder stays blocked in Sleep
	}{
		{"holder-ended", false},
		{"holder-blocked", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			const rounds = 10
			for round := 0; round < rounds; round++ {
				want := &boom{n: round}
				env := NewEnv(int64(round + 1))
				for i := 0; i < 5; i++ { // fill the pool before the panic
					env.Go("short", func(p *Proc) {})
				}
				env.GoAfter("holder", time.Millisecond, func(p *Proc) {
					p.Env().After(time.Millisecond, func() { panic(want) })
					if c.blocked {
						p.Sleep(time.Second)
						t.Error("holder resumed after the callback panicked")
					}
				})
				func() {
					defer func() {
						if r := recover(); r != want {
							t.Fatalf("Run re-raised %#v, want the callback's own value %#v", r, want)
						}
					}()
					env.Run(0)
				}()
				if got := len(env.pfree); got != 0 {
					t.Fatalf("%d procs still pooled after the re-raise", got)
				}
			}
			// Every pooled goroutine exits. A holder blocked in Sleep stays
			// parked, like any process blocked in an abandoned environment.
			limit := base + 2
			if c.blocked {
				limit += rounds
			}
			for i := 0; i < 100 && runtime.NumGoroutine() > limit; i++ {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > limit {
				t.Errorf("goroutines grew from %d to %d over %d panicking runs, want at most %d",
					base, got, rounds, limit)
			}
		})
	}
}

// A sequence of horizon-bounded Runs where each horizon is found by the
// ticker's own goroutine, popping its next wakeup while it blocks. Each Run
// must stop exactly at its horizon, and the next must resume the parked
// ticker at its scheduled instants.
func TestHorizonOnProcGoroutineResumesParkedProc(t *testing.T) {
	env := NewEnv(1)
	var woke []time.Duration
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			woke = append(woke, p.Now())
		}
	})
	shorts := 0
	for _, until := range []time.Duration{
		2500 * time.Microsecond,
		2500 * time.Microsecond, // no entry due: stops at once
		5 * time.Millisecond,    // an entry exactly at the horizon still runs
		7200 * time.Microsecond,
		0, // to exhaustion
	} {
		env.Go("short", func(p *Proc) { shorts++ }) // pooled, then drained
		end := env.Run(until)
		wantEnd := until
		if until == 0 {
			wantEnd = 10 * time.Millisecond
		}
		if end != wantEnd || env.Now() != wantEnd {
			t.Fatalf("Run(%v) stopped at %v (Now %v), want %v", until, end, env.Now(), wantEnd)
		}
		if len(env.pfree) != 0 {
			t.Fatalf("Run(%v) left %d procs pooled", until, len(env.pfree))
		}
		for i, at := range woke {
			if at != time.Duration(i+1)*time.Millisecond {
				t.Fatalf("after Run(%v): ticker woke at %v, want 1ms..%dms", until, woke, len(woke))
			}
		}
		if wantTicks := int(wantEnd / time.Millisecond); len(woke) != wantTicks {
			t.Fatalf("after Run(%v): %d ticks %v, want %d", until, len(woke), woke, wantTicks)
		}
	}
	if shorts != 5 {
		t.Errorf("%d short procs ran, want 5", shorts)
	}
}

// When a process's own entry is the next one due it resumes on its own
// goroutine with no handoff. The wakeup guards must still hold there.
func TestSelfResumeHonoursWakeupGuards(t *testing.T) {
	// Generation: a WaitTimeout that timed out leaves its waiter on the
	// event. A trigger that the process's own loop pops during a later
	// Sleep aims at the finished block and must be dropped.
	t.Run("generation", func(t *testing.T) {
		env := NewEnv(1)
		ev := env.NewEvent()
		var woke []time.Duration
		env.Go("waiter", func(p *Proc) {
			if p.WaitTimeout(ev, time.Millisecond) { // its timer is all that is due
				t.Error("WaitTimeout reported a trigger")
			}
			woke = append(woke, p.Now())
			env.After(time.Millisecond, ev.Trigger)
			p.Sleep(5 * time.Millisecond)
			woke = append(woke, p.Now())
		})
		env.Run(0)
		if len(woke) != 2 || woke[0] != time.Millisecond || woke[1] != 6*time.Millisecond {
			t.Errorf("woke at %v, want [1ms 6ms]; a stale trigger passed the generation guard", woke)
		}
	})
	// blockedNow: a proc whose body returned restarts itself from a
	// callback its own goroutine pops. A wakeup aimed at its last block,
	// due before the start, matches the generation but finds the proc not
	// blocked. It must be dropped, or the heir would start early and the
	// start entry would then cut its Sleep short.
	t.Run("blockedNow", func(t *testing.T) {
		env := NewEnv(1)
		var heirs []*Proc
		var woke []time.Duration
		first := env.Go("first", func(p *Proc) {
			p.Sleep(time.Millisecond)
			env.After(0, func() {
				env.wakeEntry(env.Now(), p, p.blocks)
				env.Go("heir", func(q *Proc) {
					heirs = append(heirs, q)
					q.Sleep(5 * time.Millisecond)
					woke = append(woke, q.Now())
				})
			})
		})
		env.Run(0)
		if len(heirs) != 1 || heirs[0] != first {
			t.Fatalf("heir ran as %v, want once on the proc that restarted itself", heirs)
		}
		if len(woke) != 1 || woke[0] != 6*time.Millisecond {
			t.Errorf("heir woke at %v, want [6ms]; a stale wakeup passed the blockedNow guard", woke)
		}
	})
}
