// Package netsim is a deterministic discrete-event simulation (DES) kernel
// plus the network primitives the MFC reproduction is built on: simulated
// processes with a virtual clock, one-shot events, FIFO resources, and a
// fluid-flow shared link with max-min fair bandwidth allocation.
//
// Execution model (SimPy-style, lock-step): every simulated process is a
// goroutine, but at most one goroutine — the caller of Env.Run or exactly one
// process — holds the execution token at any instant, and only the holder
// touches the environment. The holder runs the dispatch loop itself. A
// process that blocks (Sleep, Wait, resource queue) or terminates pops the
// next calendar entries on its own goroutine, runs After/At callbacks
// inline, and passes the token straight to the next process due by waking
// that process's channel. When the next wakeup is the blocking process
// itself — a process sleeping while nothing else is due — it resumes with no
// goroutine switch at all. The token goes back to Run's goroutine only when
// the calendar is exhausted, the until horizon is reached, or a process or
// callback panicked. Pop order depends on (time, sequence) alone, never on
// which goroutine runs the loop, so identical seeds produce identical runs.
//
// The calendar is tuned for the Sleep→Run dispatch cycle that dominates
// simulated experiments: entries are recycled through a free list instead of
// being reallocated per event, and the binary heap is maintained in place on
// an index-addressed slice (no container/heap interface boxing). Passing the
// token to another goroutine is one send on its 1-buffered channel followed
// by a receive on the sender's own, so a dispatch costs at most one
// goroutine switch, and none when a process wakes itself.
//
// Two further optimizations exploit the lock-step model:
//
//   - Batched link reallocation. A Link whose flow set changes does not
//     recompute its waterfill immediately; it registers on the environment's
//     dirty list and the dispatch loop flushes every dirty link exactly once
//     per simulated instant, just before the clock advances (and before Run
//     returns).
//     N synchronized flow arrivals at one timestamp cost one waterfill
//     instead of N. Flush order is registration order, never map iteration,
//     so runs stay byte-deterministic. No virtual time passes between a
//     flow change and its flush, so rates, byte accounting, and completion
//     instants are exactly those of eager recomputation. Two narrower
//     behaviors do differ from the pre-batching kernel: the completion
//     callback's calendar entry is pushed at the flush rather than
//     mid-instant, so its tie-break order against an entry independently
//     scheduled for the very same future nanosecond can change, and
//     EnableSampling records one RateSample per instant rather than one
//     per flow change. The reference "immediate" kernel — reallocate on
//     every change — remains selectable per environment
//     (SetImmediateReallocate) or process-wide via the
//     MFC_NETSIM_IMMEDIATE environment variable, and the differential
//     tests verify end-to-end result equality across seeds, presets, and
//     population bands.
//
//   - Pooled processes. A dead Proc, its wake channel, and its goroutine are
//     parked on a free list and resurrected by the next Go instead of being
//     reallocated. A recycled Proc keeps its monotonic block counter, so
//     wakeups aimed at a previous incarnation can never pass the generation
//     guard. Run terminates the parked goroutines when the calendar is
//     exhausted, so environments do not leak goroutines across experiments.
package netsim

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

// Env is a simulation environment: a virtual clock and an event calendar.
// Create one with NewEnv; it is not safe for concurrent use by goroutines
// outside the simulation (simulated processes interact with it only while
// they hold the single execution token, which is safe by construction).
type Env struct {
	now    time.Duration
	cal    []*entry     // binary min-heap ordered by (at, seq)
	free   []*entry     // recycled calendar entries
	evfree []*Event     // recycled events (see FreeEvent)
	wfree  [][]evWaiter // recycled waiter slices (capacity only)
	dirty  []*Link      // links awaiting the end-of-instant waterfill flush
	pfree  []*Proc      // dead procs with parked goroutines, LIFO
	flfree []*Flow      // recycled link flows (see freeFlow)
	wtfree []*waiter    // recycled resource waiters
	seq    uint64
	until  time.Duration // horizon of the current Run; <= 0 means none
	yield  chan struct{} // wakes Run's goroutine when the token returns
	rng    *rand.Rand
	err    any // panic value recovered from a process or callback

	// immediate selects the reference kernel: every Link flow change
	// recomputes the waterfill eagerly instead of once per instant. The
	// differential tests run both kernels and require identical output.
	immediate bool
}

// NewEnv returns an environment whose random source is seeded with seed.
// Setting MFC_NETSIM_IMMEDIATE in the process environment selects the
// reference immediate-reallocate kernel for every new environment.
func NewEnv(seed int64) *Env {
	return &Env{
		yield:     make(chan struct{}, 1),
		rng:       rand.New(rand.NewSource(seed)),
		immediate: os.Getenv("MFC_NETSIM_IMMEDIATE") != "",
	}
}

// SetImmediateReallocate switches between the batched kernel (default,
// false) and the reference immediate-reallocate kernel. Call it before the
// simulation runs; switching to immediate mid-run flushes any pending
// recomputations first so no link is left with stale rates.
func (e *Env) SetImmediateReallocate(on bool) {
	if on {
		e.flushDirty()
	}
	e.immediate = on
}

// flushDirty recomputes the waterfill of every dirty link, in the order the
// links became dirty within the instant. reallocate changes no flow set, so
// a flush cannot re-dirty a link.
func (e *Env) flushDirty() {
	for i, l := range e.dirty {
		e.dirty[i] = nil
		l.dirty = false
		l.reallocate()
	}
	e.dirty = e.dirty[:0]
}

// Now returns the current virtual time (time since simulation start).
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source. Only simulated
// processes and callbacks may use it.
func (e *Env) Rand() *rand.Rand { return e.rng }

// entry is one calendar item: a process wakeup, a process start, or a
// callback. Entries are pooled: once popped and dispatched they
// return to Env.free and are reused by later pushes. A Timer therefore
// validates its saved seq before acting on the entry it points to.
type entry struct {
	at       time.Duration
	seq      uint64
	proc     *Proc  // non-nil: wake this process…
	target   uint64 // …if it is blocked in block #target
	start    bool   // this entry starts proc rather than waking it
	fn       func() // non-nil: run this callback inline in the dispatch loop
	canceled bool
}

func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// newEntry takes an entry from the free list (or allocates one) with all
// scheduling fields cleared.
func (e *Env) newEntry() *entry {
	if n := len(e.free); n > 0 {
		en := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return en
	}
	return &entry{}
}

// recycle clears an entry and returns it to the free list. Clearing seq
// invalidates any Timer still holding the entry (timer seqs are never 0).
func (e *Env) recycle(en *entry) {
	*en = entry{}
	e.free = append(e.free, en)
}

// calPush inserts an entry into the heap, sifting up in place.
func (e *Env) calPush(en *entry) {
	e.cal = append(e.cal, en)
	i := len(e.cal) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(e.cal[i], e.cal[parent]) {
			break
		}
		e.cal[i], e.cal[parent] = e.cal[parent], e.cal[i]
		i = parent
	}
}

// calPop removes and returns the earliest entry, sifting down in place.
func (e *Env) calPop() *entry {
	en := e.cal[0]
	n := len(e.cal) - 1
	e.cal[0] = e.cal[n]
	e.cal[n] = nil
	e.cal = e.cal[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(e.cal[r], e.cal[l]) {
			m = r
		}
		if !entryLess(e.cal[m], e.cal[i]) {
			break
		}
		e.cal[i], e.cal[m] = e.cal[m], e.cal[i]
		i = m
	}
	return en
}

func (e *Env) push(en *entry) *entry {
	if en.at < e.now {
		en.at = e.now
	}
	e.seq++
	en.seq = e.seq
	e.calPush(en)
	return en
}

// wakeEntry schedules a wakeup for p at time `at`, valid only for block
// generation `target`. The wakeup is delivered only if, when popped, p is
// still blocked in that same block() call; otherwise it is dropped. This
// makes racing wakeup sources (event trigger vs. timeout) harmless.
func (e *Env) wakeEntry(at time.Duration, p *Proc, target uint64) *entry {
	en := e.newEntry()
	en.at = at
	en.proc = p
	en.target = target
	return e.push(en)
}

// Timer is a handle to a scheduled callback; Cancel prevents a pending
// callback from running. The zero Timer is valid and cancels nothing.
type Timer struct {
	en  *entry
	seq uint64
}

// Cancel marks the timer so its callback will not fire. Canceling an
// already-fired, already-canceled, or zero timer is a no-op: once the entry
// has been dispatched and recycled its seq no longer matches the timer's.
func (t Timer) Cancel() {
	if t.en != nil && t.en.seq == t.seq {
		t.en.canceled = true
	}
}

// After schedules fn to run at Now()+d. The callback runs inline in the
// dispatch loop, on whichever goroutine holds the execution token, so it
// must not block; it may schedule further work, trigger events, and start
// processes. If it panics, Run re-raises the panic value unchanged.
func (e *Env) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	en := e.newEntry()
	en.at = e.now + d
	en.fn = fn
	e.push(en)
	return Timer{en: en, seq: en.seq}
}

// At schedules fn to run at the absolute virtual time
// `at` (clamped to now if already past) — the trigger primitive the
// scenario/chaos layer uses to fire faults at fixed points of simulated
// time. Like After, the callback must not block.
func (e *Env) At(at time.Duration, fn func()) Timer {
	return e.After(at-e.now, fn)
}

// Proc is a simulated process. Its methods may only be called from within
// the process's own function.
//
// Procs are pooled: when a process function returns, the Proc, its wake
// channel, and its goroutine park on the environment's free list and the
// next Go resurrects them. blocks is deliberately NOT reset on reuse — it
// increases monotonically across incarnations, so a stale wakeup scheduled
// for a previous life (its target is at most the previous life's final
// block count) can never match a block of the current one.
type Proc struct {
	env        *Env
	name       string
	wake       chan struct{}
	fn         func(p *Proc) // body of the current incarnation
	dead       bool
	kill       bool   // tells the parked goroutine to exit (pool drain)
	blocks     uint64 // number of block() calls entered so far, ever
	blockedNow bool
}

// Name returns the label the process was started with.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Go starts fn as a new simulated process at the current time.
// It can be called before Run, from another process, or from a callback.
// The Proc comes from the free list when one is parked there (LIFO, so
// reuse order is deterministic); otherwise a fresh Proc and goroutine are
// created.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.pfree); n > 0 {
		p = e.pfree[n-1]
		e.pfree[n-1] = nil
		e.pfree = e.pfree[:n-1]
		p.name = name
		p.dead = false
		p.blockedNow = false
	} else {
		p = &Proc{env: e, name: name, wake: make(chan struct{}, 1)}
		go e.procLoop(p)
	}
	p.fn = fn
	en := e.newEntry()
	en.at = e.now
	en.proc = p
	en.start = true
	e.push(en)
	return p
}

// procLoop is the body of every process goroutine: wait for the first start
// dispatch, then run one incarnation per start. After each incarnation the
// proc parks on the free list and its goroutine dispatches onward itself; it
// runs the next incarnation at once if the loop restarted this very proc,
// and otherwise waits until it is started again or killed by a pool drain.
func (e *Env) procLoop(p *Proc) {
	<-p.wake
	for !p.kill {
		e.runIncarnation(p)
		p.dead = true
		p.fn = nil
		e.pfree = append(e.pfree, p)
		if !e.schedule(p) {
			<-p.wake
		}
	}
	e.yield <- struct{}{} // acknowledge the drain, then exit
}

// runIncarnation executes the current process body, converting a panic into
// the environment error that Run re-raises.
func (e *Env) runIncarnation(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Sprintf("netsim: process %q panicked: %v", p.name, r)
		}
	}()
	p.fn(p)
}

// drainProcPool terminates every parked goroutine. Run calls it, holding the
// token, whenever it returns or re-raises a panic, so a finished or
// abandoned simulation holds no pooled goroutines; the next Go after a
// drain simply allocates fresh.
func (e *Env) drainProcPool() {
	for i, p := range e.pfree {
		p.kill = true
		p.wake <- struct{}{}
		<-e.yield // the goroutine acknowledges and exits
		p.kill = false
		e.pfree[i] = nil
	}
	e.pfree = e.pfree[:0]
}

// GoAfter starts fn as a new process after delay d.
func (e *Env) GoAfter(name string, d time.Duration, fn func(p *Proc)) {
	e.After(d, func() { e.Go(name, fn) })
}

// Sleep suspends the process for d of virtual time (d <= 0 yields the
// execution token and resumes at the same instant, after other work
// scheduled for this instant).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.wakeEntry(p.env.now+d, p, p.blocks+1)
	p.block()
}

// block gives up the token until p is woken. The dispatch loop runs on p's
// own goroutine first, so a process whose wakeup is the next entry due
// resumes without a goroutine switch.
func (p *Proc) block() {
	p.blocks++
	p.blockedNow = true
	if !p.env.schedule(p) {
		<-p.wake
	}
	p.blockedNow = false
}

// schedule is the dispatch loop. It runs on the goroutine that holds the
// token: self is that goroutine's process, or nil for Run's goroutine. It
// pops entries in (at, seq) order, running callbacks inline and flushing
// dirty links whenever the clock is about to leave the current instant,
// until it reaches a process to run or a stop: calendar exhausted, until
// horizon reached, or a panic recorded. It then passes the token on. It
// reports true when the caller itself runs next (a process woken by its own
// entry, or Run at a stop); otherwise it has woken the next goroutine, and
// the caller must touch nothing more before receiving on its own channel.
//
// A flush may schedule new completion entries at or after now; the loop
// re-examines the calendar afterwards, so those dispatch in their proper
// place. A callback panic is recovered here, whichever goroutine ran the
// callback, so it never unwinds a process body; Run re-raises the value.
func (e *Env) schedule(self *Proc) (selfNext bool) {
	defer func() {
		if r := recover(); r != nil {
			e.err = r
			selfNext = e.handoff(self, nil)
		}
	}()
	if e.err != nil { // the process that just ended panicked
		return e.handoff(self, nil)
	}
	for {
		if len(e.cal) == 0 {
			if len(e.dirty) == 0 {
				return e.handoff(self, nil)
			}
			e.flushDirty()
			continue
		}
		if len(e.dirty) > 0 && e.cal[0].at > e.now {
			e.flushDirty()
			continue // the flush may have pushed earlier entries
		}
		en := e.calPop()
		if en.canceled {
			e.recycle(en)
			continue
		}
		if e.until > 0 && en.at > e.until {
			e.calPush(en) // keep it for a later Run
			e.now = e.until
			return e.handoff(self, nil)
		}
		e.now = en.at
		// Copy the dispatch fields and recycle before dispatching: the
		// process or callback may push new entries that reuse this one.
		proc, target, start, fn := en.proc, en.target, en.start, en.fn
		e.recycle(en)
		switch {
		case start:
			if !proc.dead {
				return e.handoff(self, proc)
			}
		case proc != nil:
			// A stale wakeup (process dead, running, or in a later block)
			// is dropped.
			if !proc.dead && proc.blockedNow && proc.blocks == target {
				return e.handoff(self, proc)
			}
		case fn != nil:
			fn()
		}
	}
}

// handoff passes the token from self to next, where nil stands for Run's
// goroutine, and reports whether the caller keeps it (next == self).
func (e *Env) handoff(self, next *Proc) bool {
	switch {
	case next == self:
		return true
	case next == nil:
		e.yield <- struct{}{}
	default:
		next.wake <- struct{}{}
	}
	return false
}

// Run drives the simulation until the calendar is exhausted or the virtual
// clock would pass `until` (use a non-positive until to run to exhaustion).
// It panics if a simulated process panicked, re-raising the value with
// context, or if a callback panicked, re-raising that callback's value
// unchanged. Run returns the virtual time at which it stopped.
//
// Run hands the token to the dispatch loop (see schedule) and waits for it
// to come back. The loop owns the end-of-instant flush: whenever the clock
// is about to leave the current instant — the next entry is later than now,
// the calendar is empty, or the until cutoff is reached — every dirty link
// recomputes its waterfill once, at the instant all of its flow changes
// happened.
//
// Before returning or re-raising, Run drains the process pool, terminating
// the parked goroutines: a caller may abandon the environment at any stop
// (campaign jobs recover per-site panics), and parked goroutines are never
// garbage collected.
func (e *Env) Run(until time.Duration) time.Duration {
	e.until = until
	if !e.schedule(nil) {
		<-e.yield
	}
	e.drainProcPool()
	if err := e.err; err != nil {
		panic(err)
	}
	return e.now
}

// Event is a one-shot condition processes can wait on. The zero value is
// unusable; create events with NewEvent.
type Event struct {
	env       *Env
	triggered bool
	waiters   []evWaiter
}

// evWaiter pins the waiting process to the block generation in which it
// registered, so a trigger that fires after the process has moved on (e.g.
// past a WaitTimeout) cannot disturb its later blocks.
type evWaiter struct {
	proc   *Proc
	target uint64
}

// NewEvent returns an untriggered event bound to e. Events come from a free
// list fed by FreeEvent; Sleep-style waits plus the pooled calendar already
// run allocation-free, and recycling events (the other per-wait allocation)
// keeps Resource and Link waits at zero steady-state allocation too.
func (e *Env) NewEvent() *Event {
	if n := len(e.evfree); n > 0 {
		ev := e.evfree[n-1]
		e.evfree[n-1] = nil
		e.evfree = e.evfree[:n-1]
		return ev
	}
	return &Event{env: e}
}

// FreeEvent returns ev to the environment's free list for reuse by a later
// NewEvent. The caller asserts that no process will touch ev again: every
// waiter has returned from its Wait, and no other reference escaped (events
// handed out by StartFlow, for example, must not be freed by the Link).
// Stale evWaiter entries from an abandoned WaitTimeout are harmless — they
// are cleared here, and their wakeups were never scheduled.
func (e *Env) FreeEvent(ev *Event) {
	if ev == nil {
		return
	}
	if cap(ev.waiters) > 0 {
		e.wfree = append(e.wfree, ev.waiters[:0])
	}
	*ev = Event{env: e}
	e.evfree = append(e.evfree, ev)
}

// newFlow takes a Flow from the free list (or allocates one). Fields are
// zeroed at free time; Link.start sets every live field.
func (e *Env) newFlow() *Flow {
	if n := len(e.flfree); n > 0 {
		fl := e.flfree[n-1]
		e.flfree[n-1] = nil
		e.flfree = e.flfree[:n-1]
		return fl
	}
	return &Flow{}
}

// freeFlow recycles a retired flow. The caller asserts the flow is off its
// link's flow list and no other reference escaped — Transfer-style waits
// qualify; flows handed out via StartFlow are never recycled because the
// caller keeps the completion event.
func (e *Env) freeFlow(fl *Flow) {
	*fl = Flow{}
	e.flfree = append(e.flfree, fl)
}

// newWaiter and freeWaiter recycle Resource queue nodes the same way.
func (e *Env) newWaiter() *waiter {
	if n := len(e.wtfree); n > 0 {
		w := e.wtfree[n-1]
		e.wtfree[n-1] = nil
		e.wtfree = e.wtfree[:n-1]
		return w
	}
	return &waiter{}
}

func (e *Env) freeWaiter(w *waiter) {
	*w = waiter{}
	e.wtfree = append(e.wtfree, w)
}

// addWaiter registers a waiter, drawing the backing slice from the recycled
// pool on first use.
func (ev *Event) addWaiter(p *Proc, target uint64) {
	if ev.waiters == nil {
		if n := len(ev.env.wfree); n > 0 {
			ev.waiters = ev.env.wfree[n-1]
			ev.env.wfree[n-1] = nil
			ev.env.wfree = ev.env.wfree[:n-1]
		}
	}
	ev.waiters = append(ev.waiters, evWaiter{proc: p, target: target})
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, waking all current waiters at the current time in
// FIFO order. Triggering twice is a no-op. It may be called from a process
// or a callback.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, w := range ev.waiters {
		ev.env.wakeEntry(ev.env.now, w.proc, w.target)
	}
	if cap(ev.waiters) > 0 {
		ev.env.wfree = append(ev.env.wfree, ev.waiters[:0])
	}
	ev.waiters = nil
}

// Wait suspends p until the event triggers. If the event has already
// triggered, Wait returns immediately without yielding.
func (p *Proc) Wait(ev *Event) {
	if ev.triggered {
		return
	}
	ev.addWaiter(p, p.blocks+1)
	p.block()
}

// WaitTimeout waits for ev for at most d. It reports true if the event
// triggered while waiting (or had already triggered), false if the timeout
// elapsed first.
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) bool {
	if ev.triggered {
		return true
	}
	// Two racing wakeup sources aim at the same block; the stale one is
	// dropped by the generation guard in schedule.
	en := p.env.wakeEntry(p.env.now+d, p, p.blocks+1)
	timer := Timer{en: en, seq: en.seq}
	ev.addWaiter(p, p.blocks+1)
	p.block()
	timer.Cancel()
	return ev.triggered
}
