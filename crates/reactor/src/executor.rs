//! The worker-pool executor.
//!
//! A [`Reactor`] owns a fixed set of workers. Every task is pinned to
//! one worker at spawn time (explicitly, or round-robin), so a task is
//! only ever polled by one thread and needs no internal locking against
//! itself. Each worker runs a scheduling loop over three sources of
//! readiness:
//!
//! 1. its [`ReadyList`] — tasks woken by timers, by other tasks, or by
//!    external threads (broker sessions firing endpoint wakers);
//! 2. its [`TimingWheel`] — one-shot deadlines tasks armed via
//!    [`Context::wake_after`]/[`Context::wake_at_nanos`], or that
//!    [`Reactor::spawn_at`] armed for a task's first poll before the run;
//! 3. an explicit [`Context::yield_now`] requeue.
//!
//! The loop pops *only ready* tasks; idle tasks cost nothing per pass.
//! When the queue is empty the worker parks until the next timer
//! deadline or an external wake, bounded by a short slice so stop flags
//! are observed promptly.

use crate::ready::ReadyList;
use crate::task::{Context, Poll, Task};
use crate::wheel::TimingWheel;
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a worker parks before re-checking stop flags and deadlines.
const PARK_SLICE: Duration = Duration::from_millis(10);
/// Pause between shutdown sweeps while tasks finish up.
const DRAIN_SLICE: Duration = Duration::from_millis(1);
/// Shutdown sweeps before remaining tasks are abandoned as unfinished
/// (a task violating the bounded-shutdown contract must not hang the
/// process).
const MAX_DRAIN_SWEEPS: u32 = 10_000;

/// What one reactor run did.
#[derive(Debug)]
pub struct RunOutcome {
    /// Tasks that returned [`Poll::Ready`].
    pub completed: usize,
    /// Tasks still alive when the run stopped (stop flag, deadline, or a
    /// task that ignored the shutdown contract).
    pub unfinished: usize,
    /// Total `poll` calls across all workers — the load-proportionality
    /// measure the O(ready) regression test asserts on.
    pub polls: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// The worker-local state slots, in worker order, for the caller to
    /// downcast and harvest (reports, transports, …).
    pub worker_states: Vec<Option<Box<dyn Any + Send>>>,
}

/// A readiness-driven scheduler: spawn tasks, then [`run`](Reactor::run).
pub struct Reactor {
    workers: Vec<Worker>,
    next_worker: usize,
}

/// One worker's share of a reactor, filled in by the spawn calls.
struct Worker {
    tasks: Vec<Option<Box<dyn Task>>>,
    /// Tasks spawned without a deadline, in spawn order; each gets its
    /// first poll from the ready list as the run starts.
    unarmed: Vec<u32>,
    /// Holds the deadlines of [`Reactor::spawn_at`] tasks until the run,
    /// then every timer of the worker's tasks.
    timers: TimingWheel,
    state: Option<Box<dyn Any + Send>>,
}

impl Worker {
    fn new(tick: Duration, slots: usize) -> Self {
        Self {
            tasks: Vec::new(),
            unarmed: Vec::new(),
            timers: TimingWheel::new(tick, slots),
            state: None,
        }
    }

    /// Appends `task` and returns its index on this worker.
    fn push(&mut self, task: Box<dyn Task>) -> u32 {
        assert!(
            self.tasks.len() < u32::MAX as usize,
            "too many tasks on one worker"
        );
        self.tasks.push(Some(task));
        (self.tasks.len() - 1) as u32
    }
}

impl Reactor {
    /// A reactor with `workers` worker threads (clamped to at least 1)
    /// and the default 1 ms × 4096-slot timer wheel per worker.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: (0..workers.max(1))
                .map(|_| Worker::new(Duration::from_millis(1), 4096))
                .collect(),
            next_worker: 0,
        }
    }

    /// Overrides the per-worker timer wheel geometry.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `slots` is zero (wheel invariants), or
    /// if a task was already armed with [`Reactor::spawn_at`] (its
    /// deadline lives in the wheel being replaced).
    pub fn with_timer_resolution(mut self, tick: Duration, slots: usize) -> Self {
        assert!(
            self.workers.iter().all(|worker| worker.timers.is_empty()),
            "set the timer resolution before arming tasks"
        );
        for worker in &mut self.workers {
            worker.timers = TimingWheel::new(tick, slots);
        }
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Seeds worker `worker`'s shared state slot (see
    /// [`Context::state_mut`]).
    pub fn set_worker_state(&mut self, worker: usize, state: Box<dyn Any + Send>) {
        self.workers[worker].state = Some(state);
    }

    /// Spawns `task` on the least-recently-used worker (round-robin).
    /// Returns the worker it was pinned to.
    pub fn spawn(&mut self, task: Box<dyn Task>) -> usize {
        let worker = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.workers.len();
        self.spawn_on(worker, task);
        worker
    }

    /// Spawns `task` pinned to `worker`. Tasks spawned this way get their
    /// first poll as the run starts, in spawn order.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or the worker already holds
    /// `u32::MAX` tasks.
    pub fn spawn_on(&mut self, worker: usize, task: Box<dyn Task>) {
        assert!(worker < self.workers.len(), "worker index out of range");
        let worker = &mut self.workers[worker];
        let index = worker.push(task);
        worker.unarmed.push(index);
    }

    /// Spawns `task` pinned to `worker` with its first poll due at
    /// `deadline_nanos` from the run epoch, as if the task had called
    /// [`Context::wake_at_nanos`]. The deadline goes straight into the
    /// worker's timer wheel, so the task costs no poll before it is due
    /// and a deadline at or before the epoch fires on the first pass.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or the worker already holds
    /// `u32::MAX` tasks.
    pub fn spawn_at(&mut self, worker: usize, deadline_nanos: u64, task: Box<dyn Task>) {
        assert!(worker < self.workers.len(), "worker index out of range");
        let worker = &mut self.workers[worker];
        let index = worker.push(task);
        worker.timers.schedule(deadline_nanos, index);
    }

    /// Runs every spawned task to completion, or until `stop` is set or
    /// `run_for` elapses — whichever comes first. On shutdown each live
    /// task is swept with [`Context::stopping`] `true` until it
    /// completes.
    ///
    /// The epoch that deadlines and `run_for` count from starts here,
    /// after every [`Reactor::spawn_at`] deadline is already in its
    /// worker's wheel, so no time spent arming tasks is charged to the
    /// run.
    pub fn run(self, stop: Option<Arc<AtomicBool>>, run_for: Option<Duration>) -> RunOutcome {
        let epoch = Instant::now();
        let halt = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(self.workers.len());
        for (worker, tasks) in self.workers.into_iter().enumerate() {
            let stop = stop.clone();
            let halt = Arc::clone(&halt);
            handles.push(std::thread::spawn(move || {
                worker_loop(worker, tasks, epoch, stop, run_for, halt)
            }));
        }
        let mut outcome = RunOutcome {
            completed: 0,
            unfinished: 0,
            polls: 0,
            elapsed: Duration::ZERO,
            worker_states: Vec::with_capacity(handles.len()),
        };
        for handle in handles {
            let done = handle.join().expect("reactor worker panicked");
            outcome.completed += done.completed;
            outcome.unfinished += done.unfinished;
            outcome.polls += done.polls;
            outcome.worker_states.push(done.state);
        }
        outcome.elapsed = epoch.elapsed();
        outcome
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("workers", &self.workers.len())
            .field(
                "tasks",
                &self
                    .workers
                    .iter()
                    .map(|worker| worker.tasks.len())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

struct WorkerDone {
    completed: usize,
    unfinished: usize,
    polls: u64,
    state: Option<Box<dyn Any + Send>>,
}

fn worker_loop(
    worker: usize,
    spawned: Worker,
    epoch: Instant,
    stop: Option<Arc<AtomicBool>>,
    run_for: Option<Duration>,
    halt: Arc<AtomicBool>,
) -> WorkerDone {
    let Worker {
        tasks: mut slots_vec,
        unarmed,
        mut timers,
        mut state,
    } = spawned;
    let ready = Arc::new(ReadyList::new(slots_vec.len()));
    let mut live = slots_vec.len();
    let mut completed = 0usize;
    let mut polls = 0u64;
    let mut due = Vec::new();

    // Every task spawned without a deadline gets an initial poll, in
    // spawn order; armed tasks wait for their timer.
    for index in unarmed {
        ready.wake(index);
    }

    let should_halt = |elapsed: Duration| {
        halt.load(Ordering::Acquire)
            || stop
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Acquire))
            || run_for.is_some_and(|limit| elapsed >= limit)
    };

    while live > 0 {
        let now = epoch.elapsed();
        if should_halt(now) {
            // Tell the sibling workers too: one stop reason (e.g. this
            // worker's deadline check) halts the whole reactor.
            halt.store(true, Ordering::Release);
            break;
        }

        // Fire due timers into the ready list (dedup via TaskState).
        timers.advance(now.as_nanos() as u64, &mut due);
        for (_, task) in due.drain(..) {
            ready.wake(task);
        }

        // Drain the ready queue: O(ready), idle tasks untouched. The
        // budget bounds one pass so yield-looping tasks cannot starve
        // timer fires or the halt check above.
        let mut ran_any = false;
        let mut budget = 4096usize.max(slots_vec.len());
        while let Some(index) = ready.pop() {
            if budget == 0 {
                ready.requeue(index);
                break;
            }
            budget -= 1;
            let slot = &mut slots_vec[index as usize];
            let Some(task) = slot.as_mut() else {
                continue;
            };
            ran_any = true;
            polls += 1;
            let mut cx = Context {
                now: epoch.elapsed(),
                stopping: false,
                timers: &mut timers,
                ready: &ready,
                task: index,
                worker,
                state: &mut state,
                yielded: false,
            };
            match task.poll(&mut cx) {
                Poll::Ready => {
                    ready.finish(index);
                    *slot = None;
                    live -= 1;
                    completed += 1;
                }
                Poll::Pending => {
                    if cx.yielded {
                        ready.requeue(index);
                    } else {
                        ready.park_or_requeue(index);
                    }
                }
            }
        }
        if ran_any || live == 0 {
            continue;
        }

        // Nothing ready: park until the next timer, an external wake, or
        // the park slice — whichever is soonest.
        let now_nanos = epoch.elapsed().as_nanos() as u64;
        let until_timer = timers
            .next_deadline()
            .map(|deadline| Duration::from_nanos(deadline.saturating_sub(now_nanos)));
        let mut wait = until_timer.unwrap_or(PARK_SLICE).min(PARK_SLICE);
        if let Some(limit) = run_for {
            wait = wait.min(limit.saturating_sub(epoch.elapsed()));
        }
        if !wait.is_zero() {
            ready.park(wait);
        }
    }

    // Shutdown: sweep live tasks with `stopping = true` until each has
    // finished (they are contract-bound to do so in bounded polls).
    let mut sweeps = 0u32;
    while live > 0 && sweeps < MAX_DRAIN_SWEEPS {
        sweeps += 1;
        let mut progressed = false;
        for (index, slot) in slots_vec.iter_mut().enumerate() {
            let Some(task) = slot.as_mut() else {
                continue;
            };
            polls += 1;
            let mut cx = Context {
                now: epoch.elapsed(),
                stopping: true,
                timers: &mut timers,
                ready: &ready,
                task: index as u32,
                worker,
                state: &mut state,
                yielded: false,
            };
            if task.poll(&mut cx) == Poll::Ready {
                ready.finish(index as u32);
                *slot = None;
                live -= 1;
                completed += 1;
                progressed = true;
            }
        }
        if live > 0 && !progressed {
            std::thread::sleep(DRAIN_SLICE);
        }
    }

    WorkerDone {
        completed,
        unfinished: live,
        polls,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Counts down on a timer cadence, recording fire times.
    struct Countdown {
        remaining: u32,
        gap: Duration,
        fired: Arc<AtomicU64>,
    }

    impl Task for Countdown {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if cx.stopping() || self.remaining == 0 {
                return Poll::Ready;
            }
            self.remaining -= 1;
            self.fired.fetch_add(1, Ordering::Relaxed);
            if self.remaining == 0 {
                return Poll::Ready;
            }
            cx.wake_after(self.gap);
            Poll::Pending
        }
    }

    #[test]
    fn tasks_run_to_completion_on_timers() {
        let fired = Arc::new(AtomicU64::new(0));
        let mut reactor = Reactor::new(2);
        for _ in 0..10 {
            reactor.spawn(Box::new(Countdown {
                remaining: 5,
                gap: Duration::from_millis(1),
                fired: Arc::clone(&fired),
            }));
        }
        let outcome = reactor.run(None, None);
        assert_eq!(outcome.completed, 10);
        assert_eq!(outcome.unfinished, 0);
        assert_eq!(fired.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn stop_flag_sweeps_tasks_out() {
        let fired = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let mut reactor = Reactor::new(1);
        reactor.spawn(Box::new(Countdown {
            remaining: u32::MAX,
            gap: Duration::from_millis(5),
            fired: Arc::clone(&fired),
        }));
        let flag = Arc::clone(&stop);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            flag.store(true, Ordering::Release);
        });
        let outcome = reactor.run(Some(stop), None);
        canceller.join().unwrap();
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.unfinished, 0);
        assert!(fired.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn run_deadline_halts_all_workers() {
        let mut reactor = Reactor::new(3);
        for _ in 0..3 {
            reactor.spawn(Box::new(Countdown {
                remaining: u32::MAX,
                gap: Duration::from_millis(2),
                fired: Arc::new(AtomicU64::new(0)),
            }));
        }
        let outcome = reactor.run(None, Some(Duration::from_millis(40)));
        assert_eq!(outcome.completed, 3);
        assert!(outcome.elapsed >= Duration::from_millis(40));
        assert!(outcome.elapsed < Duration::from_secs(5));
    }

    /// Parks forever until an external waker fires, then completes.
    struct WaitForWake {
        handoff: Arc<Mutex<Option<crate::Waker>>>,
        armed: bool,
    }

    impl Task for WaitForWake {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if cx.stopping() {
                return Poll::Ready;
            }
            if !self.armed {
                self.armed = true;
                *self.handoff.lock().unwrap() = Some(cx.waker());
                return Poll::Pending;
            }
            Poll::Ready
        }
    }

    #[test]
    fn external_wake_reschedules_parked_task() {
        let handoff = Arc::new(Mutex::new(None));
        let mut reactor = Reactor::new(1);
        reactor.spawn(Box::new(WaitForWake {
            handoff: Arc::clone(&handoff),
            armed: false,
        }));
        let waker_thread = std::thread::spawn(move || loop {
            if let Some(waker) = handoff.lock().unwrap().take() {
                std::thread::sleep(Duration::from_millis(10));
                waker.wake();
                return;
            }
            std::thread::yield_now();
        });
        let outcome = reactor.run(None, Some(Duration::from_secs(10)));
        waker_thread.join().unwrap();
        assert_eq!(outcome.completed, 1);
        assert!(outcome.elapsed < Duration::from_secs(5));
    }

    /// Uses the worker-local state slot as a shared accumulator.
    struct AddToSlot(u64);

    impl Task for AddToSlot {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            *cx.state_mut::<u64>().expect("slot seeded") += self.0;
            Poll::Ready
        }
    }

    #[test]
    fn worker_state_is_shared_and_harvested() {
        let mut reactor = Reactor::new(2);
        reactor.set_worker_state(0, Box::new(0u64));
        reactor.set_worker_state(1, Box::new(0u64));
        for value in 1..=4u64 {
            reactor.spawn(Box::new(AddToSlot(value)));
        }
        let outcome = reactor.run(None, None);
        let total: u64 = outcome
            .worker_states
            .into_iter()
            .map(|slot| *slot.unwrap().downcast::<u64>().unwrap())
            .sum();
        assert_eq!(total, 10);
    }

    /// Yields a fixed number of times, then completes.
    struct Yielder {
        left: u32,
    }

    impl Task for Yielder {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if self.left == 0 {
                return Poll::Ready;
            }
            self.left -= 1;
            cx.yield_now();
            Poll::Pending
        }
    }

    #[test]
    fn yield_now_requeues_without_timers() {
        let mut reactor = Reactor::new(1);
        reactor.spawn(Box::new(Yielder { left: 100 }));
        let outcome = reactor.run(None, Some(Duration::from_secs(10)));
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.polls, 101);
    }

    /// Logs its id on every live poll and completes on the first one.
    struct LogOnce {
        id: u32,
        log: Arc<Mutex<Vec<u32>>>,
    }

    impl Task for LogOnce {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if !cx.stopping() {
                self.log.lock().unwrap().push(self.id);
            }
            Poll::Ready
        }
    }

    const HOUR_NANOS: u64 = 3_600_000_000_000;

    #[test]
    fn tasks_armed_beyond_the_run_are_polled_only_by_the_shutdown_sweep() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut reactor = Reactor::new(2);
        for id in 0..100u32 {
            let task = Box::new(LogOnce {
                id,
                log: Arc::clone(&log),
            });
            reactor.spawn_at(id as usize % 2, HOUR_NANOS + u64::from(id), task);
        }
        let outcome = reactor.run(None, Some(Duration::from_millis(10)));
        assert_eq!(
            outcome.polls, 100,
            "one shutdown poll each, no initial poll"
        );
        assert_eq!(outcome.completed, 100);
        assert!(log.lock().unwrap().is_empty());
    }

    #[test]
    fn an_armed_deadline_already_past_fires_on_the_first_pass() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut reactor = Reactor::new(1);
        reactor.spawn_at(
            0,
            0,
            Box::new(LogOnce {
                id: 7,
                log: Arc::clone(&log),
            }),
        );
        let outcome = reactor.run(None, None);
        assert_eq!(outcome.polls, 1);
        assert_eq!(outcome.completed, 1);
        assert_eq!(*log.lock().unwrap(), vec![7]);
    }

    #[test]
    fn unarmed_tasks_keep_their_spawn_order_beside_armed_ones() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut reactor = Reactor::new(1);
        let task = |id| {
            Box::new(LogOnce {
                id,
                log: Arc::clone(&log),
            })
        };
        reactor.spawn(task(0));
        reactor.spawn_at(0, HOUR_NANOS, task(1));
        reactor.spawn(task(2));
        reactor.spawn_at(0, 0, task(3));
        reactor.spawn(task(4));
        let outcome = reactor.run(None, Some(Duration::from_millis(10)));
        // The unarmed tasks go first, in spawn order; the past deadline
        // fires behind them on the same pass; the far one is only swept.
        assert_eq!(*log.lock().unwrap(), vec![0, 2, 4, 3]);
        assert_eq!(outcome.polls, 5);
        assert_eq!(outcome.completed, 5);
    }

    #[test]
    #[should_panic(expected = "set the timer resolution before arming tasks")]
    fn timer_resolution_cannot_drop_armed_deadlines() {
        let mut reactor = Reactor::new(1);
        reactor.spawn_at(0, 0, Box::new(AddToSlot(0)));
        let _ = reactor.with_timer_resolution(Duration::from_millis(2), 8);
    }
}
