//! Task executor for the pipeline's parallel stages.
//!
//! Every worker runs the same loop: claim the next item index from one
//! shared atomic cursor, run the task, keep the result. The calling thread
//! is worker 0 and `threads − 1` scoped threads join it, so a one-thread
//! run is that loop with no spawn. A long-running item (a large SVM
//! training, a dense clip) occupies only its own worker while the others
//! keep claiming. Results are keyed by input index and merged back in input
//! order, so the output is identical to a sequential map regardless of
//! scheduling.
//!
//! # Panic isolation
//!
//! Task bodies run under [`std::panic::catch_unwind`], so a panicking task
//! becomes a typed [`TaskFailure`] in that task's result slot instead of
//! poisoning the pool or aborting the process: the remaining work is
//! drained normally and every other task still produces its result
//! ([`Executor::try_map_with_cancel`]). The infallible [`Executor::map`]
//! front-end resumes the first recorded panic on the calling thread, after
//! every worker has drained.

use super::stage::StageId;
use crate::cancel::{CancelPanic, CancelToken};
use crate::obs::{Counter, ObsEvent, ObsHub, StageCounter};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Utilisation counters of one [`Executor`] run, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Workers that ran, the calling thread included.
    pub threads_used: usize,
    /// Tasks executed across all workers (= input length minus skips).
    pub tasks_executed: usize,
    /// Tasks workers claimed beyond their even share `⌈n / threads_used⌉`:
    /// the load the shared cursor moved off workers held up by slow items.
    /// Always 0 on one thread.
    pub tasks_stolen: usize,
    /// Tasks whose body panicked (caught and surfaced as [`TaskFailure`]).
    pub tasks_failed: usize,
    /// Tasks declined because the run's [`CancelToken`] tripped — never
    /// started, or unwound cooperatively mid-body. Always 0 without a
    /// token, unless a body raises the cancellation marker itself.
    pub tasks_skipped: usize,
}

impl ExecutorStats {
    fn count<R>(&mut self, result: &TaskResult<R>) {
        match result {
            TaskResult::Done(_) => self.tasks_executed += 1,
            TaskResult::Failed(_) => {
                self.tasks_executed += 1;
                self.tasks_failed += 1;
            }
            TaskResult::Skipped => self.tasks_skipped += 1,
        }
    }
}

/// Outcome of one task under
/// [`Executor::try_map_with_cancel`]: completed, failed (panicked), or
/// skipped because cancellation was observed before/while it ran.
#[derive(Debug)]
pub enum TaskResult<R> {
    /// The task body returned normally.
    Done(R),
    /// The task body panicked; the unwind was caught at the task boundary.
    Failed(TaskFailure),
    /// The run was cancelled before this task produced a result. Skipped
    /// tasks are not failures: they were never attempted (or cooperatively
    /// abandoned) and simply remain to be done by a resumed run.
    Skipped,
}

/// A task body that panicked, caught at the task boundary.
///
/// The shape the paper's long-running full-chip scans need: one poisoned
/// clip or tile is quarantined as data, the process survives, and the
/// caller decides the policy ([`crate::scan::FailurePolicy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Label of the pipeline stage the task ran in (a canonical
    /// [`super::StageId`] name, or a caller-chosen label like `scan_tile`).
    pub stage: String,
    /// Index of the failed item in the executor's input slice.
    pub index: usize,
    /// The panic payload rendered to a string (`&str` / `String` payloads
    /// verbatim, anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} panicked in stage `{}`: {}",
            self.index, self.stage, self.payload
        )
    }
}

impl std::error::Error for TaskFailure {}

/// Renders a caught panic payload as a string. The cooperative
/// [`TimeoutPanic`](crate::cancel::TimeoutPanic) marker renders its
/// deterministic reason so timed-out failures never carry wall-clock text.
pub(crate) fn panic_payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(t) = payload.downcast_ref::<crate::cancel::TimeoutPanic>() {
        t.reason()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A scoped executor over a fixed thread count.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    obs: Option<Arc<ObsHub>>,
}

impl Executor {
    /// An executor running at most `threads` workers (floored at 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            obs: None,
        }
    }

    /// Attaches an observability hub: every subsequent stage run emits
    /// span-style [`ObsEvent::StageBegin`]/[`ObsEvent::StageEnd`] events
    /// and each worker records completed tasks into the hub's lock-free
    /// counters. Without a hub every instrumentation point is one branch.
    pub fn with_obs(mut self, hub: Arc<ObsHub>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order together with utilisation stats.
    ///
    /// `f` receives `(index, &item)`.
    ///
    /// # Panics
    ///
    /// If a task body panics, every remaining task still runs; the first
    /// panic (in input order) is then resumed on the calling thread.
    /// Callers that want failures as data use
    /// [`try_map_with_cancel`](Self::try_map_with_cancel).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ExecutorStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let (results, stats) = self.try_map_with_cancel("unlabelled", items, f, None);
        let results = results
            .into_iter()
            .map(|r| match r {
                TaskResult::Done(v) => v,
                TaskResult::Failed(failure) => std::panic::resume_unwind(Box::new(failure.payload)),
                // Without a token only a body raising the cancellation
                // marker itself is skipped: hand the marker back up.
                TaskResult::Skipped => std::panic::resume_unwind(Box::new(CancelPanic)),
            })
            .collect();
        (results, stats)
    }

    /// [`map`](Self::map) with panic isolation and cooperative
    /// cancellation. `stage` labels failures and obs events.
    ///
    /// Each task body runs under `catch_unwind`: a panicking task yields
    /// [`TaskResult::Failed`] in its input-order slot while every other
    /// task completes normally. The closure is wrapped in
    /// [`AssertUnwindSafe`]: a failed task's result is discarded, and
    /// pipeline task bodies only share read-only state plus atomics, so a
    /// caught unwind cannot expose torn data to surviving tasks.
    ///
    /// Each worker polls `cancel` before starting its next task. A tripped
    /// token makes every not-yet-started task come back as
    /// [`TaskResult::Skipped`] while tasks already running finish (or
    /// unwind cooperatively — a body that panics with the crate's internal
    /// cancellation marker is also reported as skipped, not failed). The
    /// in-flight window therefore *drains*; nothing is abandoned half
    /// journaled.
    pub fn try_map_with_cancel<T, R, F>(
        &self,
        stage: &str,
        items: &[T],
        f: F,
        cancel: Option<&CancelToken>,
    ) -> (Vec<TaskResult<R>>, ExecutorStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let obs = self.obs.as_deref();
        let stage_id = StageId::from_name(stage);
        if let Some(hub) = obs {
            hub.emit(|| ObsEvent::StageBegin {
                stage: stage.to_string(),
                items: n,
            });
        }
        let run = |i: usize| -> TaskResult<R> {
            // One relaxed load per task boundary: the whole cost of
            // cancellation support on an uncancelled run.
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return TaskResult::Skipped;
            }
            let result = match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                Ok(v) => TaskResult::Done(v),
                Err(payload) if payload.downcast_ref::<CancelPanic>().is_some() => {
                    TaskResult::Skipped
                }
                Err(payload) => TaskResult::Failed(TaskFailure {
                    stage: stage.to_string(),
                    index: i,
                    payload: panic_payload_to_string(payload.as_ref()),
                }),
            };
            // Hot-path recording: relaxed atomic adds on the hub's
            // counters, no allocation.
            if let Some(hub) = obs {
                if !matches!(result, TaskResult::Skipped) {
                    let counters = hub.counters();
                    counters.add(Counter::ExecutorTasks, 1);
                    if let Some(id) = stage_id {
                        counters.add_stage(id, StageCounter::Tasks, 1);
                        if matches!(result, TaskResult::Failed(_)) {
                            counters.add_stage(id, StageCounter::Failures, 1);
                        }
                    }
                }
            }
            result
        };

        // `Relaxed` suffices: the cursor only hands out indices. Items reach
        // workers through the spawn and results return through the join,
        // and both order memory on their own.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut out: Vec<(usize, TaskResult<R>)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return out;
                }
                out.push((i, run(i)));
            }
        };
        // `run` catches every task unwind, so a worker that still unwinds
        // died outside a task; its claimed slots stay empty and become
        // typed failures below.
        let worker = || std::panic::catch_unwind(AssertUnwindSafe(work)).ok();
        let threads = self.threads.min(n.max(1));
        let outputs = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let mut outputs = vec![worker()];
            outputs.extend(spawned.into_iter().map(|h| h.join().ok().flatten()));
            outputs
        });

        let share = n.div_ceil(threads);
        let mut stats = ExecutorStats {
            threads_used: threads,
            ..ExecutorStats::default()
        };
        let mut slots: Vec<Option<TaskResult<R>>> = (0..n).map(|_| None).collect();
        for out in outputs.into_iter().flatten() {
            stats.tasks_stolen += out.len().saturating_sub(share);
            for (i, r) in out {
                stats.count(&r);
                slots[i] = Some(r);
            }
        }
        let results: Vec<TaskResult<R>> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    stats.tasks_failed += 1;
                    TaskResult::Failed(TaskFailure {
                        stage: stage.to_string(),
                        index: i,
                        payload: "executor worker thread died before task completion".to_string(),
                    })
                })
            })
            .collect();
        if let Some(hub) = obs {
            hub.emit(|| ObsEvent::StageEnd {
                stage: stage.to_string(),
                items: n,
                failures: stats.tasks_failed,
            });
        }
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 2, 4, 8] {
            let (out, stats) = Executor::new(threads).map(&items, |i, &v| {
                assert_eq!(i, v);
                v * 2
            });
            assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
            assert_eq!(stats.tasks_executed, items.len());
            assert_eq!(stats.threads_used, threads.min(items.len()));
            assert_eq!(stats.tasks_failed, 0);
        }
    }

    #[test]
    fn single_thread_runs_on_caller() {
        let caller = std::thread::current().id();
        let items = [1, 2, 3];
        let (_, stats) = Executor::new(1).map(&items, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(stats.threads_used, 1);
        assert_eq!(stats.tasks_stolen, 0);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathological item 100× slower than the rest: its worker runs
        // little else while the shared cursor hands the other 63 items to
        // the other workers, which then run beyond their even share of 16.
        let items: Vec<u64> = (0..64)
            .map(|i| if i == 0 { 2_000_000 } else { 20_000 })
            .collect();
        let ran = AtomicUsize::new(0);
        let (out, stats) = Executor::new(4).map(&items, |_, &spins| {
            ran.fetch_add(1, Ordering::Relaxed);
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            spins
        });
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert_eq!(out, items);
        assert_eq!(stats.tasks_executed, 64);
        assert_eq!(stats.threads_used, 4);
        assert!(stats.tasks_stolen > 0, "{stats:?}");
    }

    #[test]
    fn empty_input() {
        let items: [u8; 0] = [];
        let (out, stats) = Executor::new(4).map(&items, |_, &v| v);
        assert!(out.is_empty());
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn results_match_sequential_for_any_thread_count() {
        let items: Vec<i64> = (0..97).map(|i| i * 31 % 17).collect();
        let (seq, _) = Executor::new(1).map(&items, |i, &v| v * v + i as i64);
        for threads in [2, 3, 5, 16] {
            let (par, _) = Executor::new(threads).map(&items, |i, &v| v * v + i as i64);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn try_map_isolates_panics_and_drains_the_rest() {
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 4] {
            let (out, stats) = Executor::new(threads).try_map_with_cancel(
                "unit",
                &items,
                |_, &v| {
                    if v % 17 == 3 {
                        panic!("injected fault at item {v}");
                    }
                    v * 2
                },
                None,
            );
            assert_eq!(out.len(), items.len());
            let expected_failures = items.iter().filter(|v| *v % 17 == 3).count();
            assert_eq!(stats.tasks_failed, expected_failures, "threads={threads}");
            assert_eq!(stats.tasks_executed, items.len());
            for (i, r) in out.iter().enumerate() {
                match r {
                    TaskResult::Failed(failure) => {
                        assert_eq!(i % 17, 3, "threads={threads}");
                        assert_eq!(failure.index, i);
                        assert_eq!(failure.stage, "unit");
                        assert!(failure.payload.contains("injected fault"), "{failure}");
                    }
                    TaskResult::Done(v) => assert_eq!(*v, i * 2, "threads={threads}"),
                    TaskResult::Skipped => panic!("item {i} skipped without a token"),
                }
            }
        }
    }

    #[test]
    fn try_map_failures_are_deterministic_across_thread_counts() {
        let items: Vec<usize> = (0..120).collect();
        let run = |threads: usize| -> Vec<usize> {
            let (out, _) = Executor::new(threads).try_map_with_cancel(
                "unit",
                &items,
                |_, &v| {
                    if v % 13 == 7 {
                        panic!("boom {v}");
                    }
                    v
                },
                None,
            );
            out.iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, TaskResult::Failed(_)))
                .map(|(i, _)| i)
                .collect()
        };
        let baseline = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn map_resumes_first_panic_after_draining() {
        let completed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Executor::new(4).map(&items, |_, &v| {
                if v == 10 {
                    panic!("poisoned item");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                v
            })
        }));
        assert!(result.is_err(), "map must propagate the panic");
        // Panic isolation drained every other task before resuming.
        assert_eq!(completed.load(Ordering::Relaxed), items.len() - 1);
    }

    #[test]
    fn obs_hub_sees_spans_and_per_worker_task_counters() {
        use crate::obs::{ObsRecord, ObsSink};
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Capture(Mutex<Vec<ObsRecord>>);
        impl ObsSink for Capture {
            fn name(&self) -> &str {
                "capture"
            }
            fn on_event(&self, record: &ObsRecord) {
                self.0.lock().push(record.clone());
            }
        }

        let hub = ObsHub::new();
        let sink = Arc::new(Capture::default());
        struct Fwd(Arc<Capture>);
        impl ObsSink for Fwd {
            fn name(&self) -> &str {
                "capture"
            }
            fn on_event(&self, record: &ObsRecord) {
                self.0.on_event(record);
            }
        }
        hub.register(Box::new(Fwd(Arc::clone(&sink))));

        let items: Vec<usize> = (0..50).collect();
        let (out, stats) = Executor::new(4)
            .with_obs(Arc::clone(&hub))
            .try_map_with_cancel(
                "kernel_evaluation",
                &items,
                |_, &v| {
                    if v == 7 {
                        panic!("boom");
                    }
                    v
                },
                None,
            );
        assert_eq!(out.len(), 50);
        assert_eq!(stats.tasks_failed, 1);

        let events = sink.0.lock();
        assert!(matches!(
            &events[0].event,
            ObsEvent::StageBegin { stage, items: 50 } if stage == "kernel_evaluation"
        ));
        assert!(matches!(
            &events[events.len() - 1].event,
            ObsEvent::StageEnd { stage, items: 50, failures: 1 } if stage == "kernel_evaluation"
        ));
        let snap = hub.snapshot();
        assert_eq!(snap.executor_tasks, 50);
        let eval = snap
            .stages
            .iter()
            .find(|s| s.stage == "kernel_evaluation")
            .unwrap();
        assert_eq!(eval.tasks, 50);
        assert_eq!(eval.failures, 1);
    }

    #[test]
    fn pre_cancelled_run_skips_every_task() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let (out, stats) = Executor::new(threads).try_map_with_cancel(
                "unit",
                &items,
                |_, &v| v * 2,
                Some(&token),
            );
            assert!(out.iter().all(|r| matches!(r, TaskResult::Skipped)));
            assert_eq!(stats.tasks_skipped, items.len(), "threads={threads}");
            assert_eq!(stats.tasks_executed, 0);
            assert_eq!(stats.tasks_failed, 0);
        }
    }

    #[test]
    fn mid_run_cancellation_skips_the_tail_and_drains() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        let items: Vec<usize> = (0..256).collect();
        let fired = AtomicUsize::new(0);
        let (out, stats) = Executor::new(4).try_map_with_cancel(
            "unit",
            &items,
            |_, _| {
                if fired.fetch_add(1, Ordering::Relaxed) == 20 {
                    token.cancel();
                }
            },
            Some(&token),
        );
        assert_eq!(out.len(), items.len());
        let done = out
            .iter()
            .filter(|r| matches!(r, TaskResult::Done(())))
            .count();
        let skipped = out
            .iter()
            .filter(|r| matches!(r, TaskResult::Skipped))
            .count();
        assert_eq!(done + skipped, items.len());
        assert!(skipped > 0, "cancellation must skip the tail");
        assert_eq!(stats.tasks_executed, done);
        assert_eq!(stats.tasks_skipped, skipped);
    }

    #[test]
    fn cooperative_cancel_panic_reports_as_skipped() {
        use crate::cancel::CancelPanic;
        let items: Vec<usize> = (0..8).collect();
        let (out, stats) = Executor::new(2).try_map_with_cancel(
            "unit",
            &items,
            |_, &v| {
                if v == 3 {
                    std::panic::panic_any(CancelPanic);
                }
                v
            },
            None,
        );
        assert!(matches!(out[3], TaskResult::Skipped));
        assert_eq!(stats.tasks_skipped, 1);
        assert_eq!(stats.tasks_failed, 0);
        assert_eq!(stats.tasks_executed, items.len() - 1);
    }

    #[test]
    fn task_failure_displays_context() {
        let f = TaskFailure {
            stage: "kernel_evaluation".into(),
            index: 7,
            payload: "boom".into(),
        };
        let msg = f.to_string();
        assert!(msg.contains("kernel_evaluation"), "{msg}");
        assert!(msg.contains('7'), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }
}
