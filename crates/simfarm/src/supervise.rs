//! Supervision: crash isolation, deterministic retries, quarantine, and
//! cooperative cancellation.
//!
//! Every job the farm executes goes through one loop, [`supervise`]: up to
//! `1 + job.retries` attempts, then quarantine if every attempt came back
//! unhealthy. Each try is one [`attempt`], which runs the job either on the
//! calling thread under [`std::panic::catch_unwind`] — so a panicking job
//! becomes a typed [`JobOutcome::Panicked`] instead of unwinding through
//! `std::thread::scope` and killing the whole sweep — or, under
//! [`ProcessIsolation`], in a `simfarm --run-one` child. Because jobs are
//! deterministic, the whole attempt sequence — and therefore the final
//! [`JobResult`] — is a pure function of the [`SimJob`], independent of
//! worker count and scheduling.

use crate::checkpoint::CheckpointCtl;
use crate::exec::{run_child_attempt, ProcessIsolation};
use crate::job::{run_model, JobOutcome, JobResult, SimJob};
use crate::observe::{AttemptSpan, FarmObserver, JobTiming};
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

/// A cooperative cancellation token shared between the farm and its
/// operator (CLI signal timers, tests, embedding services). Cancelling does
/// **not** abort in-flight jobs — workers finish what they started, the
/// journal is flushed, and the sweep exits in a resumable state; workers
/// simply stop taking new jobs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests graceful shutdown. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called (on any clone).
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Renders a panic payload: the common `&str`/`String` payloads verbatim,
/// anything else as a fixed placeholder (payloads need not be printable).
fn payload_string(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "<non-string panic payload>".to_owned(),
        },
    }
}

thread_local! {
    /// Armed while this thread runs a supervised attempt: the quiet panic
    /// hook stores the captured backtrace here instead of printing.
    static PANIC_CAPTURE: RefCell<Option<Option<String>>> = const { RefCell::new(None) };
}

/// Installs the farm's process-global quiet panic hook (once, idempotent).
///
/// The default hook prints `thread '...' panicked at ...` plus a backtrace
/// to stderr — with a fleet of workers deliberately absorbing chaos-job
/// panics that interleaves into operator-facing noise for events the farm
/// fully contains. The quiet hook checks a thread-local arm flag: for a
/// supervised attempt it captures the backtrace (honoring `RUST_BACKTRACE`)
/// into the flag for [`JobOutcome::Panicked`] and prints nothing; panics on
/// any *unarmed* thread (real bugs in the farm itself) still reach the
/// previously-installed hook untouched.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let armed = PANIC_CAPTURE.with(|slot| {
                let mut slot = slot.borrow_mut();
                match slot.as_mut() {
                    Some(capture) => {
                        use std::backtrace::{Backtrace, BacktraceStatus};
                        let bt = Backtrace::capture();
                        *capture = (bt.status() == BacktraceStatus::Captured)
                            .then(|| bt.to_string());
                        true
                    }
                    None => false,
                }
            });
            if !armed {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the quiet panic hook armed for this thread, returning its
/// value or the rendered panic payload plus the backtrace captured at the
/// panic site.
fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, (String, Option<String>)> {
    install_quiet_panic_hook();
    PANIC_CAPTURE.with(|slot| *slot.borrow_mut() = Some(None));
    let result = catch_unwind(AssertUnwindSafe(f));
    let captured = PANIC_CAPTURE.with(|slot| slot.borrow_mut().take()).flatten();
    result.map_err(|payload| (payload_string(payload), captured))
}

/// One crash-isolated attempt of job `index`. With `iso`, it runs in a
/// `simfarm --run-one` child ([`crate::exec`]); otherwise on this thread,
/// where a panic anywhere inside the job is caught (silently — see
/// [`install_quiet_panic_hook`]) and reported as [`JobOutcome::Panicked`]
/// with the payload and captured backtrace. With `ckpt_dir`, the attempt
/// restores from the job's last durable checkpoint and keeps sealing new
/// ones, calling `on_partial` with each saved cycle. `timing` receives the
/// in-process setup/sim/teardown breakdown (zeroed when the attempt
/// panicked; a child's breakdown is not reported back).
pub(crate) fn attempt(
    jobs: &[SimJob],
    index: usize,
    iso: Option<&ProcessIsolation>,
    ckpt_dir: Option<&Path>,
    on_partial: &(dyn Fn(u64) + Sync),
    mut timing: Option<&mut JobTiming>,
) -> JobResult {
    if let Some(iso) = iso {
        return run_child_attempt(iso, jobs, index, ckpt_dir, &mut |cycle| on_partial(cycle));
    }
    let job = &jobs[index];
    let mut ctl = ckpt_dir
        .and_then(|dir| CheckpointCtl::new(job, index, dir))
        .map(|ctl| ctl.with_notify(on_partial));
    match quiet_catch(|| run_model(job, ctl.as_mut(), timing.as_deref_mut())) {
        Ok(result) => result,
        Err((payload, backtrace)) => {
            if let Some(timing) = timing {
                *timing = JobTiming::default();
            }
            JobResult::aborted(job, JobOutcome::Panicked { payload, backtrace })
        }
    }
}

/// Runs job `index` under full supervision: up to `1 + job.retries`
/// [`attempt`]s, and quarantine once every attempt came back unhealthy. The
/// returned result carries the attempt count; a quarantined result keeps
/// the last attempt's machine output (cycles, digest, stats) with its
/// outcome wrapped in [`JobOutcome::Quarantined`]. Each retry restores from
/// the job's last durable checkpoint, so a retry after a mid-job crash
/// continues from where the machine durably stood. With `obs`, one
/// [`AttemptSpan`] per attempt is recorded on the observer's clock; without
/// it the span list stays empty and no clock is read.
pub(crate) fn supervise(
    jobs: &[SimJob],
    index: usize,
    iso: Option<&ProcessIsolation>,
    ckpt_dir: Option<&Path>,
    on_partial: &(dyn Fn(u64) + Sync),
    obs: Option<&FarmObserver>,
) -> (JobResult, Vec<AttemptSpan>) {
    let attempts_allowed = jobs[index].retries.saturating_add(1);
    let mut spans = Vec::new();
    let mut n = 0u32;
    loop {
        n += 1;
        let start_ns = obs.map_or(0, FarmObserver::now_ns);
        let mut timing = JobTiming::default();
        let timed = obs.is_some().then_some(&mut timing);
        let mut result = attempt(jobs, index, iso, ckpt_dir, on_partial, timed);
        if let Some(obs) = obs {
            spans.push(AttemptSpan {
                attempt: n,
                start_ns,
                end_ns: obs.now_ns(),
                timing,
                healthy: result.outcome.is_healthy(),
            });
        }
        result.attempts = n;
        if result.outcome.is_healthy() {
            return (result, spans);
        }
        if n >= attempts_allowed {
            result.outcome = JobOutcome::Quarantined {
                attempts: n,
                last: Box::new(result.outcome),
            };
            return (result, spans);
        }
    }
}

/// Runs one job under full supervision on the calling thread: crash
/// isolation, up to `1 + job.retries` deterministic attempts, and
/// quarantine once every attempt came back unhealthy. The returned result
/// carries the attempt count; a quarantined result keeps the last attempt's
/// machine output (cycles, digest, stats) with its outcome wrapped in
/// [`JobOutcome::Quarantined`]. The farm's workers run the same loop, with
/// checkpoints and process isolation when configured.
pub fn run_job_supervised(job: &SimJob) -> JobResult {
    supervise(std::slice::from_ref(job), 0, None, None, &|_| {}, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ModelKind, WorkloadSpec};

    #[test]
    fn cancel_token_propagates_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn panicking_job_is_caught_and_quarantined() {
        let mut job = SimJob::chaos_panic("boom");
        job.retries = 2;
        let r = run_job_supervised(&job);
        match &r.outcome {
            JobOutcome::Quarantined { attempts, last } => {
                assert_eq!(*attempts, 3);
                match last.as_ref() {
                    JobOutcome::Panicked { payload, .. } => {
                        assert!(payload.contains("chaos:panic"), "{payload}")
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert_eq!(r.attempts, 3);
        assert!(!r.is_ok());
    }

    #[test]
    fn healthy_job_takes_one_attempt() {
        let job = SimJob::minirisc_random(1, 32, 10_000);
        let r = run_job_supervised(&job);
        assert_eq!(r.attempts, 1);
        assert!(r.is_ok());
    }

    #[test]
    fn panic_equality_ignores_the_captured_backtrace() {
        let with = JobOutcome::Panicked {
            payload: "boom".into(),
            backtrace: Some("0: frame_at_0x1234".into()),
        };
        let without = JobOutcome::Panicked {
            payload: "boom".into(),
            backtrace: None,
        };
        assert_eq!(with, without, "backtraces are ASLR-dependent diagnostics");
        assert_eq!(with.label(), "panicked: boom", "label excludes the backtrace");
    }

    #[test]
    fn quiet_catch_passes_values_and_payloads_through() {
        assert_eq!(quiet_catch(|| 41 + 1).unwrap(), 42);
        let (payload, _backtrace) =
            quiet_catch(|| -> u32 { panic!("expected-test-panic") }).unwrap_err();
        assert_eq!(payload, "expected-test-panic");
        // The arm flag is disarmed again: a later catch starts clean.
        let (payload, _) = quiet_catch(|| -> u32 { panic!("second") }).unwrap_err();
        assert_eq!(payload, "second");
    }

    #[test]
    fn failed_job_is_retried_then_quarantined_deterministically() {
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("no-such-workload".into()),
            1000,
        );
        job.retries = 1;
        let a = run_job_supervised(&job);
        let b = run_job_supervised(&job);
        assert_eq!(a.outcome, b.outcome);
        assert!(matches!(
            &a.outcome,
            JobOutcome::Quarantined { attempts: 2, last } if matches!(last.as_ref(), JobOutcome::Failed(_))
        ));
    }
}
