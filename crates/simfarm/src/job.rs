//! The job abstraction: one self-contained simulation, runnable on any
//! thread, producing a deterministic [`JobResult`].
//!
//! One generic driver runs every [`ModelKind`]: each model supplies a small
//! private [`Model`] implementation, and the driver alone owns the wall
//! deadline, run slicing, checkpoint restore and save, trace-digest
//! reseeding, the phase timer and [`JobResult`] assembly.
//!
//! Supervision hooks live here too: every job carries a stall budget
//! (armed on the model's watchdog, on by default), an optional wall-clock
//! deadline checked cooperatively between run slices, and a retry bound
//! used by [`crate::run_job_supervised`]. Everything except the wall-clock
//! deadline is a pure function of the [`SimJob`], which is what the farm's
//! determinism-under-failure guarantee rests on.

use crate::checkpoint::CheckpointCtl;
use crate::observe::JobTiming;
use crate::{fnv1a, FNV_OFFSET};
use minirisc::{Iss, SparseMemory};
use osm_core::{
    FaultHandle, FaultInjector, FaultPlan, FaultStats, InertBehavior, Machine, ManagerId,
    MetricsReport, ModelError, SchedulerMode, StallKind, Stats, Trace,
};
use ppc750::{PpcConfig, PpcOsmSim, PpcShared};
use sa1100::{SaConfig, SaOsmSim, SaShared};
use std::fmt;
use std::time::{Duration, Instant};
use vliw::{schedule, VliwConfig, VliwIr, VliwProgram, VliwShared, VliwSim};
use workloads::{kernels40, mediabench, random_program, specint_mix, Workload};

/// Default stall budget armed on every OSM job: comfortably above any
/// natural no-progress stretch of the bundled models (worst observed is a
/// few hundred cycles under aggressive blackhole faults), far below typical
/// cycle budgets, so a wedged or livelocked job is diagnosed instead of
/// pinning a worker until its whole cycle budget drains.
pub const DEFAULT_STALL_BUDGET: u64 = 25_000;

/// Default retry bound: one deterministic re-run before quarantine.
pub const DEFAULT_RETRIES: u32 = 1;

/// Cycles run between cooperative deadline/cancellation checks.
const DEADLINE_CHUNK: u64 = 2048;

/// Which machine model a [`SimJob`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The SA-1100 StrongARM OSM pipeline model.
    Sa1100,
    /// The PPC-750 out-of-order superscalar OSM model.
    Ppc750,
    /// The MiniRISC interpreted instruction-set simulator (no OSM layer).
    MiniRiscIss,
    /// The VLIW OSM model.
    Vliw,
    /// A machine synthesized on the fly from an inline ADL description
    /// carried by [`WorkloadSpec::AdlMachine`]. This is how generated
    /// machines (the `osm-fuzz` differential fuzzer, corpus replays) ride
    /// the farm's serial/parallel matrix as first-class jobs.
    Adl,
}

impl ModelKind {
    /// Manifest spelling of the model name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Sa1100 => "sa1100",
            ModelKind::Ppc750 => "ppc750",
            ModelKind::MiniRiscIss => "minirisc",
            ModelKind::Vliw => "vliw",
            ModelKind::Adl => "adl",
        }
    }

    /// Parses a manifest model name.
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s {
            "sa1100" => Some(ModelKind::Sa1100),
            "ppc750" => Some(ModelKind::Ppc750),
            "minirisc" => Some(ModelKind::MiniRiscIss),
            "vliw" => Some(ModelKind::Vliw),
            "adl" => Some(ModelKind::Adl),
            _ => None,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What program a [`SimJob`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A named workload from the `workloads` crate (`"specint"`, a
    /// mediabench name, or a `"k40/..."` kernel).
    Named(String),
    /// A seeded random MiniRISC program (`"random:<block_len>"` in
    /// manifests); the generator seed is the job's `seed`.
    Random {
        /// Straight-line block length handed to the generator.
        block_len: usize,
    },
    /// A synthetic VLIW countdown loop with a body of independent adds
    /// (`"ilp:<iters>:<body>"` in manifests). The only workload form the
    /// VLIW model accepts (it executes bundled IR, not MiniRISC assembly).
    Ilp {
        /// Loop iterations.
        iters: i32,
        /// Independent operations per iteration.
        body: usize,
    },
    /// A job that panics the moment it runs (`"chaos:panic"` in manifests).
    /// Exists so chaos manifests and the supervision tests can exercise
    /// crash isolation deterministically; [`run_job`] panics with a fixed,
    /// job-named payload, and the supervised runner turns that into
    /// [`JobOutcome::Panicked`].
    ChaosPanic,
    /// An inline ADL machine description for the [`ModelKind::Adl`] model:
    /// the source text is parsed and synthesized at run time, `osms`
    /// instances are spawned round-robin across the declared classes (with
    /// the inert behavior — the workload *is* the machine structure), and
    /// the machine is driven to the job's cycle budget. Constructed
    /// programmatically (by the `osm-fuzz` harness and corpus replays);
    /// there is no manifest spelling carrying inline source, so
    /// [`WorkloadSpec::parse`] never produces it and [`WorkloadSpec::spelling`]
    /// renders a digest-based label (`adl:<osms>@<source-digest>`) that
    /// keeps sweep journals bound to the exact source text.
    AdlMachine {
        /// The machine description (ADL source text).
        source: String,
        /// How many OSM instances to spawn (round-robin over classes).
        osms: u32,
    },
}

impl WorkloadSpec {
    /// Parses the manifest spelling (see the variant docs).
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        if s == "chaos:panic" {
            return Ok(WorkloadSpec::ChaosPanic);
        }
        if let Some(rest) = s.strip_prefix("random:") {
            let block_len = rest
                .parse::<usize>()
                .map_err(|_| format!("bad random workload `{s}`: expected `random:<len>`"))?;
            return Ok(WorkloadSpec::Random { block_len });
        }
        if let Some(rest) = s.strip_prefix("ilp:") {
            let mut parts = rest.splitn(2, ':');
            let parse = |p: Option<&str>| p.and_then(|v| v.parse::<i64>().ok());
            match (parse(parts.next()), parse(parts.next())) {
                (Some(iters), Some(body)) if iters > 0 && body > 0 => {
                    return Ok(WorkloadSpec::Ilp {
                        iters: iters as i32,
                        body: body as usize,
                    });
                }
                _ => return Err(format!("bad ilp workload `{s}`: expected `ilp:<iters>:<body>`")),
            }
        }
        Ok(WorkloadSpec::Named(s.to_owned()))
    }

    /// The manifest spelling. [`WorkloadSpec::AdlMachine`] has no inline
    /// manifest form; its spelling is a stable digest-based label binding
    /// journals and reports to the exact source text.
    pub fn spelling(&self) -> String {
        match self {
            WorkloadSpec::Named(n) => n.clone(),
            WorkloadSpec::Random { block_len } => format!("random:{block_len}"),
            WorkloadSpec::Ilp { iters, body } => format!("ilp:{iters}:{body}"),
            WorkloadSpec::ChaosPanic => "chaos:panic".to_owned(),
            WorkloadSpec::AdlMachine { source, osms } => {
                let digest = fnv1a(FNV_OFFSET, source.as_bytes());
                format!("adl:{osms}@{digest:016x}")
            }
        }
    }

    fn resolve(&self, seed: u64) -> Result<Workload, String> {
        match self {
            WorkloadSpec::Random { block_len } => Ok(random_program(seed, *block_len)),
            WorkloadSpec::Ilp { .. } => {
                Err("ilp workloads only run on the vliw model".to_owned())
            }
            WorkloadSpec::ChaosPanic => {
                Err("chaos:panic never resolves to a program".to_owned())
            }
            WorkloadSpec::AdlMachine { .. } => {
                Err("adl workloads only run on the adl model".to_owned())
            }
            WorkloadSpec::Named(name) => {
                if name == "specint" {
                    return Ok(specint_mix());
                }
                mediabench()
                    .into_iter()
                    .chain(kernels40())
                    .find(|w| w.name == *name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))
            }
        }
    }
}

/// One self-contained simulation: model × workload × config × seed ×
/// observability flags × supervision bounds. Jobs are `Send + Sync` (plain
/// data) and [`run_job`] builds, runs and tears down the whole machine on
/// the calling thread, which is what makes job-level sharding deterministic.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Human-readable job label (defaults to `model/workload#index` when
    /// built from a manifest).
    pub name: String,
    /// Which machine model to run.
    pub model: ModelKind,
    /// What program to run.
    pub workload: WorkloadSpec,
    /// Seed for seeded workloads (`random:`) — also mixed into the job name
    /// by the manifest loader so sweeps over seeds stay distinguishable.
    pub seed: u64,
    /// Cycle (ISS: instruction) budget.
    pub max_cycles: u64,
    /// Director scheduling mode (OSM models; ignored by the ISS).
    pub scheduler: SchedulerMode,
    /// Enable the full observability stack (event log, metrics, stall
    /// attribution) and attach the [`MetricsReport`] to the result.
    pub observability: bool,
    /// Optional fault plan, installed in front of the model's fetch-side
    /// manager (SA-1100: fetch stage; PPC-750: fetch queue; VLIW: fetch
    /// stage; ignored by the ISS, which has no token managers).
    pub faults: Option<FaultPlan>,
    /// Stall budget armed on the model's watchdog
    /// ([`osm_core::Machine::set_stall_limit`]): a livelocked or wedged job
    /// yields [`JobOutcome::Stalled`] after this many cycles without
    /// progress instead of pinning a worker for its whole cycle budget.
    /// `Some(`[`DEFAULT_STALL_BUDGET`]`)` by default; `None` disarms
    /// (manifest spelling `"stall_budget": 0`). Ignored by the ISS, whose
    /// steps always retire an instruction.
    pub stall_budget: Option<u64>,
    /// Optional wall-clock deadline in milliseconds, checked cooperatively
    /// every few thousand cycles; an overrunning job yields
    /// [`JobOutcome::DeadlineExceeded`]. Unlike every other field this
    /// depends on host speed, so deadline outcomes are *not* deterministic —
    /// keep deadline jobs out of byte-identity gates.
    pub deadline_ms: Option<u64>,
    /// How many times [`crate::run_job_supervised`] re-runs an unhealthy job
    /// before quarantining it ([`DEFAULT_RETRIES`] by default). Jobs are
    /// deterministic, so retries only help against environmental flakes
    /// (and bound the cost of poison jobs either way).
    pub retries: u32,
    /// Durable mid-job checkpoint cadence in cycles (ISS: instructions);
    /// `0` (the default) disables checkpointing. When set and the farm runs
    /// with a checkpoint directory, the job's machine state is sealed to
    /// disk every `checkpoint_every` cycles
    /// ([`crate::checkpoint`]), and an interrupted job restarts from its
    /// last checkpoint with a digest identical to an uninterrupted run.
    /// Like the wall deadline this is *operational*, not behavioral — it is
    /// deliberately excluded from [`crate::journal::jobs_digest`], so
    /// changing the cadence neither orphans a journal nor a checkpoint.
    /// Ignored (with a warning at manifest level) for observability jobs:
    /// event logs and metrics are not part of a machine checkpoint.
    pub checkpoint_every: u64,
}

impl SimJob {
    /// A plain job with no observability and no faults; stall watchdog
    /// armed at [`DEFAULT_STALL_BUDGET`], no wall deadline,
    /// [`DEFAULT_RETRIES`] retries.
    pub fn new(model: ModelKind, workload: WorkloadSpec, max_cycles: u64) -> SimJob {
        SimJob {
            name: format!("{model}/{}", workload.spelling()),
            model,
            workload,
            seed: 0,
            max_cycles,
            scheduler: SchedulerMode::Fast,
            observability: false,
            faults: None,
            stall_budget: Some(DEFAULT_STALL_BUDGET),
            deadline_ms: None,
            retries: DEFAULT_RETRIES,
            checkpoint_every: 0,
        }
    }

    /// Convenience: a seeded random-program ISS job (used in doctests and
    /// smoke checks).
    pub fn minirisc_random(seed: u64, block_len: usize, max_steps: u64) -> SimJob {
        let mut job = SimJob::new(
            ModelKind::MiniRiscIss,
            WorkloadSpec::Random { block_len },
            max_steps,
        );
        job.seed = seed;
        job.name = format!("{}#{}", job.name, seed);
        job
    }

    /// Convenience: a job whose only act is to panic (crash-isolation
    /// tests and chaos manifests).
    pub fn chaos_panic(name: impl Into<String>) -> SimJob {
        let mut job = SimJob::new(ModelKind::MiniRiscIss, WorkloadSpec::ChaosPanic, 1);
        job.name = name.into();
        job
    }

    /// Convenience: an inline-ADL machine job spawning `osms` operation
    /// instances (round-robin over the declared classes). This is how the
    /// model fuzzer rides the farm's serial/parallel matrix.
    pub fn adl(
        name: impl Into<String>,
        source: impl Into<String>,
        osms: u32,
        max_cycles: u64,
    ) -> SimJob {
        let mut job = SimJob::new(
            ModelKind::Adl,
            WorkloadSpec::AdlMachine {
                source: source.into(),
                osms,
            },
            max_cycles,
        );
        job.name = name.into();
        job
    }
}

/// Deterministic summary of a watchdog stall, carried by
/// [`JobOutcome::Stalled`]. The scalar fields mirror
/// [`osm_core::StallReport`]; `detail` preserves the report's full
/// rendering (blocked OSMs, denied primitives, attribution) so the farm
/// report and the sweep journal reproduce it byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallSummary {
    /// The watchdog's classification.
    pub kind: StallKind,
    /// Control step at which the watchdog fired.
    pub cycle: u64,
    /// How many cycles the condition had persisted.
    pub stalled_for: u64,
    /// The armed stall budget that fired.
    pub budget: u64,
    /// The full [`osm_core::StallReport`] rendering.
    pub detail: String,
}

/// How a job finished.
///
/// Equality is manual: the nondeterministic diagnostic ride-alongs on
/// [`JobOutcome::Panicked`] (captured backtrace) are ignored, so outcome
/// comparisons — and everything built on them: retry decisions, byte-identity
/// gates, journal round-trip tests — stay deterministic.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The program ran to its halt instruction within the budget.
    Halted,
    /// The cycle/step budget elapsed before halt.
    BudgetExhausted,
    /// The model failed (deadlock, decode error, bad workload, ...). The
    /// message is the model error's rendering.
    Failed(String),
    /// The job panicked; the worker caught the unwind and isolated it.
    Panicked {
        /// The panic payload, rendered (`<non-string panic payload>` when
        /// the payload was not a string).
        payload: String,
        /// Backtrace captured by the farm's quiet panic hook at panic time
        /// (honoring `RUST_BACKTRACE`, `None` when disabled). Diagnostic
        /// only: ASLR makes it nondeterministic, so it is excluded from
        /// equality, from [`JobOutcome::label`], and from the sweep journal.
        backtrace: Option<String>,
    },
    /// An isolated worker subprocess died to a signal (resource-budget
    /// abort, OOM kill, a hard deadline SIGKILL, a real native crash)
    /// before delivering a result. Only produced by the process-isolation
    /// executor — in-process jobs can't lose their host and live.
    Killed {
        /// The fatal signal number (e.g. 6 = SIGABRT, 9 = SIGKILL).
        signal: i32,
    },
    /// The stall watchdog fired: no forward progress within the job's
    /// [`SimJob::stall_budget`].
    Stalled(StallSummary),
    /// The wall-clock [`SimJob::deadline_ms`] elapsed before halt or cycle
    /// budget. The only non-deterministic outcome (host-speed dependent).
    DeadlineExceeded {
        /// Cycles completed when the deadline was detected.
        cycles: u64,
        /// The configured deadline, for the record.
        deadline_ms: u64,
    },
    /// The job stayed unhealthy through every allowed attempt and was
    /// quarantined; `last` is the final attempt's outcome.
    Quarantined {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Outcome of the last attempt.
        last: Box<JobOutcome>,
    },
}

impl PartialEq for JobOutcome {
    fn eq(&self, other: &JobOutcome) -> bool {
        use JobOutcome::*;
        match (self, other) {
            (Halted, Halted) | (BudgetExhausted, BudgetExhausted) => true,
            (Failed(a), Failed(b)) => a == b,
            // Backtraces are diagnostic ride-alongs, deliberately ignored.
            (Panicked { payload: a, .. }, Panicked { payload: b, .. }) => a == b,
            (Killed { signal: a }, Killed { signal: b }) => a == b,
            (Stalled(a), Stalled(b)) => a == b,
            (
                DeadlineExceeded { cycles: ca, deadline_ms: da },
                DeadlineExceeded { cycles: cb, deadline_ms: db },
            ) => ca == cb && da == db,
            (
                Quarantined { attempts: aa, last: la },
                Quarantined { attempts: ab, last: lb },
            ) => aa == ab && la == lb,
            _ => false,
        }
    }
}

impl Eq for JobOutcome {}

impl JobOutcome {
    /// True for the two outcomes that complete a job's work (ran to halt,
    /// or consumed its whole cycle budget). Everything else is grounds for
    /// retry and quarantine.
    pub fn is_healthy(&self) -> bool {
        matches!(self, JobOutcome::Halted | JobOutcome::BudgetExhausted)
    }

    /// One-line rendering used by the farm report (text and JSON) and the
    /// sweep journal. Stable and deterministic for every variant except
    /// `DeadlineExceeded` (whose cycle count is host-speed dependent).
    pub fn label(&self) -> String {
        match self {
            JobOutcome::Halted => "halted".into(),
            JobOutcome::BudgetExhausted => "budget-exhausted".into(),
            JobOutcome::Failed(msg) => format!("failed: {msg}"),
            JobOutcome::Panicked { payload, .. } => format!("panicked: {payload}"),
            JobOutcome::Killed { signal } => format!("killed: signal {signal}"),
            JobOutcome::Stalled(s) => {
                format!("stalled: {} at cycle {} (budget {})", s.kind, s.cycle, s.budget)
            }
            JobOutcome::DeadlineExceeded { cycles, deadline_ms } => {
                format!("deadline-exceeded: {deadline_ms}ms elapsed at cycle {cycles}")
            }
            JobOutcome::Quarantined { attempts, last } => {
                format!("quarantined after {attempts} attempt(s); last: {}", last.label())
            }
        }
    }
}

/// The deterministic product of one job. Everything here is a pure function
/// of the [`SimJob`] — independent of which thread ran it and of what else
/// was running — which is what the farm's digest-parity guarantee rests on.
/// (Exception: [`JobOutcome::DeadlineExceeded`], see [`SimJob::deadline_ms`].)
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub name: String,
    /// The model that ran.
    pub model: ModelKind,
    /// Workload spelling.
    pub workload: String,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// Cycles executed (ISS: instructions retired).
    pub cycles: u64,
    /// Instructions (VLIW: operations) retired.
    pub retired: u64,
    /// Program exit code.
    pub exit_code: u32,
    /// FNV-1a digest: the machine's transition-trace digest for OSM models,
    /// or a digest over every executed `(pc, taken)` pair for the ISS. Equal
    /// digests mean behaviorally identical runs.
    pub digest: u64,
    /// Attempts the supervised runner made (1 when the first try sufficed;
    /// always 1 from bare [`run_job`]).
    pub attempts: u32,
    /// Cycle this run restored a durable mid-job checkpoint from, when it
    /// did ([`SimJob::checkpoint_every`]). Operational provenance, not
    /// machine output: the digest/stats are identical either way, so the
    /// canonical report renderings scrub it.
    pub restored_from: Option<u64>,
    /// Scheduler statistics (OSM models only).
    pub stats: Option<Stats>,
    /// Derived metrics, when the job asked for observability.
    pub metrics: Option<MetricsReport>,
    /// Injected-fault counters, when the job carried a fault plan.
    pub fault_stats: Option<FaultStats>,
}

impl JobResult {
    /// A result with no machine output — the job never got far enough to
    /// produce any (bad workload, panic before the first cycle, ...).
    pub(crate) fn aborted(job: &SimJob, outcome: JobOutcome) -> JobResult {
        JobResult {
            name: job.name.clone(),
            model: job.model,
            workload: job.workload.spelling(),
            outcome,
            cycles: 0,
            retired: 0,
            exit_code: 0,
            digest: 0,
            attempts: 1,
            restored_from: None,
            stats: None,
            metrics: None,
            fault_stats: None,
        }
    }

    /// True if the job ran to completion or budget without a model error,
    /// panic, stall, deadline overrun or quarantine.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_healthy()
    }
}

/// Wall-clock deadline for the driver's slice loop.
struct Deadline(Option<Instant>);

impl Deadline {
    fn start(deadline_ms: Option<u64>) -> Deadline {
        Deadline(deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)))
    }

    fn expired(&self) -> bool {
        self.0.is_some_and(|at| Instant::now() >= at)
    }
}

/// Maps a model error to its typed outcome (watchdog stalls get their own
/// variant; everything else keeps the rendered message).
fn outcome_from_model_error(e: ModelError) -> JobOutcome {
    match e {
        ModelError::Stalled(report) => JobOutcome::Stalled(StallSummary {
            kind: report.kind,
            cycle: report.cycle,
            stalled_for: report.stalled_for,
            budget: report.budget,
            detail: report.to_string(),
        }),
        other => JobOutcome::Failed(other.to_string()),
    }
}

/// Runs one job to completion on the calling thread.
///
/// Never panics on bad input — unknown workloads and model errors are
/// reported through the typed [`JobOutcome`] variants — with one deliberate
/// exception: a [`WorkloadSpec::ChaosPanic`] job panics by design, which is
/// what [`crate::run_job_supervised`] (and therefore the farm) catches and
/// isolates. Arms the job's stall budget on the model watchdog and checks
/// the wall deadline cooperatively.
pub fn run_job(job: &SimJob) -> JobResult {
    run_model(job, None, None)
}

/// [`run_job`] under a durable checkpoint controller: restores from the
/// controller's last valid checkpoint (if any), re-seeds the trace digest
/// so the final digest equals an uninterrupted run's, and seals fresh
/// checkpoints every [`SimJob::checkpoint_every`] cycles. With `ctl = None`
/// this *is* [`run_job`], byte for byte.
pub fn run_job_checkpointed(job: &SimJob, ctl: Option<&mut CheckpointCtl<'_>>) -> JobResult {
    run_model(job, ctl, None)
}

/// The one entry below [`run_job`], [`run_job_checkpointed`] and the
/// supervised attempt: picks the job's [`Model`] and drives it. `timing`,
/// when present, receives the setup/sim/teardown wall-time breakdown
/// (checkpoint restore lands in setup, checkpoint saves in sim); the
/// [`JobResult`] is bit-identical either way.
pub(crate) fn run_model(
    job: &SimJob,
    ctl: Option<&mut CheckpointCtl<'_>>,
    timing: Option<&mut JobTiming>,
) -> JobResult {
    if matches!(job.workload, WorkloadSpec::ChaosPanic) {
        panic!("chaos:panic workload fired (job `{}`)", job.name);
    }
    match job.model {
        ModelKind::Sa1100 => drive::<OsmModel<SaOsmSim>>(job, ctl, timing),
        ModelKind::Ppc750 => drive::<OsmModel<PpcOsmSim>>(job, ctl, timing),
        ModelKind::Vliw => drive::<OsmModel<VliwSim>>(job, ctl, timing),
        ModelKind::Adl => drive::<OsmModel<AdlMachine>>(job, ctl, timing),
        ModelKind::MiniRiscIss => drive::<IssModel>(job, ctl, timing),
    }
}

/// The driver's view of one model. The driver is generic over it, so the
/// per-cycle loop inside [`Model::advance`] has no dynamic dispatch and no
/// clock read.
trait Model: Sized {
    /// Builds the machine for `job` — scheduler mode, stall limit,
    /// observability, and the job's fault plan installed on the fetch-side
    /// manager (its handle is returned) — or says why the job cannot run.
    fn build(job: &SimJob) -> Result<(Self, Option<FaultHandle>), String>;
    /// Restores state saved by [`Model::save`]; `false` if rejected.
    fn restore(&mut self, bytes: &[u8]) -> bool;
    /// Starts the run digest from `trace` (fresh, or resumed from a
    /// checkpoint's digest state).
    fn start_digest(&mut self, trace: Trace);
    /// Runs until cycle `target`, halt or error; `Ok(true)` once halted.
    fn advance(&mut self, target: u64) -> Result<bool, JobOutcome>;
    /// Cycles completed (ISS: instructions retired).
    fn cycle(&self) -> u64;
    /// State bytes plus the digest state `(hash, total)` they continue from.
    fn save(&self) -> Option<(Vec<u8>, u64, u64)>;
    /// Retired count and exit code to report.
    fn retired(&self) -> (u64, u32);
    /// Final digest, scheduler statistics and metrics.
    fn finish(&mut self) -> (u64, Option<Stats>, Option<MetricsReport>);
}

/// Drives `M` for `job` in slices of [`DEADLINE_CHUNK`] cycles, or of the
/// checkpoint cadence when that is finer (a `checkpoint_every` below the
/// chunk must still produce save points). Between slices it checks halt,
/// cycle budget, checkpoint cadence and the wall deadline, in that order.
fn drive<M: Model>(
    job: &SimJob,
    mut ctl: Option<&mut CheckpointCtl<'_>>,
    timing: Option<&mut JobTiming>,
) -> JobResult {
    // Phase-boundary stopwatch: reads the clock only when `timing` is attached.
    let mut clock = timing.map(|timing| (timing, Instant::now()));
    let mut lap = |phase: fn(&mut JobTiming) -> &mut u64| {
        if let Some((timing, mark)) = clock.as_mut() {
            let now = Instant::now();
            let elapsed = u64::try_from((now - *mark).as_nanos()).unwrap_or(u64::MAX);
            let slot = phase(timing);
            *slot = slot.saturating_add(elapsed);
            *mark = now;
        }
    };
    let (mut model, faults) = match M::build(job) {
        Ok(built) => built,
        Err(message) => return JobResult::aborted(job, JobOutcome::Failed(message)),
    };
    // Restore the last durable checkpoint the machine accepts (faults are
    // already installed so the manager shapes match), then continue the
    // digest from the checkpointed state: the final digest equals an
    // uninterrupted run's.
    let mut trace = Trace::digest_only();
    let mut restored_from = None;
    if let Some(ctl) = ctl.as_deref_mut() {
        if let Some(ckpt) = ctl.load().filter(|c| model.restore(&c.machine)) {
            trace = Trace::digest_only_resumed(ckpt.trace_hash, ckpt.trace_total);
            restored_from = Some(ckpt.cycle);
            ctl.mark_restored(ckpt.cycle);
        }
    }
    model.start_digest(trace);
    lap(|t| &mut t.setup_ns);

    let stride = ctl
        .as_ref()
        .map_or(DEADLINE_CHUNK, |c| c.cadence().min(DEADLINE_CHUNK))
        .max(1);
    let deadline = Deadline::start(job.deadline_ms);
    let mut cycle = restored_from.unwrap_or(0);
    let outcome = loop {
        match model.advance(cycle.saturating_add(stride).min(job.max_cycles)) {
            Ok(true) => break JobOutcome::Halted,
            Ok(false) => cycle = model.cycle(),
            Err(outcome) => break outcome,
        }
        if cycle >= job.max_cycles {
            break JobOutcome::BudgetExhausted;
        }
        if let Some(ctl) = ctl.as_deref_mut().filter(|c| c.due(cycle)) {
            if let Some((bytes, hash, total)) = model.save() {
                ctl.save(cycle, hash, total, &bytes);
            }
        }
        if deadline.expired() {
            break JobOutcome::DeadlineExceeded {
                cycles: cycle,
                deadline_ms: job.deadline_ms.unwrap_or(0),
            };
        }
    };
    lap(|t| &mut t.sim_ns);

    let (retired, exit_code) = model.retired();
    let (digest, stats, metrics) = model.finish();
    let result = JobResult {
        name: job.name.clone(),
        model: job.model,
        workload: job.workload.spelling(),
        outcome,
        cycles: model.cycle(),
        retired,
        exit_code,
        digest,
        attempts: 1,
        restored_from,
        stats,
        metrics,
        fault_stats: faults.map(|h| h.stats()),
    };
    lap(|t| &mut t.teardown_ns);
    result
}

/// What differs between the four models built on [`osm_core::Machine`];
/// one `impl Model for OsmModel<_>` drives them all.
trait OsmSim: Sized {
    /// The machine's shared state.
    type Shared: 'static;
    /// The simulator for `job`, and the fetch-side manager fault plans
    /// install on (`None` when the machine has no managers).
    fn build(job: &SimJob) -> Result<(Self, Option<ManagerId>), String>;
    /// The underlying machine.
    fn core(&self) -> &Machine<Self::Shared>;
    /// The underlying machine, mutably.
    fn core_mut(&mut self) -> &mut Machine<Self::Shared>;
    /// Encodes a checkpoint of the whole simulator.
    fn save_bytes(&self) -> Result<Vec<u8>, ModelError>;
    /// Restores a checkpoint written by [`OsmSim::save_bytes`].
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError>;
    /// Runs to `target` cycles (or halt): `(halted, retired, exit_code)`.
    fn run_slice(&mut self, target: u64) -> Result<(bool, u64, u32), ModelError>;
    /// The retired count and exit code a run reports, given those of its
    /// last completed slice. The program-driven models report that slice's
    /// (a failed slice counts for nothing).
    fn report(&self, last_slice: (u64, u32)) -> (u64, u32) {
        last_slice
    }
}

/// An OSM model under the driver, remembering its last completed slice.
struct OsmModel<S> {
    sim: S,
    last_slice: (u64, u32),
}

impl<S: OsmSim> Model for OsmModel<S> {
    fn build(job: &SimJob) -> Result<(Self, Option<FaultHandle>), String> {
        let (mut sim, fetch) = S::build(job)?;
        let machine = sim.core_mut();
        machine.set_scheduler_mode(job.scheduler);
        machine.set_stall_limit(job.stall_budget);
        if job.observability {
            machine.enable_event_log();
            machine.enable_metrics();
            machine.enable_stall_attribution();
        }
        let faults = fetch
            .zip(job.faults.clone())
            .map(|(id, plan)| FaultInjector::install(&mut machine.managers, id, plan));
        let last_slice = (0, 0);
        Ok((OsmModel { sim, last_slice }, faults))
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        self.sim.restore_bytes(bytes).is_ok()
    }

    fn start_digest(&mut self, trace: Trace) {
        self.sim.core_mut().enable_trace_with(trace);
    }

    fn advance(&mut self, target: u64) -> Result<bool, JobOutcome> {
        let slice = self.sim.run_slice(target);
        let (halted, retired, exit_code) = slice.map_err(outcome_from_model_error)?;
        self.last_slice = (retired, exit_code);
        Ok(halted)
    }

    fn cycle(&self) -> u64 {
        self.sim.core().cycle()
    }

    fn save(&self) -> Option<(Vec<u8>, u64, u64)> {
        let bytes = self.sim.save_bytes().ok()?;
        let trace = self.sim.core().trace()?;
        Some((bytes, trace.digest(), trace.total()))
    }

    fn retired(&self) -> (u64, u32) {
        self.sim.report(self.last_slice)
    }

    fn finish(&mut self) -> (u64, Option<Stats>, Option<MetricsReport>) {
        let machine = self.sim.core_mut();
        let digest = machine.take_trace().map_or(0, |t| t.digest());
        let stats = Some(machine.stats.clone());
        (digest, stats, machine.metrics_report())
    }
}

impl OsmSim for SaOsmSim {
    type Shared = SaShared;

    fn build(job: &SimJob) -> Result<(Self, Option<ManagerId>), String> {
        let program = job.workload.resolve(job.seed)?.program();
        let sim = SaOsmSim::new(SaConfig::paper(), &program);
        let fetch = sim.ids.mf;
        Ok((sim, Some(fetch)))
    }

    fn core(&self) -> &Machine<SaShared> {
        self.machine()
    }

    fn core_mut(&mut self) -> &mut Machine<SaShared> {
        self.machine_mut()
    }

    fn save_bytes(&self) -> Result<Vec<u8>, ModelError> {
        self.checkpoint_bytes()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.restore_checkpoint_bytes(bytes)
    }

    fn run_slice(&mut self, target: u64) -> Result<(bool, u64, u32), ModelError> {
        let res = self.run_to_halt(target)?;
        Ok((self.machine().shared.halted, res.retired, res.exit_code))
    }
}

impl OsmSim for PpcOsmSim {
    type Shared = PpcShared;

    fn build(job: &SimJob) -> Result<(Self, Option<ManagerId>), String> {
        let program = job.workload.resolve(job.seed)?.program();
        let sim = PpcOsmSim::new(PpcConfig::paper(), &program);
        let fetch_queue = sim.ids.fq;
        Ok((sim, Some(fetch_queue)))
    }

    fn core(&self) -> &Machine<PpcShared> {
        self.machine()
    }

    fn core_mut(&mut self) -> &mut Machine<PpcShared> {
        self.machine_mut()
    }

    fn save_bytes(&self) -> Result<Vec<u8>, ModelError> {
        self.checkpoint_bytes()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.restore_checkpoint_bytes(bytes)
    }

    fn run_slice(&mut self, target: u64) -> Result<(bool, u64, u32), ModelError> {
        let res = self.run_to_halt(target)?;
        Ok((self.machine().shared.halted, res.retired, res.exit_code))
    }
}

impl OsmSim for VliwSim {
    type Shared = VliwShared;

    fn build(job: &SimJob) -> Result<(Self, Option<ManagerId>), String> {
        let WorkloadSpec::Ilp { iters, body } = job.workload else {
            return Err(format!(
                "the vliw model needs an `ilp:<iters>:<body>` workload, got `{}`",
                job.workload.spelling()
            ));
        };
        let sim = VliwSim::new(VliwConfig::default(), &ilp_program(iters, body));
        let fetch = sim.ids().mf;
        Ok((sim, Some(fetch)))
    }

    fn core(&self) -> &Machine<VliwShared> {
        self.machine()
    }

    fn core_mut(&mut self) -> &mut Machine<VliwShared> {
        self.machine_mut()
    }

    fn save_bytes(&self) -> Result<Vec<u8>, ModelError> {
        self.checkpoint_bytes()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.restore_checkpoint_bytes(bytes)
    }

    fn run_slice(&mut self, target: u64) -> Result<(bool, u64, u32), ModelError> {
        let res = self.run_to_halt(target)?;
        Ok((self.halted(), res.retired_ops, res.exit_code))
    }
}

/// A machine synthesized from an inline ADL description: `osms` instances
/// spawned round-robin over the declared classes with the inert behavior
/// (the workload *is* the machine structure). ADL machines have no halt, so
/// healthy runs end in [`JobOutcome::BudgetExhausted`]; faults install on
/// the first declared manager, mirroring the fetch-side convention of the
/// named models.
struct AdlMachine(Machine<()>);

impl OsmSim for AdlMachine {
    type Shared = ();

    fn build(job: &SimJob) -> Result<(Self, Option<ManagerId>), String> {
        let WorkloadSpec::AdlMachine { source, osms } = &job.workload else {
            return Err(format!(
                "the adl model needs an inline `WorkloadSpec::AdlMachine` workload, got `{}`",
                job.workload.spelling()
            ));
        };
        let synth = osm_adl::load(source).map_err(|e| format!("adl load failed: {e}"))?;
        if synth.specs.is_empty() {
            return Err("adl machine declares no osm classes".to_owned());
        }
        let mut machine: Machine<()> = Machine::new(());
        synth.install_managers(&mut machine);
        for k in 0..*osms {
            let (_, spec) = &synth.specs[(k as usize) % synth.specs.len()];
            machine.add_osm(spec, InertBehavior);
        }
        let fetch = (!machine.managers.is_empty()).then_some(ManagerId(0));
        Ok((AdlMachine(machine), fetch))
    }

    fn core(&self) -> &Machine<()> {
        &self.0
    }

    fn core_mut(&mut self) -> &mut Machine<()> {
        &mut self.0
    }

    // Synthesized machines use the osm-core checkpoint codec directly; the
    // unit shared state encodes as zero bytes.
    fn save_bytes(&self) -> Result<Vec<u8>, ModelError> {
        let ckpt = self.0.checkpoint()?;
        self.0.encode_checkpoint(&ckpt, &[])
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        let machine = &mut self.0;
        let ckpt = machine.decode_checkpoint(bytes, |b| b.is_empty().then_some(()))?;
        machine.restore(&ckpt)
    }

    fn run_slice(&mut self, target: u64) -> Result<(bool, u64, u32), ModelError> {
        self.0.run(target.saturating_sub(self.0.cycle()))?;
        Ok((false, 0, 0))
    }

    /// ADL machines report every transition committed so far, even when
    /// the last slice failed.
    fn report(&self, _last_slice: (u64, u32)) -> (u64, u32) {
        (self.0.stats.transitions, 0)
    }
}

/// The MiniRISC ISS: no OSM layer, so it keeps its own FNV-1a digest over
/// every executed `(pc, taken)` pair, and its cycle is the retired count.
/// Checkpoints carry the complete simulator state; the digest rides in the
/// checkpoint's trace fields.
struct IssModel {
    iss: Iss<SparseMemory>,
    digest: u64,
}

impl Model for IssModel {
    fn build(job: &SimJob) -> Result<(Self, Option<FaultHandle>), String> {
        let program = job.workload.resolve(job.seed)?.program();
        let iss = Iss::with_program(SparseMemory::new(), &program);
        let digest = FNV_OFFSET;
        Ok((IssModel { iss, digest }, None))
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        self.iss.import_state(bytes)
    }

    fn start_digest(&mut self, trace: Trace) {
        // A fresh `Trace` starts at the FNV-1a offset basis, as `build` does.
        self.digest = trace.digest();
    }

    fn advance(&mut self, target: u64) -> Result<bool, JobOutcome> {
        while !self.iss.halted && self.iss.retired < target {
            let step = self.iss.step();
            let executed = step.map_err(|e| JobOutcome::Failed(e.to_string()))?;
            self.digest = fnv1a(self.digest, &executed.pc.to_le_bytes());
            self.digest = fnv1a(self.digest, &executed.taken.unwrap_or(0).to_le_bytes());
        }
        Ok(self.iss.halted)
    }

    fn cycle(&self) -> u64 {
        self.iss.retired
    }

    fn save(&self) -> Option<(Vec<u8>, u64, u64)> {
        Some((self.iss.export_state(), self.digest, self.iss.retired))
    }

    fn retired(&self) -> (u64, u32) {
        (self.iss.retired, self.iss.exit_code)
    }

    fn finish(&mut self) -> (u64, Option<Stats>, Option<MetricsReport>) {
        (self.digest, None, None)
    }
}

/// Builds the standard ILP workload: a countdown loop whose body is `body`
/// independent adds (mirrors the VLIW crate's test fixture).
fn ilp_program(iters: i32, body: usize) -> VliwProgram {
    use minirisc::{AluOp, BranchCond, Instr, Reg};
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
    let mut ir = VliwIr::new();
    ir.push(addi(1, 0, iters));
    let top = ir.instrs.len();
    for k in 0..body {
        ir.push(addi(2 + (k % 6) as u8, 0, (k % 4096) as i32));
    }
    ir.push(addi(1, 1, -1));
    ir.branch(
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg(1),
            rs2: Reg(0),
            offset: 0,
        },
        top,
    );
    // Exit syscall reporting r1 (0 on a completed countdown).
    ir.push(addi(10, 0, 0));
    ir.push(Instr::Alu {
        op: AluOp::Add,
        rd: Reg(11),
        rs1: Reg(1),
        rs2: Reg(0),
    });
    ir.push(Instr::Syscall);
    schedule(&ir, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_spec_parses_all_forms() {
        assert_eq!(
            WorkloadSpec::parse("random:128").unwrap(),
            WorkloadSpec::Random { block_len: 128 }
        );
        assert_eq!(
            WorkloadSpec::parse("ilp:500:8").unwrap(),
            WorkloadSpec::Ilp { iters: 500, body: 8 }
        );
        assert_eq!(
            WorkloadSpec::parse("k40/x").unwrap(),
            WorkloadSpec::Named("k40/x".into())
        );
        assert_eq!(
            WorkloadSpec::parse("chaos:panic").unwrap(),
            WorkloadSpec::ChaosPanic
        );
        assert!(WorkloadSpec::parse("random:x").is_err());
        assert!(WorkloadSpec::parse("ilp:0:0").is_err());
    }

    #[test]
    fn unknown_workload_fails_cleanly() {
        let job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("no-such-workload".into()),
            1000,
        );
        let r = run_job(&job);
        assert!(matches!(r.outcome, JobOutcome::Failed(_)));
    }

    #[test]
    fn iss_job_is_deterministic() {
        let job = SimJob::minirisc_random(7, 48, 50_000);
        let a = run_job(&job);
        let b = run_job(&job);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.retired, b.retired);
        assert_ne!(a.digest, 0);
    }

    const ADL_PIPE: &str = "
        machine pipe {
            manager mf : exclusive(1);
            manager mx : counting(2);
            osm op {
                states I, F, X;
                initial I;
                edge fetch : I -> F { allocate mf[0]; }
                edge issue : F -> X { allocate mx[any]; release mf[held]; }
                edge done : X -> I { release mx[held]; }
            }
        }
    ";

    #[test]
    fn adl_job_runs_and_is_deterministic_across_scheduler_modes() {
        let mut seed_job = SimJob::adl("pipe", ADL_PIPE, 4, 200);
        seed_job.scheduler = SchedulerMode::Seed;
        let mut fast_job = seed_job.clone();
        fast_job.scheduler = SchedulerMode::Fast;
        let a = run_job(&seed_job);
        let b = run_job(&fast_job);
        assert_eq!(a.outcome, JobOutcome::BudgetExhausted);
        assert_eq!(b.outcome, JobOutcome::BudgetExhausted);
        assert_eq!(a.cycles, 200);
        assert_ne!(a.digest, 0);
        assert_eq!(a.digest, b.digest, "Seed and Fast diverged on an ADL job");
        assert!(a.retired > 0);
    }

    #[test]
    fn adl_job_observability_and_faults_ride_along() {
        let mut job = SimJob::adl("pipe-obs", ADL_PIPE, 2, 100);
        job.observability = true;
        job.faults = Some(osm_core::FaultPlan::new(9).deny_allocate(0.5));
        let r = run_job(&job);
        assert_eq!(r.outcome, JobOutcome::BudgetExhausted);
        assert!(r.metrics.is_some());
        assert!(r.fault_stats.is_some());
        // Fault plans are deterministic too.
        let r2 = run_job(&job);
        assert_eq!(r.digest, r2.digest);
    }

    #[test]
    fn adl_job_rejects_bad_source_and_wrong_workload() {
        let bad = SimJob::adl("broken", "machine oops {", 1, 10);
        let r = run_job(&bad);
        match r.outcome {
            JobOutcome::Failed(msg) => assert!(msg.contains("adl load failed"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        let mismatched = SimJob::new(ModelKind::Adl, WorkloadSpec::Random { block_len: 8 }, 10);
        let r = run_job(&mismatched);
        assert!(matches!(r.outcome, JobOutcome::Failed(_)));
        // And the inline workload refuses to resolve for program models.
        let cross = SimJob::new(
            ModelKind::MiniRiscIss,
            WorkloadSpec::AdlMachine {
                source: ADL_PIPE.into(),
                osms: 1,
            },
            10,
        );
        let r = run_job(&cross);
        assert!(matches!(r.outcome, JobOutcome::Failed(_)));
    }

    #[test]
    fn adl_workload_spelling_is_digest_stable() {
        let a = WorkloadSpec::AdlMachine {
            source: ADL_PIPE.into(),
            osms: 4,
        };
        let b = WorkloadSpec::AdlMachine {
            source: ADL_PIPE.into(),
            osms: 4,
        };
        assert_eq!(a.spelling(), b.spelling());
        assert!(a.spelling().starts_with("adl:4@"));
        let c = WorkloadSpec::AdlMachine {
            source: format!("{ADL_PIPE} "),
            osms: 4,
        };
        assert_ne!(a.spelling(), c.spelling(), "source changes must change the spelling");
    }

    #[test]
    fn vliw_ilp_job_halts() {
        let mut job = SimJob::new(
            ModelKind::Vliw,
            WorkloadSpec::Ilp { iters: 50, body: 6 },
            100_000,
        );
        job.observability = true;
        let r = run_job(&job);
        assert_eq!(r.outcome, JobOutcome::Halted);
        assert!(r.metrics.is_some());
        assert!(r.stats.is_some());
    }

    #[test]
    fn sa_job_digest_matches_between_runs_with_faults() {
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("specint".into()),
            20_000,
        );
        job.faults = Some(FaultPlan::new(0xFA0).deny_allocate(0.02));
        let a = run_job(&job);
        let b = run_job(&job);
        assert!(a.is_ok(), "{:?}", a.outcome);
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            a.fault_stats.unwrap().total(),
            b.fault_stats.unwrap().total()
        );
    }

    #[test]
    fn blackholed_job_yields_typed_stall_not_a_pinned_worker() {
        // A permanent blackhole on the fetch stage wedges the pipeline; the
        // default-armed watchdog must convert that into a typed, fully
        // deterministic Stalled outcome long before max_cycles.
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("specint".into()),
            50_000_000,
        );
        job.stall_budget = Some(500);
        job.faults = Some(FaultPlan::new(1).blackhole(100, u64::MAX));
        let a = run_job(&job);
        let b = run_job(&job);
        match (&a.outcome, &b.outcome) {
            (JobOutcome::Stalled(sa), JobOutcome::Stalled(sb)) => {
                assert_eq!(sa, sb, "stall summaries must be deterministic");
                assert_eq!(sa.budget, 500);
                assert!(sa.detail.contains("budget 500"), "{}", sa.detail);
            }
            other => panic!("expected deterministic stalls, got {other:?}"),
        }
        assert!(a.cycles < 100_000, "watchdog fired late: {}", a.cycles);
    }

    #[test]
    fn deadline_job_reports_overrun() {
        // Host-speed dependent by design: a multi-billion-cycle VLIW loop
        // with a tiny wall deadline must come back as DeadlineExceeded, not
        // run to budget.
        let mut job = SimJob::new(
            ModelKind::Vliw,
            WorkloadSpec::Ilp { iters: 2_000_000_000, body: 4 },
            u64::MAX / 2,
        );
        job.deadline_ms = Some(5);
        let r = run_job(&job);
        assert!(
            matches!(r.outcome, JobOutcome::DeadlineExceeded { .. }),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(JobOutcome::Halted.label(), "halted");
        assert_eq!(
            JobOutcome::Failed("boom".into()).label(),
            "failed: boom"
        );
        let q = JobOutcome::Quarantined {
            attempts: 2,
            last: Box::new(JobOutcome::Panicked {
                payload: "chaos".into(),
                backtrace: None,
            }),
        };
        assert_eq!(q.label(), "quarantined after 2 attempt(s); last: panicked: chaos");
        assert!(!q.is_healthy());
        assert!(JobOutcome::BudgetExhausted.is_healthy());
        let k = JobOutcome::Killed { signal: 9 };
        assert_eq!(k.label(), "killed: signal 9");
        assert!(!k.is_healthy());
    }
}
