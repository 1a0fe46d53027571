//! The repository benchmark: four seeded workloads driven through the
//! public APIs of every workspace crate, end-to-end metrics from untraced
//! runs and per-layer metrics from traced runs. See `README.md` in this
//! directory for what each workload is for.

pub mod farm;
pub mod inputs;
pub mod measure;
pub mod pipeline;
pub mod wide;

use measure::{median, quartiles, timed, Calibration, Report, Spans, Tally, CAL_NOMINAL_SECS};
use osm_core::Stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "dense_pipeline",
    "memory_bound",
    "wide_machine",
    "farm_sweep",
];

/// End-to-end metrics every workload reports on an untraced run.
pub const END_TO_END: [&str; 3] = ["setup_s", "sim_kcps", "peak_rss_mb"];

/// Per-layer metrics every workload reports on a traced run.
pub const PER_LAYER: [&str; 31] = [
    "osm-core.director_ns_per_step",
    "osm-core.ns_per_osm_step",
    "osm-core.evals_per_cycle",
    "osm-core.useful_eval_ratio",
    "osm-core.idle_step_share",
    "osm-core.restarts_per_step",
    "ppc750.vetoes_per_cycle",
    "minirisc.ns_per_instr",
    "minirisc.assemble_ms",
    "memsys.ns_per_access",
    "memsys.dmiss_per_kinstr",
    "memsys.imiss_per_kinstr",
    "portsim.evals_per_cycle",
    "portsim.deltas_per_cycle",
    "ref.sa_kcps",
    "ref.ppc_port_kcps",
    "osm-adl.load_ms",
    "simfarm.manifest_parse_ms",
    "simfarm.setup_share",
    "simfarm.sim_share",
    "simfarm.worker_utilization",
    "simfarm.steals_per_job",
    "simfarm.sim_vs_direct",
    "journal.record_us_p50",
    "journal.record_us_p99",
    "checkpoint.encode_us",
    "checkpoint.store_us",
    "checkpoint.bytes",
    "checkpoint.seals_per_job",
    "exec.child_ms_per_job",
    "trace_overhead",
];

/// Set-up repeats until it has run this long (and at least
/// `SETUP_MIN_REPS` times); `setup_s` is the median repetition. Set-up is
/// sub-millisecond on some workloads, so many repetitions keep the median
/// steady, and each timed repetition runs a batch of set-ups about as
/// long as the calibration run (at most `SETUP_MAX_BATCH`), so the timer
/// and the control see spans of comparable length.
const SETUP_SECONDS: f64 = 0.25;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 500;
const SETUP_MAX_BATCH: usize = 64;

/// Fewest measured rounds, however long they take.
const MIN_ROUNDS: usize = 3;

/// Per-round samples of named values.
#[derive(Debug, Default)]
pub struct Rounds {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rounds {
    /// Adds one round's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Every round's value of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Everything one benchmark invocation carries: its arguments, the
/// correctness tally, and the metrics and log lines it produces.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The built `simfarm` binary (for process isolation).
    pub simfarm: PathBuf,
    /// Directory for journals, checkpoints and manifests.
    pub scratch: PathBuf,
    /// Correctness tally.
    pub tally: Tally,
    /// End-to-end metrics.
    pub e2e: Report,
    /// Per-layer metrics.
    pub layers: Report,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Layer self times of the traced rounds.
    pub self_time: BTreeMap<&'static str, f64>,
    /// Host-speed calibration for end-to-end times.
    pub cal: Calibration,
}

impl Ctx {
    /// A fresh context.
    pub fn new(seed: u64, seconds: f64, trace: bool, simfarm: PathBuf, scratch: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            simfarm,
            scratch,
            tally: Tally::default(),
            e2e: Report::default(),
            layers: Report::default(),
            lines: Vec::new(),
            self_time: BTreeMap::new(),
            cal: Calibration::default(),
        }
    }

    /// Adds a log line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Runs set-up repeatedly and records the median normalized time as
    /// `setup_s`; returns the last set-up's product. `f` gets the
    /// generated inputs and does only what the program does with them
    /// (assembling, loading ADL, building machines, parsing manifests):
    /// generating and screening inputs is the benchmark's own work.
    pub fn setup<T>(&mut self, f: impl Fn() -> T) -> T {
        // The first call runs cold; the batch is sized on a second one.
        let (out, _) = timed(&f);
        let (_, once) = timed(&f);
        let batch = ((CAL_NOMINAL_SECS / once) as usize).clamp(1, SETUP_MAX_BATCH);
        let (mut norm, mut raw) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while norm.len() < SETUP_MIN_REPS
            || (norm.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            let (products, dt) = self
                .cal
                .timed(|| (0..batch).map(|_| f()).collect::<Vec<T>>());
            drop(products);
            norm.push(dt.norm / batch as f64);
            raw.push(dt.raw / batch as f64);
        }
        self.e2e.set("setup_s", median(&norm), "s");
        self.line(format!(
            "raw setup_s = {:.6} s ({} repetitions of {batch})",
            median(&raw),
            norm.len()
        ));
        out
    }

    /// Repeats `round` until the measurement window has elapsed (and at
    /// least `MIN_ROUNDS` times). `round` returns the host seconds of the
    /// calls it timed. A traced run alternates untraced and traced
    /// rounds, and `trace_overhead` is the ratio of their medians.
    pub fn measure(&mut self, mut round: impl FnMut(&mut Ctx, &mut Spans) -> f64) {
        let t0 = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut spans = Spans::new(true);
        let mut n = 0usize;
        while n < MIN_ROUNDS || t0.elapsed().as_secs_f64() < self.seconds {
            if self.trace && n % 2 == 1 {
                traced.push(round(self, &mut spans));
            } else {
                plain.push(round(self, &mut Spans::new(false)));
            }
            n += 1;
        }
        self.line(format!(
            "rounds: {n} in {:.2} s",
            t0.elapsed().as_secs_f64()
        ));
        // Read before the counter and layer passes, whose buffers (the
        // recorded address streams above all) belong to the benchmark.
        self.e2e.set("peak_rss_mb", measure::peak_rss_mb(), "MB");
        if self.trace {
            self.layer_value("trace_overhead", median(&traced) / median(&plain), "x");
            self.self_time = spans.self_seconds();
            self.line(format!("spans recorded: {}", spans.len()));
        }
    }

    /// Records the generic end-to-end metrics from `overall` (one value
    /// each, computed from per-unit normalized medians) and prints the
    /// workload's own named metrics with the quartiles of their per-round
    /// values, then every rate again from `raw` (the same medians of the
    /// times as measured, not normalized).
    pub fn finish_rounds(
        &mut self,
        overall: &Rounds,
        raw: &Rounds,
        rounds: &Rounds,
        named: &[(&'static str, &'static str)],
    ) {
        self.e2e
            .set("sim_kcps", overall.get("sim_kcps")[0], "kcyc/s");
        for &(name, unit) in named {
            let (q1, _, q3) = quartiles(rounds.get(name));
            self.line(format!(
                "metric {name} = {:.4} {unit} (per-round q1 {q1:.4}, q3 {q3:.4}, {} rounds)",
                overall.get(name)[0],
                rounds.get(name).len()
            ));
        }
        for &(name, unit) in [("sim_kcps", "kcyc/s")].iter().chain(named) {
            self.line(format!("raw {name} = {:.4} {unit}", raw.get(name)[0]));
        }
    }

    /// Records a per-layer metric.
    pub fn layer_value(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.set(name, value, unit);
    }

    /// Prints an input property a later optimisation may depend on.
    pub fn property(&mut self, name: &str, value: f64) {
        self.line(format!("property {name} = {value:.4}"));
    }

    /// Records the `osm-core` scheduler counters over `s`.
    pub fn osm_counters(&mut self, s: &Stats) {
        let cycles = s.cycles.max(1) as f64;
        let evals = pipeline::evals(s);
        self.layer_value("osm-core.evals_per_cycle", evals as f64 / cycles, "1/cycle");
        self.layer_value(
            "osm-core.useful_eval_ratio",
            s.transitions as f64 / evals.max(1) as f64,
            "share",
        );
        self.layer_value(
            "osm-core.idle_step_share",
            s.idle_steps as f64 / cycles,
            "share",
        );
        self.layer_value(
            "osm-core.restarts_per_step",
            s.restarts as f64 / cycles,
            "1/step",
        );
        self.property("idle_step_share", s.idle_steps as f64 / cycles);
    }
}

/// `osm-core.director_ns_per_step`: the inert 8-OSM ring over five
/// exclusive pools, timed around `Machine::run`.
pub fn director_ring(ctx: &mut Ctx) {
    use osm_core::{ExclusivePool, IdentExpr, InertBehavior, Machine, SpecBuilder};
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut m: Machine<()> = Machine::new(());
        let stages: Vec<_> = (0..5)
            .map(|k| m.add_manager(ExclusivePool::new(format!("s{k}"), 1)))
            .collect();
        let mut b = SpecBuilder::new("op");
        let states: Vec<_> = (0..6).map(|k| b.state(format!("S{k}"))).collect();
        b.initial(states[0]);
        b.edge(states[0], states[1])
            .allocate(stages[0], IdentExpr::Const(0));
        for k in 1..5 {
            b.edge(states[k], states[k + 1])
                .release(stages[k - 1], IdentExpr::AnyHeld)
                .allocate(stages[k], IdentExpr::Const(0));
        }
        b.edge(states[5], states[0])
            .release(stages[4], IdentExpr::AnyHeld);
        let spec = b.build().expect("the ring spec is valid");
        for _ in 0..8 {
            m.add_osm(&spec, InertBehavior);
        }
        let steps = 200_000u64;
        let (res, dt) = measure::timed(|| m.run(steps));
        ctx.tally
            .check(res.is_ok(), || "director ring failed".to_owned());
        samples.push(dt * 1e9 / steps as f64);
    }
    ctx.layer_value("osm-core.director_ns_per_step", median(&samples), "ns");
}
