//! `farm_sweep`: a seeded batch of short jobs through `simfarm::run_farm`
//! with two workers, in four passes — plain, journaled, checkpointed and
//! process-isolated.

use crate::inputs::{self, FarmInputs};
use crate::measure::{median, percentile, timed, Calibration, Secs};
use crate::pipeline::add_stats;
use crate::{Ctx, Rounds};
use minirisc::{Iss, SparseMemory};
use osm_core::Stats;
use simfarm::checkpoint::{self, JobCheckpoint};
use simfarm::{
    parse_manifest, run_farm, run_job_checkpointed, CheckpointCtl, FarmObserver, FarmOptions,
    FarmReport, JobResult, JournalWriter, ModelKind, ProcessIsolation, SimJob, WorkloadSpec,
};
use std::path::{Path, PathBuf};

/// Worker threads (the host has two cores).
const WORKERS: usize = 2;

/// Checkpoint cadence of the checkpointed pass, in cycles.
const CHECKPOINT_EVERY: u64 = 1_000;

/// The job list: manifest jobs first (the only ones a re-exec'd child can
/// rebuild from the manifest file), then the inline ADL machines.
struct Sweep {
    jobs: Vec<SimJob>,
    manifest_jobs: usize,
    manifest_path: PathBuf,
}

/// Parses the manifest and adds the ADL jobs. `manifest_path` names the
/// file [`write_manifest`] put the manifest in.
fn sweep(inputs: &FarmInputs, manifest_path: PathBuf) -> Sweep {
    let manifest = parse_manifest(&inputs.manifest).expect("generated manifests parse");
    let mut jobs = manifest.jobs;
    let manifest_jobs = jobs.len();
    for (name, source, osms, cycles) in &inputs.adl {
        jobs.push(SimJob::adl(name.clone(), source.clone(), *osms, *cycles));
    }
    Sweep {
        jobs,
        manifest_jobs,
        manifest_path,
    }
}

/// Writes the manifest where a re-executed child reads it; returns its path.
fn write_manifest(inputs: &FarmInputs, dir: &Path) -> PathBuf {
    let path = dir.join("manifest.json");
    std::fs::write(&path, &inputs.manifest).expect("scratch directory is writable");
    path
}

/// A fresh, empty directory under `base`.
fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

/// Runs one pass; returns its results in job order and its wall seconds.
fn pass(
    cal: &mut Calibration,
    jobs: &[SimJob],
    options: FarmOptions,
) -> (Option<Vec<JobResult>>, Secs) {
    let (run, dt) = cal.timed_on(WORKERS, || run_farm(jobs, WORKERS, options));
    (run.ok().and_then(|r| r.into_results().ok()), dt)
}

fn canonical(results: &[JobResult]) -> String {
    FarmReport::consolidate(results.to_vec(), WORKERS, 0.0).canonical_text()
}

fn isolation(ctx: &Ctx, sweep: &Sweep) -> ProcessIsolation {
    ProcessIsolation {
        exe: ctx.simfarm.clone(),
        manifest: sweep.manifest_path.clone(),
        memory_limit_mb: None,
        cpu_limit_secs: None,
    }
}

/// Exit codes the ISS gives the random-program jobs (by job index).
fn expected_exits(jobs: &[SimJob]) -> Vec<Option<u32>> {
    jobs.iter()
        .map(|job| match (&job.model, &job.workload) {
            (ModelKind::MiniRiscIss, WorkloadSpec::Random { block_len }) => {
                let program = workloads::random_program(job.seed, *block_len).program();
                let mut iss = Iss::with_program(SparseMemory::new(), &program);
                iss.run(job.max_cycles).ok().map(|_| iss.exit_code)
            }
            _ => None,
        })
        .collect()
}

/// Checks one pass: every job healthy, the ISS jobs' exit codes right, and
/// the canonical report equal to `want` (when given).
fn check_pass(
    ctx: &mut Ctx,
    label: &str,
    results: &Option<Vec<JobResult>>,
    exits: &[Option<u32>],
    want: Option<&str>,
) -> Option<String> {
    let Some(results) = results else {
        ctx.tally
            .check(false, || format!("{label}: sweep did not complete"));
        return None;
    };
    for (r, exit) in results.iter().zip(exits) {
        let ok = r.is_ok() && exit.is_none_or(|e| e == r.exit_code);
        ctx.tally.check(ok, || {
            format!("{label}: job {} ended {}", r.name, r.outcome.label())
        });
    }
    let text = canonical(results);
    if let Some(want) = want {
        ctx.tally.check(text == want, || {
            format!("{label}: canonical report differs from the plain pass")
        });
    }
    Some(text)
}

/// The workload's metrics for the four passes' wall seconds: plain,
/// journaled, checkpointed, isolated. `cycles` holds the simulated cycles
/// of the whole job list and of its manifest jobs. `sim_kcps` is the
/// geometric mean of the four passes' rates, so each durability feature's
/// price weighs the same in it.
fn push_metrics(
    rounds: &mut Rounds,
    cycles: [u64; 2],
    n_all: usize,
    n_man: usize,
    walls: [f64; 4],
) {
    let [w1, w2, w3, w4] = walls;
    let [all, man] = cycles.map(|c| c as f64 / 1e3);
    let product = (all / w1) * (all / w2) * (all / w3) * (man / w4);
    rounds.push("sim_kcps", product.powf(0.25));
    rounds.push("farm_jobs_per_s", n_all as f64 / w1);
    rounds.push("farm_journal_jobs_per_s", n_all as f64 / w2);
    rounds.push("farm_ckpt_jobs_per_s", n_all as f64 / w3);
    rounds.push("farm_isolated_jobs_per_s", n_man as f64 / w4);
}

/// Runs `farm_sweep`.
pub fn run(ctx: &mut Ctx) {
    let dir = fresh_dir(&ctx.scratch, "farm");
    let inputs = inputs::farm(ctx.seed);
    let manifest_path = write_manifest(&inputs, &dir);
    let sweep = ctx.setup(|| sweep(&inputs, manifest_path.clone()));
    let n_all = sweep.jobs.len();
    let n_man = sweep.manifest_jobs;
    let exits = expected_exits(&sweep.jobs);
    let ckpt_jobs: Vec<SimJob> = sweep
        .jobs
        .iter()
        .cloned()
        .map(|mut j| {
            j.checkpoint_every = CHECKPOINT_EVERY;
            j
        })
        .collect();

    let mut rounds = Rounds::default();
    let mut cycles_by_model = [0u64; 4];
    // Per-pass wall seconds, one entry per round.
    let mut times: [Vec<Secs>; 4] = Default::default();
    ctx.measure(|ctx, spans| {
        let (plain, w1) = spans.span("simfarm", |_| {
            pass(&mut ctx.cal, &sweep.jobs, FarmOptions::default())
        });
        let journal_path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&journal_path);
        let journal = JournalWriter::create(&journal_path, &sweep.jobs).expect("journal opens");
        let (journaled, w2) = spans.span("simfarm.journal", |_| {
            pass(
                &mut ctx.cal,
                &sweep.jobs,
                FarmOptions {
                    journal: Some(journal),
                    ..FarmOptions::default()
                },
            )
        });
        let ckpt_dir = fresh_dir(&dir, "ckpt");
        let (checkpointed, w3) = spans.span("simfarm.checkpoint", |_| {
            pass(
                &mut ctx.cal,
                &ckpt_jobs,
                FarmOptions {
                    checkpoint_dir: Some(ckpt_dir),
                    ..FarmOptions::default()
                },
            )
        });
        let iso = isolation(ctx, &sweep);
        let (isolated, w4) = spans.span("simfarm.exec", |_| {
            pass(
                &mut ctx.cal,
                &sweep.jobs[..n_man],
                FarmOptions {
                    isolation: Some(iso),
                    ..FarmOptions::default()
                },
            )
        });

        let want = check_pass(ctx, "plain", &plain, &exits, None);
        check_pass(ctx, "journal", &journaled, &exits, want.as_deref());
        check_pass(ctx, "checkpoint", &checkpointed, &exits, want.as_deref());
        let want_iso = plain.as_ref().map(|p| canonical(&p[..n_man]));
        check_pass(
            ctx,
            "isolated",
            &isolated,
            &exits[..n_man],
            want_iso.as_deref(),
        );

        cycles_by_model = [0; 4];
        for r in plain.iter().flatten() {
            cycles_by_model[model_index(r.model)] += r.cycles;
        }
        let walls = [w1, w2, w3, w4];
        let norm = walls.map(|w| w.norm);
        push_metrics(&mut rounds, cycle_totals(&plain, n_man), n_all, n_man, norm);
        for (t, w) in times.iter_mut().zip(walls) {
            t.push(w);
        }
        norm.iter().sum()
    });
    let plain = run_farm(&sweep.jobs, WORKERS, FarmOptions::default())
        .ok()
        .and_then(|r| r.into_results().ok());
    let cycles = cycle_totals(&plain, n_man);
    let (mut overall, mut raw) = (Rounds::default(), Rounds::default());
    let median_of = |pick: fn(&Secs) -> f64| {
        times
            .each_ref()
            .map(|t| median(&t.iter().map(pick).collect::<Vec<_>>()))
    };
    push_metrics(&mut overall, cycles, n_all, n_man, median_of(|s| s.norm));
    push_metrics(&mut raw, cycles, n_all, n_man, median_of(|s| s.raw));
    ctx.finish_rounds(
        &overall,
        &raw,
        &rounds,
        &[
            ("farm_jobs_per_s", "1/s"),
            ("farm_journal_jobs_per_s", "1/s"),
            ("farm_ckpt_jobs_per_s", "1/s"),
            ("farm_isolated_jobs_per_s", "1/s"),
        ],
    );

    // Job-size mix: job counts and the share of simulated cycles by model.
    let total: u64 = cycles_by_model.iter().sum();
    for (k, name) in ["minirisc", "sa1100", "ppc750", "adl"].iter().enumerate() {
        let count = sweep
            .jobs
            .iter()
            .filter(|j| model_index(j.model) == k)
            .count();
        ctx.property(&format!("jobs.{name}"), count as f64);
        ctx.property(
            &format!("cycle_share.{name}"),
            cycles_by_model[k] as f64 / total.max(1) as f64,
        );
    }
    let mut stats = Stats::default();
    for r in simfarm::run_serial(&sweep.jobs) {
        if let Some(s) = &r.stats {
            add_stats(&mut stats, s);
        }
    }
    ctx.osm_counters(&stats);
    adl_osm_step_layer(ctx, &inputs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `osm-core.ns_per_osm_step` over the farm's ADL machines, run directly
/// under the fast scheduler and the default restart policy, as the farm
/// runs them.
fn adl_osm_step_layer(ctx: &mut Ctx, inputs: &FarmInputs) {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let (mut osm_steps, mut secs) = (0u64, 0.0);
        for (_, source, osms, cycles) in &inputs.adl {
            let synth = osm_adl::load(source).expect("generated sources load");
            let mut m = crate::wide::build(
                &synth,
                *osms,
                osm_core::SchedulerMode::Fast,
                osm_core::RestartPolicy::Restart,
            );
            let (res, dt) = timed(|| m.run(*cycles));
            ctx.tally
                .check(res.is_ok(), || "ADL machine failed".to_owned());
            osm_steps += cycles * u64::from(*osms);
            secs += dt;
        }
        samples.push(secs * 1e9 / osm_steps as f64);
    }
    ctx.layer_value("osm-core.ns_per_osm_step", median(&samples), "ns");
}

/// Simulated cycles of all jobs and of the first `n_man` (manifest) jobs.
fn cycle_totals(results: &Option<Vec<JobResult>>, n_man: usize) -> [u64; 2] {
    let results = results.as_deref().unwrap_or(&[]);
    let all = results.iter().map(|r| r.cycles).sum();
    let man = results.iter().take(n_man).map(|r| r.cycles).sum();
    [all, man]
}

fn model_index(model: ModelKind) -> usize {
    match model {
        ModelKind::MiniRiscIss => 0,
        ModelKind::Sa1100 => 1,
        ModelKind::Ppc750 => 2,
        _ => 3,
    }
}

/// The `simfarm`, `journal`, `checkpoint`, `exec` and `osm-adl` layer
/// metrics, measured on the seed's farm inputs.
pub fn layers(ctx: &mut Ctx) {
    let dir = fresh_dir(&ctx.scratch, "farm-layers");
    let inputs = inputs::farm(ctx.seed);
    let sweep = sweep(&inputs, write_manifest(&inputs, &dir));
    let n_man = sweep.manifest_jobs;

    let parse_ms: Vec<f64> = (0..5)
        .map(|_| timed(|| parse_manifest(&inputs.manifest)).1 * 1e3)
        .collect();
    ctx.layer_value("simfarm.manifest_parse_ms", median(&parse_ms), "ms");
    if ctx.layers.get("osm-adl.load_ms").is_none() {
        let sources: Vec<&str> = inputs.adl.iter().map(|a| a.1.as_str()).collect();
        crate::wide::load_layer(ctx, &sources);
    }

    // Farm observer: phase shares, utilization, steals, sim-phase speed.
    let (mut setup_share, mut sim_share, mut util, mut steals, mut sim_rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut results = Vec::new();
    for _ in 0..3 {
        let observer = FarmObserver::new();
        let run = run_farm(
            &sweep.jobs,
            WORKERS,
            FarmOptions {
                observer: Some(observer),
                ..FarmOptions::default()
            },
        )
        .expect("farm runs");
        let schedule = run.schedule.clone().expect("observer attached");
        let (mut setup, mut sim, mut all) = (0u64, 0u64, 0u64);
        let (mut sa_cycles, mut sa_ns) = (0u64, 0u64);
        for span in &schedule.spans {
            for a in &span.attempts {
                setup += a.timing.setup_ns;
                sim += a.timing.sim_ns;
                all += a.timing.total_ns();
            }
            if sweep.jobs[span.index].model == ModelKind::Sa1100 {
                sa_cycles += span.cycles;
                sa_ns += span.attempts.iter().map(|a| a.timing.sim_ns).sum::<u64>();
            }
        }
        setup_share.push(setup as f64 / all as f64);
        sim_share.push(sim as f64 / all as f64);
        let u: Vec<f64> = schedule.workers.iter().map(|w| w.utilization()).collect();
        util.push(u.iter().sum::<f64>() / u.len() as f64);
        let s: u64 = schedule.workers.iter().map(|w| w.steals).sum();
        steals.push(s as f64 / sweep.jobs.len() as f64);
        sim_rate.push(sa_cycles as f64 / (sa_ns as f64 / 1e9) / 1e3);
        results = run.into_results().expect("complete sweep");
    }
    ctx.layer_value("simfarm.setup_share", median(&setup_share), "share");
    ctx.layer_value("simfarm.sim_share", median(&sim_share), "share");
    ctx.layer_value("simfarm.worker_utilization", median(&util), "share");
    ctx.layer_value("simfarm.steals_per_job", median(&steals), "1/job");

    // The same SA-1100 SPECint jobs run directly, outside the farm.
    let program = workloads::specint_mix().program();
    let mut direct = Vec::new();
    for _ in 0..3 {
        let (mut cycles, mut secs) = (0u64, 0.0);
        for job in sweep.jobs.iter().filter(|j| j.model == ModelKind::Sa1100) {
            let mut sim = sa1100::SaOsmSim::new(sa1100::SaConfig::paper(), &program);
            let (res, dt) = timed(|| sim.run_to_halt(job.max_cycles));
            cycles += res.map_or(0, |r| r.cycles);
            secs += dt;
        }
        direct.push(cycles as f64 / secs / 1e3);
    }
    ctx.layer_value(
        "simfarm.sim_vs_direct",
        median(&sim_rate) / median(&direct),
        "x",
    );

    // Journal appends, timed one record at a time.
    let mut record_us = Vec::new();
    for k in 0..3 {
        let path = dir.join(format!("records{k}.journal"));
        let mut journal = JournalWriter::create(&path, &sweep.jobs).expect("journal opens");
        for (idx, r) in results.iter().enumerate() {
            let (res, dt) = timed(|| journal.record(idx, r));
            ctx.tally
                .check(res.is_ok(), || "journal append failed".to_owned());
            record_us.push(dt * 1e6);
        }
    }
    ctx.layer_value("journal.record_us_p50", percentile(&record_us, 50.0), "us");
    ctx.layer_value("journal.record_us_p99", percentile(&record_us, 99.0), "us");

    // Checkpoint encode (machine snapshot + sealed framing) and store.
    let job = sweep
        .jobs
        .iter()
        .find(|j| j.model == ModelKind::Sa1100)
        .expect("SA jobs")
        .clone();
    let digest = checkpoint::job_checkpoint_digest(&job);
    let mut sim = sa1100::SaOsmSim::new(sa1100::SaConfig::paper(), &program);
    let _ = sim.run_to_halt(job.max_cycles / 2);
    let (mut enc, mut store, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    let path = checkpoint::checkpoint_path(&dir, 0);
    for _ in 0..20 {
        let (sealed, dt) = timed(|| {
            let machine = sim.checkpoint_bytes().expect("SA machines snapshot");
            checkpoint::encode(
                digest,
                &JobCheckpoint {
                    cycle: sim.machine().cycle(),
                    trace_hash: 0,
                    trace_total: 0,
                    machine,
                },
            )
        });
        enc.push(dt * 1e6);
        bytes = sealed.len();
        let (res, dt) = timed(|| checkpoint::store(&path, &sealed));
        ctx.tally
            .check(res.is_ok(), || "checkpoint store failed".to_owned());
        store.push(dt * 1e6);
    }
    ctx.layer_value("checkpoint.encode_us", median(&enc), "us");
    ctx.layer_value("checkpoint.store_us", median(&store), "us");
    ctx.layer_value("checkpoint.bytes", bytes as f64, "B");

    // Seals per job, counted by the controller's notification hook.
    let ck_dir = fresh_dir(&dir, "seals");
    let mut seals = 0u64;
    for (idx, job) in sweep.jobs.iter().enumerate() {
        let mut job = job.clone();
        job.checkpoint_every = CHECKPOINT_EVERY;
        let mut count = 0u64;
        if let Some(ctl) = CheckpointCtl::new(&job, idx, &ck_dir) {
            let mut ctl = ctl.with_notify(|_| count += 1);
            let r = run_job_checkpointed(&job, Some(&mut ctl));
            ctx.tally
                .check(r.is_ok(), || format!("checkpointed {} failed", job.name));
        }
        seals += count;
    }
    ctx.layer_value(
        "checkpoint.seals_per_job",
        seals as f64 / sweep.jobs.len() as f64,
        "1/job",
    );

    // Child cost: isolated minus in-process wall per job.
    let mut child_ms = Vec::new();
    for _ in 0..3 {
        let manifest_jobs = &sweep.jobs[..n_man];
        let (_, plain) = pass(&mut ctx.cal, manifest_jobs, FarmOptions::default());
        let iso = isolation(ctx, &sweep);
        let (res, isolated) = pass(
            &mut ctx.cal,
            manifest_jobs,
            FarmOptions {
                isolation: Some(iso),
                ..FarmOptions::default()
            },
        );
        ctx.tally.check(res.is_some(), || {
            "isolated pass did not complete".to_owned()
        });
        child_ms.push((isolated.raw - plain.raw) * 1e3 / n_man as f64);
    }
    ctx.layer_value("exec.child_ms_per_job", median(&child_ms), "ms");
    let _ = std::fs::remove_dir_all(&dir);
}
