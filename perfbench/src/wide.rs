//! `wide_machine`: generated ADL machines of tens to hundreds of OSMs,
//! loaded through `osm_adl::load` and run with inert behaviors.

use crate::inputs::{self, WideMachine};
use crate::measure::{median, timed, Secs};
use crate::pipeline::add_stats;
use crate::{Ctx, Rounds};
use osm_adl::SynthesizedMachine;
use osm_core::{InertBehavior, Machine, RestartPolicy, SchedulerMode, Stats, Trace};

/// Builds the machine: declared managers, `osms` instances round-robin
/// over the classes, the given scheduler and restart policy.
pub fn build(
    synth: &SynthesizedMachine,
    osms: u32,
    mode: SchedulerMode,
    policy: RestartPolicy,
) -> Machine<()> {
    let mut m: Machine<()> = Machine::new(());
    synth.install_managers(&mut m);
    for k in 0..osms as usize {
        m.add_osm(&synth.specs[k % synth.specs.len()].1, InertBehavior);
    }
    m.set_scheduler_mode(mode);
    m.set_restart_policy(policy);
    m
}

/// The trace digest and final operation-state fingerprint of a run, or
/// the model error's rendering.
fn digest_run(
    synth: &SynthesizedMachine,
    w: &WideMachine,
    mode: SchedulerMode,
) -> Result<(u64, u64), String> {
    let mut m = build(synth, w.osms, mode, w.policy);
    m.enable_trace_with(Trace::digest_only());
    m.run(w.steps).map_err(|e| e.to_string())?;
    let digest = m.trace_digest().expect("trace enabled");
    Ok((digest, m.state_fingerprint()))
}

/// `osm-adl.load_ms`: mean `osm_adl::load` time per source, median of
/// five passes.
pub fn load_layer(ctx: &mut Ctx, sources: &[&str]) {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (loaded, dt) = timed(|| sources.iter().filter(|s| osm_adl::load(s).is_ok()).count());
        ctx.tally.check(loaded == sources.len(), || {
            "an ADL source failed to load".to_owned()
        });
        samples.push(dt * 1e3 / sources.len() as f64);
    }
    ctx.layer_value("osm-adl.load_ms", median(&samples), "ms");
}

/// The workload's metrics for per-machine host seconds `secs`.
fn push_metrics(rounds: &mut Rounds, batch: &[WideMachine], secs: &[f64]) {
    let steps: u64 = batch.iter().map(|w| w.steps).sum();
    let osm_steps: u64 = batch.iter().map(|w| w.steps * u64::from(w.osms)).sum();
    let total: f64 = secs.iter().sum();
    rounds.push("sim_kcps", steps as f64 / total / 1e3);
    rounds.push("adl_mosm_steps_per_s", osm_steps as f64 / total / 1e6);
    rounds.push("ns_per_osm_step", total * 1e9 / osm_steps as f64);
    let (restart_steps, restart_secs) = batch
        .iter()
        .zip(secs)
        .filter(|(w, _)| w.policy == RestartPolicy::Restart)
        .fold((0u64, 0.0), |(n, t), (w, s)| {
            (n + w.steps * u64::from(w.osms), t + s)
        });
    rounds.push(
        "restart_mosm_steps_per_s",
        restart_steps as f64 / restart_secs / 1e6,
    );
}

/// Runs `wide_machine`.
pub fn run(ctx: &mut Ctx) {
    let batch = inputs::wide(ctx.seed);
    let synths = ctx.setup(|| {
        batch
            .iter()
            .map(|w| {
                let synth = osm_adl::load(&w.source).expect("generated sources load");
                std::hint::black_box(build(&synth, w.osms, SchedulerMode::Fast, w.policy));
                synth
            })
            .collect::<Vec<_>>()
    });

    // Oracle: the fast scheduler must reproduce the seed loop's trace.
    let mut expected = Vec::new();
    for (w, s) in batch.iter().zip(&synths) {
        let fast = digest_run(s, w, SchedulerMode::Fast);
        let slow = digest_run(s, w, SchedulerMode::Seed);
        let ok = matches!((&fast, &slow), (Ok(a), Ok(b)) if a.0 == b.0);
        ctx.tally
            .check(ok, || format!("{}: Fast {fast:?} vs Seed {slow:?}", w.name));
        expected.push(fast.map(|f| f.1).ok());
    }

    // Per-machine host seconds, one entry per round.
    let mut times: Vec<Vec<Secs>> = vec![Vec::new(); batch.len()];
    let mut rounds = Rounds::default();
    ctx.measure(|ctx, spans| {
        let mut secs = Vec::new();
        for ((w, s), want) in batch.iter().zip(&synths).zip(&expected) {
            let mut m = build(s, w.osms, SchedulerMode::Fast, w.policy);
            let (res, dt) = spans.span("osm-core", |_| ctx.cal.timed(|| m.run(w.steps)));
            let ok = res.is_ok() && Some(m.state_fingerprint()) == *want;
            ctx.tally.check(ok, || {
                format!("{}: untraced run diverged from the oracle", w.name)
            });
            secs.push(dt);
        }
        let norm: Vec<f64> = secs.iter().map(|s| s.norm).collect();
        push_metrics(&mut rounds, &batch, &norm);
        for (t, s) in times.iter_mut().zip(secs) {
            t.push(s);
        }
        norm.iter().sum()
    });
    let median_of = |pick: fn(&Secs) -> f64| -> Vec<f64> {
        times
            .iter()
            .map(|t| median(&t.iter().map(pick).collect::<Vec<_>>()))
            .collect()
    };
    let (mut overall, mut raw) = (Rounds::default(), Rounds::default());
    let medians = median_of(|s| s.raw);
    push_metrics(&mut overall, &batch, &median_of(|s| s.norm));
    push_metrics(&mut raw, &batch, &medians);
    ctx.finish_rounds(
        &overall,
        &raw,
        &rounds,
        &[
            ("adl_mosm_steps_per_s", "Mstep/s"),
            ("restart_mosm_steps_per_s", "Mstep/s"),
        ],
    );
    ctx.layer_value(
        "osm-core.ns_per_osm_step",
        raw.get("ns_per_osm_step")[0],
        "ns",
    );

    let mut stats = Stats::default();
    for ((w, s), secs) in batch.iter().zip(&synths).zip(&medians) {
        let mut m = build(s, w.osms, SchedulerMode::Fast, w.policy);
        let _ = m.run(w.steps);
        add_stats(&mut stats, &m.stats);
        ctx.line(format!(
            "machine {}: {} OSMs, {:?}, {:.3} Mstep/s (raw), {:.3} evals per OSM-step",
            w.name,
            w.osms,
            w.policy,
            (w.steps * u64::from(w.osms)) as f64 / secs / 1e6,
            crate::pipeline::evals(&m.stats) as f64 / (w.steps * u64::from(w.osms)) as f64,
        ));
    }
    ctx.osm_counters(&stats);
    let n = batch.len() as f64;
    ctx.property(
        "mean_osms_per_machine",
        batch.iter().map(|w| f64::from(w.osms)).sum::<f64>() / n,
    );
    ctx.property(
        "mean_managers_per_machine",
        synths.iter().map(|s| s.managers.len() as f64).sum::<f64>() / n,
    );
    if ctx.trace {
        let sources: Vec<&str> = batch.iter().map(|w| w.source.as_str()).collect();
        load_layer(ctx, &sources);
    }
}
