//! Golden checkpoint test: checkpoint → restore → **continue with
//! observability** must replay the uninterrupted run's tail exactly.
//!
//! The reference run records a full trace from cycle 0. A second identical
//! run is checkpointed mid-flight and discarded; a third simulator restores
//! the checkpoint, only *then* enables tracing (plus the rest of the
//! observability stack), and runs to halt. Its digest must equal the digest
//! of the reference trace's tail — every transition at or after the
//! checkpoint cycle. This pins down two properties at once: restore is
//! exact, and late-attached observers see the identical event stream a
//! from-boot observer would have seen for those cycles.

use osm_repro::minirisc::Program;
use osm_repro::osm_core::{FaultPlan, SchedulerMode, Trace, TraceMode};
use osm_repro::sa1100::{SaConfig, SaOsmSim};
use osm_repro::workloads::{random_program, specint_mix};

const MAX: u64 = 200_000;

/// Digest of the events at or after `cut` — what a digest-only trace
/// attached at cycle `cut` would have accumulated.
fn tail_digest(full: &Trace, cut: u64) -> u64 {
    let mut tail = Trace::digest_only();
    for ev in full.events().filter(|ev| ev.cycle >= cut) {
        tail.push(*ev);
    }
    tail.digest()
}

fn golden_case(program: &Program, ckpt_at: u64, faults: Option<FaultPlan>, mode: SchedulerMode) {
    // Reference: uninterrupted, full trace from boot.
    let mut reference = SaOsmSim::new(SaConfig::paper(), program);
    reference.machine_mut().set_scheduler_mode(mode);
    reference
        .machine_mut()
        .enable_trace_with(Trace::with_mode(TraceMode::Full));
    let target = reference.ids.mf;
    if let Some(plan) = &faults {
        reference.inject_faults(target, plan.clone());
    }
    let ref_result = reference.run_to_halt(MAX).expect("reference run completes");
    assert!(reference.machine().shared.halted, "reference must halt");
    let ref_trace = reference
        .machine_mut()
        .take_trace()
        .expect("trace was enabled");

    // Interrupted: identical run, checkpointed mid-flight, then dropped.
    let mut interrupted = SaOsmSim::new(SaConfig::paper(), program);
    interrupted.machine_mut().set_scheduler_mode(mode);
    if let Some(plan) = &faults {
        let target = interrupted.ids.mf;
        interrupted.inject_faults(target, plan.clone());
    }
    for _ in 0..ckpt_at {
        assert!(!interrupted.machine().shared.halted, "checkpoint too late");
        interrupted.step().expect("pre-checkpoint step");
    }
    let cut = interrupted.machine().cycle();
    let ckpt = interrupted.checkpoint_bytes().expect("checkpoint");
    drop(interrupted);

    // Restored: fresh sim, restore, and only now attach observability.
    let mut restored = SaOsmSim::new(SaConfig::paper(), program);
    restored.machine_mut().set_scheduler_mode(mode);
    if let Some(plan) = &faults {
        let target = restored.ids.mf;
        restored.inject_faults(target, plan.clone());
    }
    restored.restore_checkpoint_bytes(&ckpt).expect("restore");
    assert_eq!(restored.machine().cycle(), cut, "restore rewinds the clock");
    restored.machine_mut().enable_trace_with(Trace::digest_only());
    restored.enable_observability();
    let rest_result = restored.run_to_halt(MAX).expect("restored run completes");
    assert!(restored.machine().shared.halted, "restored run must halt");

    // The continuation's digest is the reference tail's digest, bit for bit.
    let rest_trace = restored.machine_mut().take_trace().unwrap();
    assert_eq!(
        rest_trace.digest(),
        tail_digest(&ref_trace, cut),
        "restored-run trace must equal the uninterrupted run's tail (cut at cycle {cut})"
    );
    // And the architectural outcome is unchanged.
    assert_eq!(rest_result.exit_code, ref_result.exit_code);
    assert_eq!(
        reference.machine().cycle(),
        restored.machine().cycle(),
        "both runs halt on the same cycle"
    );
    // The late-attached metrics cover exactly the continuation.
    let metrics = restored.metrics_report().expect("observability enabled");
    assert_eq!(metrics.transitions, rest_trace.total());
}

#[test]
fn restored_specint_run_matches_uninterrupted_tail() {
    golden_case(&specint_mix().program(), 1_000, None, SchedulerMode::Fast);
}

#[test]
fn restored_run_matches_tail_under_fault_injection() {
    golden_case(
        &specint_mix().program(),
        800,
        Some(FaultPlan::new(0xC4E7).deny_allocate(0.02).deny_inquire(0.01)),
        SchedulerMode::Fast,
    );
}

#[test]
fn restored_run_matches_tail_in_seed_mode() {
    golden_case(&specint_mix().program(), 1_000, None, SchedulerMode::Seed);
}

#[test]
fn restored_random_program_runs_match_tails_at_many_cut_points() {
    for (seed, ckpt_at) in [(1u64, 50u64), (2, 500), (3, 1_500), (4, 37)] {
        golden_case(
            &random_program(seed, 120).program(),
            ckpt_at,
            None,
            SchedulerMode::Fast,
        );
    }
}
