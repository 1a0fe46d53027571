//! Differential testing of the two director scheduling modes.
//!
//! `SchedulerMode::Fast` (sensitivity-driven skipping) must be behaviorally
//! indistinguishable from `SchedulerMode::Seed` (the literal Fig. 3 loop
//! from the paper) — same transition-trace digest, same cycle count, same
//! outcome — on every example model, **including with fault injection
//! enabled**: the injector hashes each decision from (plan seed, cycle,
//! rule, machine), so faults must land on the same transactions whichever
//! mode scheduled them.
//!
//! Runs go through `simfarm::run_job`, so this also differentially tests
//! the farm's job runner itself.

use osm_repro::minirisc::{AluOp, BranchCond, Instr, MemWidth, Reg};
use osm_repro::osm_core::{FaultPlan, Machine, SchedulerMode, Trace};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim};
use osm_repro::sa1100::{SaConfig, SaOsmSim, SmtSim};
use osm_repro::simfarm::{run_job, JobOutcome, JobResult, ModelKind, SimJob, WorkloadSpec};
use osm_repro::vliw::{
    interpret, schedule, VliwConfig, VliwIr, VliwProgram, VliwSim, DATA_BASE as VLIW_DATA_BASE,
};
use osm_repro::workloads::strided_walk;

const MAX: u64 = 200_000;

/// Runs `job` under both scheduler modes and returns (fast, seed).
fn both_modes(mut job: SimJob) -> (JobResult, JobResult) {
    job.scheduler = SchedulerMode::Fast;
    let fast = run_job(&job);
    job.scheduler = SchedulerMode::Seed;
    let seed = run_job(&job);
    (fast, seed)
}

/// The two results must be behaviorally identical: digest, cycles, retired
/// count, exit code and outcome.
///
/// Fault *counters* are deliberately NOT compared: a denied attempt is
/// retried once per director pass that re-evaluates the failing rule, and
/// the number of passes is exactly what the two modes differ in (Seed
/// re-evaluates every OSM each pass, Fast skips non-dirty ones). The
/// per-decision hash guarantees the same *transactions* are faulted — hence
/// identical traces — not the same number of denied retries.
fn assert_equivalent(fast: &JobResult, seed: &JobResult) {
    assert_eq!(fast.digest, seed.digest, "{}: trace digests differ", fast.name);
    assert_eq!(fast.cycles, seed.cycles, "{}: cycle counts differ", fast.name);
    assert_eq!(fast.retired, seed.retired, "{}: retired counts differ", fast.name);
    assert_eq!(fast.exit_code, seed.exit_code, "{}: exit codes differ", fast.name);
    assert_eq!(fast.outcome, seed.outcome, "{}: outcomes differ", fast.name);
    assert_eq!(
        fast.fault_stats.is_some(),
        seed.fault_stats.is_some(),
        "{}: one mode ran faults, the other did not",
        fast.name
    );
}

fn faulted(model: ModelKind, workload: WorkloadSpec, plan: FaultPlan) -> SimJob {
    let mut job = SimJob::new(model, workload, MAX);
    job.faults = Some(plan);
    job
}

#[test]
fn sa1100_fast_equals_seed_with_denied_allocations() {
    let (fast, seed) = both_modes(faulted(
        ModelKind::Sa1100,
        WorkloadSpec::Named("specint".into()),
        FaultPlan::new(0xD1FF).deny_allocate(0.02).defer_release(0.01),
    ));
    assert_eq!(fast.outcome, JobOutcome::Halted, "{:?}", fast.outcome);
    assert!(
        fast.fault_stats.as_ref().unwrap().total() > 0,
        "plan never fired — test is vacuous"
    );
    assert_equivalent(&fast, &seed);
}

#[test]
fn sa1100_fast_equals_seed_on_random_programs_with_faults() {
    for seed_val in 0..4u64 {
        let mut job = faulted(
            ModelKind::Sa1100,
            WorkloadSpec::Random { block_len: 200 },
            FaultPlan::new(seed_val ^ 0xABCD).deny_allocate(0.03),
        );
        job.seed = seed_val;
        job.name = format!("{}#{seed_val}", job.name);
        let (fast, seed) = both_modes(job);
        assert_equivalent(&fast, &seed);
    }
}

#[test]
fn ppc750_fast_equals_seed_with_denied_inquiries() {
    let (fast, seed) = both_modes(faulted(
        ModelKind::Ppc750,
        WorkloadSpec::Named("specint".into()),
        FaultPlan::new(0xBEEF).deny_inquire(0.02).deny_allocate(0.01),
    ));
    assert_eq!(fast.outcome, JobOutcome::Halted, "{:?}", fast.outcome);
    assert!(
        fast.fault_stats.as_ref().unwrap().total() > 0,
        "plan never fired — test is vacuous"
    );
    assert_equivalent(&fast, &seed);
}

#[test]
fn ppc750_fast_equals_seed_on_random_programs_with_faults() {
    for seed_val in 0..4u64 {
        let mut job = faulted(
            ModelKind::Ppc750,
            WorkloadSpec::Random { block_len: 200 },
            FaultPlan::new(seed_val ^ 0x750).deny_inquire(0.03),
        );
        job.seed = seed_val;
        job.name = format!("{}#{seed_val}", job.name);
        let (fast, seed) = both_modes(job);
        assert_equivalent(&fast, &seed);
    }
}

#[test]
fn vliw_fast_equals_seed_with_faults() {
    let (fast, seed) = both_modes(faulted(
        ModelKind::Vliw,
        WorkloadSpec::Ilp { iters: 400, body: 6 },
        FaultPlan::new(0x7117).deny_allocate(0.02),
    ));
    assert_eq!(fast.outcome, JobOutcome::Halted, "{:?}", fast.outcome);
    assert!(
        fast.fault_stats.as_ref().unwrap().total() > 0,
        "plan never fired — test is vacuous"
    );
    assert_equivalent(&fast, &seed);
}

#[test]
fn modes_agree_even_under_aggressive_blackhole_faults() {
    // A blackhole window plus token drops may well wedge or kill the run;
    // the contract is only that BOTH modes experience the identical outcome.
    for (model, workload) in [
        (ModelKind::Sa1100, WorkloadSpec::Named("specint".into())),
        (ModelKind::Ppc750, WorkloadSpec::Named("specint".into())),
        (ModelKind::Vliw, WorkloadSpec::Ilp { iters: 300, body: 4 }),
    ] {
        let job = faulted(
            model,
            workload,
            FaultPlan::new(0x0B5C).deny_allocate(0.05).blackhole(500, 900),
        );
        let (fast, seed) = both_modes(job);
        assert_equivalent(&fast, &seed);
    }
}

#[test]
fn fault_free_runs_also_agree_across_modes() {
    // Control: without faults the equivalence must hold too (guards against
    // the injector's always-dirty clock being what masks a scheduler bug).
    for (model, workload) in [
        (ModelKind::Sa1100, WorkloadSpec::Named("specint".into())),
        (ModelKind::Ppc750, WorkloadSpec::Named("specint".into())),
        (ModelKind::Vliw, WorkloadSpec::Ilp { iters: 400, body: 6 }),
    ] {
        let (fast, seed) = both_modes(SimJob::new(model, workload, MAX));
        assert_eq!(fast.outcome, JobOutcome::Halted, "{:?}", fast.outcome);
        assert_equivalent(&fast, &seed);
    }
}

/// Bytes walked by the memory-bound programs: 8x the 16 KiB D-cache, so
/// most cycles stall under release denial and the hardware layers' clock
/// hooks re-assert unchanged block flags — the path where the fast
/// scheduler skips the most.
const WALK_BYTES: u32 = 128 * 1024;
const WALK_STRIDE: u32 = 256;

/// Runs `run` under both scheduler modes and asserts equal results (cycles,
/// retired counts, exit codes) and equal trace digests.
fn assert_modes_agree<R: PartialEq + std::fmt::Debug>(
    name: &str,
    run: impl Fn(SchedulerMode) -> (R, u64),
) {
    let (fast, fast_digest) = run(SchedulerMode::Fast);
    let (seed, seed_digest) = run(SchedulerMode::Seed);
    assert_eq!(fast, seed, "{name}: results differ");
    assert_eq!(fast_digest, seed_digest, "{name}: trace digests differ");
}

/// Puts `machine` under `mode` with a digest-only trace attached.
fn traced<S: 'static>(machine: &mut Machine<S>, mode: SchedulerMode) {
    machine.set_scheduler_mode(mode);
    machine.enable_trace_with(Trace::digest_only());
}

fn digest<S: 'static>(machine: &mut Machine<S>) -> u64 {
    machine.take_trace().expect("trace on").digest()
}

/// The strided walk as two-slot VLIW bundles (the VLIW model runs bundled
/// IR, not MiniRISC assembly).
fn vliw_walk() -> VliwProgram {
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
    let add = |rd: u8, rs1: u8, rs2: u8| Instr::Alu {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        rs2: Reg(rs2),
    };
    let bne = |rs1: u8| Instr::Branch {
        cond: BranchCond::Ne,
        rs1: Reg(rs1),
        rs2: Reg(0),
        offset: 0,
    };
    let mut ir = VliwIr::new();
    ir.push(addi(1, 0, 2));
    ir.push(addi(5, 0, WALK_STRIDE as i32));
    let pass = ir.push(addi(2, 0, VLIW_DATA_BASE as i32));
    ir.push(addi(3, 0, (WALK_BYTES / WALK_STRIDE) as i32));
    let walk = ir.push(Instr::Load {
        width: MemWidth::Word,
        unsigned: false,
        rd: Reg(4),
        rs1: Reg(2),
        offset: 0,
    });
    ir.push(add(20, 20, 4));
    ir.push(addi(20, 20, 1));
    ir.push(Instr::Store {
        width: MemWidth::Word,
        rs2: Reg(20),
        rs1: Reg(2),
        offset: 0,
    });
    ir.push(add(2, 2, 5));
    ir.push(addi(3, 3, -1));
    ir.branch(bne(3), walk);
    ir.push(addi(1, 1, -1));
    ir.branch(bne(1), pass);
    ir.push(addi(11, 20, 0));
    ir.push(addi(10, 0, 0));
    ir.push(Instr::Syscall);
    schedule(&ir, vec![0; (WALK_BYTES / 4) as usize])
}

#[test]
fn memory_bound_runs_agree_across_modes_on_every_model() {
    let walk = strided_walk(WALK_BYTES, WALK_STRIDE, 2).program();
    assert_modes_agree("sa1100", |mode| {
        let mut sim = SaOsmSim::new(SaConfig::paper(), &walk);
        traced(sim.machine_mut(), mode);
        let result = sim.run_to_halt(MAX).expect("runs");
        assert!(result.dcache_misses > 500, "walk should miss: {result:?}");
        (result, digest(sim.machine_mut()))
    });
    assert_modes_agree("sa1100-smt", |mode| {
        let mut sim = SmtSim::new(SaConfig::paper(), [&walk, &walk]);
        traced(sim.machine_mut(), mode);
        let result = sim.run_to_halt(MAX).expect("runs");
        (result, digest(sim.machine_mut()))
    });
    assert_modes_agree("ppc750", |mode| {
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &walk);
        traced(sim.machine_mut(), mode);
        let result = sim.run_to_halt(MAX).expect("runs");
        (result, digest(sim.machine_mut()))
    });
    let vwalk = vliw_walk();
    assert_modes_agree("vliw", |mode| {
        let mut sim = VliwSim::new(VliwConfig::default(), &vwalk);
        traced(sim.machine_mut(), mode);
        let result = sim.run_to_halt(MAX).expect("runs");
        assert_eq!(result.exit_code, interpret(&vwalk, MAX).exit_code);
        (result, digest(sim.machine_mut()))
    });
}
