//! Golden test pinning the farm's canonical output.
//!
//! A fixed sweep covers all five model kinds plus the unhealthy paths the
//! job driver has to keep byte-stable: watchdog stalls that fire after
//! several completed run slices, a scheduling deadlock on a synthesized
//! machine, an unknown workload, a panicking job quarantined after its
//! retries, a fault-injected job with observability on, and jobs whose
//! checkpoint cadence is finer than the driver's default slice. No job
//! carries a wall deadline, so the rendering is a pure function of the job
//! list.
//!
//! Regenerate (only when the change is intentional) with
//! `BLESS=1 cargo test --test farm_golden`

use osm_repro::osm_core::FaultPlan;
use osm_repro::simfarm::{run_farm, FarmOptions, FarmReport, ModelKind, SimJob, WorkloadSpec};

/// Compares `actual` against `tests/golden/<name>`, or rewrites it when the
/// `BLESS` environment variable is set.
fn assert_golden(actual: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS=1", name));
    assert_eq!(actual, golden, "{name} drifted; re-bless if intentional");
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

/// Two pairs of classes taking two exclusive tokens in opposite orders: the
/// machine deadlocks on its first idle step.
const CROSSED_LOCKS: &str = "machine crossed {
    manager a : exclusive(1);
    manager b : exclusive(1);
    manager c : exclusive(1);
    manager d : exclusive(1);
    osm ab {
        states I, H, W;
        initial I;
        edge first : I -> H { allocate a[0]; }
        edge second : H -> W { allocate b[0]; }
        edge done : W -> I { release a[held]; release b[held]; }
    }
    osm ba {
        states I, H, W;
        initial I;
        edge first : I -> H { allocate b[0]; }
        edge second : H -> W { allocate a[0]; }
        edge done : W -> I { release b[held]; release a[held]; }
    }
    osm cd {
        states I, H, W;
        initial I;
        edge first : I -> H { allocate c[0]; }
        edge second : H -> W { allocate d[0]; }
        edge done : W -> I { release c[held]; release d[held]; }
    }
    osm dc {
        states I, H, W;
        initial I;
        edge first : I -> H { allocate d[0]; }
        edge second : H -> W { allocate c[0]; }
        edge done : W -> I { release d[held]; release c[held]; }
    }
}
";

fn named(model: ModelKind, workload: &str, max_cycles: u64) -> SimJob {
    SimJob::new(model, WorkloadSpec::Named(workload.into()), max_cycles)
}

fn ilp(iters: i32, body: usize, max_cycles: u64) -> SimJob {
    SimJob::new(
        ModelKind::Vliw,
        WorkloadSpec::Ilp { iters, body },
        max_cycles,
    )
}

/// A stall that fires several slices into the run: the fetch-side manager
/// is blackholed from `from` on, so the watchdog trips `budget` cycles
/// later, after some slices have completed.
fn stalled(mut job: SimJob, from: u64, budget: u64) -> SimJob {
    job.stall_budget = Some(budget);
    job.faults = Some(FaultPlan::new(1).blackhole(from, u64::MAX));
    job.retries = 0;
    job
}

fn checkpointed(mut job: SimJob, every: u64) -> SimJob {
    job.checkpoint_every = every;
    job
}

fn canonical_sweep() -> Vec<SimJob> {
    let mut jobs = vec![
        // One healthy job per model kind.
        named(ModelKind::Sa1100, "specint", 12_000),
        named(ModelKind::Ppc750, "gsm/dec", 12_000),
        SimJob::minirisc_random(3, 48, 20_000),
        ilp(150, 6, 50_000),
        SimJob::adl("golden/adl-pipe", ADL_PIPE, 4, 600),
        // Watchdog stalls after completed slices (SA-1100, PPC-750, VLIW).
        stalled(named(ModelKind::Sa1100, "specint", 200_000), 5_000, 400),
        stalled(named(ModelKind::Ppc750, "specint", 200_000), 3_000, 400),
        stalled(ilp(100_000, 4, 200_000), 4_500, 400),
    ];
    // A synthesized machine that deadlocks on its first idle step.
    let mut crossed = SimJob::adl("golden/crossed4", CROSSED_LOCKS, 4, 1_000);
    crossed.retries = 0;
    jobs.push(crossed);
    // An unknown workload: Failed on every attempt, then quarantined.
    jobs.push(named(ModelKind::Sa1100, "no-such-workload", 1_000));
    // A panicking job quarantined after its retries.
    let mut chaos = SimJob::chaos_panic("golden/chaos");
    chaos.retries = 2;
    jobs.push(chaos);
    // Fault injection with observability on: metrics + faults_injected.
    let mut observed = named(ModelKind::Ppc750, "specint", 10_000);
    observed.observability = true;
    observed.faults = Some(FaultPlan::new(7).deny_allocate(0.05).deny_inquire(0.02));
    jobs.push(observed);
    let mut observed_sa = named(ModelKind::Sa1100, "gsm/enc", 8_000);
    observed_sa.observability = true;
    observed_sa.faults = Some(FaultPlan::new(11).deny_allocate(0.03));
    jobs.push(observed_sa);
    // Checkpoint cadences below the default 2048-cycle slice.
    jobs.push(checkpointed(
        named(ModelKind::Sa1100, "specint", 9_000),
        700,
    ));
    jobs.push(checkpointed(
        named(ModelKind::Ppc750, "gsm/dec", 9_000),
        1_500,
    ));
    jobs.push(checkpointed(SimJob::minirisc_random(5, 40, 9_000), 1_000));
    jobs.push(checkpointed(ilp(400, 5, 9_000), 600));
    jobs.push(checkpointed(
        SimJob::adl("golden/adl-ckpt", ADL_PIPE, 3, 900),
        250,
    ));
    jobs.push(checkpointed(
        stalled(named(ModelKind::Sa1100, "specint", 200_000), 2_600, 300),
        900,
    ));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.name = format!("{}#{i}", job.name);
    }
    jobs
}

#[test]
fn farm_canonical_report_matches_golden_file() {
    let jobs = canonical_sweep();
    let dir = std::env::temp_dir().join(format!("osm_farm_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = run_farm(
        &jobs,
        2,
        FarmOptions {
            checkpoint_dir: Some(dir.clone()),
            ..FarmOptions::default()
        },
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(run.is_complete());
    let report = FarmReport::consolidate_sweep(&run, 2, 0.0);
    let mut json = report.canonical_json();
    json.push('\n');
    assert_golden(&json, "farm_canonical.json");
}
