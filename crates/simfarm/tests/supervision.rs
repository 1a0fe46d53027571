//! Integration tests for the supervised farm: crash isolation through the
//! public API, durable kill-and-resume byte-identity, and adversarial
//! journal corruption (truncation at every byte boundary, single bit
//! flips).

use proptest::prelude::*;
use simfarm::journal::{self, header_bytes, jobs_digest, record_bytes};
use simfarm::{
    run_farm, run_serial, FarmOptions, FarmReport, JobOutcome, JournalError, JournalWriter,
    ModelKind, SimJob, WorkloadSpec,
};
use std::path::PathBuf;

/// A small mixed sweep: three healthy ISS jobs, one panicker, one job with
/// a bad workload. Cheap enough to re-run at many resume points.
fn mixed_jobs() -> Vec<SimJob> {
    let mut jobs: Vec<SimJob> = (0..3)
        .map(|i| SimJob::minirisc_random(i, 48, 30_000))
        .collect();
    let mut chaos = SimJob::chaos_panic("it/panicker");
    chaos.retries = 0;
    jobs.insert(1, chaos);
    let mut broken = SimJob::new(
        ModelKind::Vliw,
        WorkloadSpec::Named("not-an-ilp-workload".into()),
        10_000,
    );
    broken.name = "it/misconfigured".into();
    broken.retries = 0;
    jobs.push(broken);
    jobs
}

/// The full journal a completed sweep of `jobs` would write, built
/// in-memory and deterministically (serial completion order).
fn full_journal_bytes(jobs: &[SimJob]) -> Vec<u8> {
    let mut bytes = header_bytes(jobs).unwrap();
    for (i, result) in run_serial(jobs).iter().enumerate() {
        bytes.extend_from_slice(&record_bytes(i, result).unwrap());
    }
    bytes
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "simfarm_supervision_{}_{tag}.journal",
        std::process::id()
    ))
}

#[test]
fn poison_jobs_are_contained_and_typed_through_the_public_api() {
    let jobs = mixed_jobs();
    let results = run_serial(&jobs);
    assert_eq!(results.len(), 5);
    assert!(matches!(
        &results[1].outcome,
        JobOutcome::Quarantined { attempts: 1, last }
            if matches!(last.as_ref(), JobOutcome::Panicked { payload, .. } if payload.contains("chaos:panic"))
    ));
    assert!(matches!(
        &results[4].outcome,
        JobOutcome::Quarantined { last, .. }
            if matches!(last.as_ref(), JobOutcome::Failed(_))
    ));
    for idx in [0, 2, 3] {
        assert!(results[idx].is_ok(), "job {idx}: {:?}", results[idx].outcome);
    }
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_record_boundary() {
    // Simulate a sweep killed after exactly N journal records, for every N,
    // by materializing the journal prefix on disk and resuming from it.
    // Every resumed run must produce canonical report renderings
    // byte-identical to the uninterrupted sweep's.
    let jobs = mixed_jobs();
    let uninterrupted = FarmReport::consolidate(run_serial(&jobs), 1, 0.0);
    let canon_text = uninterrupted.canonical_text();
    let canon_json = uninterrupted.canonical_json();
    assert!(canon_text.contains("quarantine: 2 job(s)"), "{canon_text}");

    let serial = run_serial(&jobs);
    let path = temp_path("boundary");
    for kept in 0..=jobs.len() {
        let mut bytes = header_bytes(&jobs).unwrap();
        for (i, result) in serial.iter().take(kept).enumerate() {
            bytes.extend_from_slice(&record_bytes(i, result).unwrap());
        }
        // A torn half-record on the end, as a kill mid-append would leave.
        if kept < jobs.len() {
            let next = record_bytes(kept, &serial[kept]).unwrap();
            bytes.extend_from_slice(&next[..next.len() / 2]);
        }
        std::fs::write(&path, &bytes).unwrap();

        let (writer, completed) = JournalWriter::resume(&path, &jobs).unwrap();
        assert_eq!(completed.len(), kept, "restored records after kill at {kept}");
        let run = run_farm(
            &jobs,
            2,
            FarmOptions {
                completed,
                journal: Some(writer),
                ..FarmOptions::default()
            },
        )
        .unwrap();
        assert!(run.is_complete());
        assert_eq!(run.restored, kept);
        let report = FarmReport::consolidate_sweep(&run, 2, 0.0);
        assert_eq!(report.canonical_text(), canon_text, "kill at {kept} records");
        assert_eq!(report.canonical_json(), canon_json, "kill at {kept} records");

        // The journal after resume is complete: replaying it restores every
        // job without running anything.
        let all = journal::read_journal(&path, &jobs).unwrap();
        assert_eq!(all.len(), jobs.len());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncation_at_every_byte_boundary_is_torn_tolerated() {
    // Cheap jobs: the journal is built once; parsing is exercised at every
    // possible truncation point. The invariant: any cut at or past the
    // header yields Ok with exactly the records that are fully contained —
    // never an error, never a phantom record.
    let jobs: Vec<SimJob> = (0..3)
        .map(|i| SimJob::minirisc_random(i, 32, 10_000))
        .collect();
    let serial = run_serial(&jobs);
    let header = header_bytes(&jobs).unwrap();
    let records: Vec<Vec<u8>> = serial
        .iter()
        .enumerate()
        .map(|(i, r)| record_bytes(i, r).unwrap())
        .collect();
    let mut bytes = header.clone();
    for r in &records {
        bytes.extend_from_slice(r);
    }
    // Record boundaries (byte offsets at which k records are complete).
    let mut boundaries = vec![header.len()];
    for r in &records {
        boundaries.push(boundaries.last().unwrap() + r.len());
    }

    for cut in 0..=bytes.len() {
        let slice = &bytes[..cut];
        if cut < header.len() {
            assert!(
                matches!(journal::parse_bytes(slice, &jobs), Err(JournalError::BadHeader { .. })),
                "cut {cut} inside the header must be rejected"
            );
            continue;
        }
        let expected = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        let (completed, valid_len) = journal::parse_bytes(slice, &jobs)
            .unwrap_or_else(|e| panic!("cut at byte {cut} rejected: {e}"));
        assert_eq!(completed.len(), expected, "cut at byte {cut}");
        assert_eq!(valid_len as usize, boundaries[expected], "cut at byte {cut}");
        // Recovered records are bit-exact.
        for (i, result) in &completed {
            assert_eq!(record_bytes(*i, result).unwrap(), records[*i], "record {i} at cut {cut}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // A single bit flip anywhere in the journal must never smuggle a
    // changed record through: parsing either fails loudly, or returns only
    // records that are bit-exact to the originals (a flip in a length
    // prefix or the torn region can shorten the valid prefix — that is the
    // torn-write tolerance — but never alter a record's content).
    #[test]
    fn single_bit_flips_never_corrupt_a_recovered_record(
        byte_index in 0usize..4096,
        bit in 0u8..8,
    ) {
        let jobs: Vec<SimJob> = (0..2)
            .map(|i| SimJob::minirisc_random(i, 32, 10_000))
            .collect();
        let serial = run_serial(&jobs);
        let header_len = header_bytes(&jobs).unwrap().len();
        let records: Vec<Vec<u8>> = serial
            .iter()
            .enumerate()
            .map(|(i, r)| record_bytes(i, r).unwrap())
            .collect();
        let mut bytes = header_bytes(&jobs).unwrap();
        for r in &records {
            bytes.extend_from_slice(r);
        }
        let idx = byte_index % bytes.len();
        bytes[idx] ^= 1 << bit;

        match journal::parse_bytes(&bytes, &jobs) {
            Err(_) => {} // loud rejection is always acceptable
            Ok((completed, _)) => {
                prop_assert!(
                    idx >= header_len,
                    "flip inside the header must not parse (byte {idx})"
                );
                for (i, result) in &completed {
                    prop_assert_eq!(
                        record_bytes(*i, result).unwrap(),
                        records[*i].clone(),
                        "bit flip at byte {} bit {} altered record {}",
                        idx, bit, i
                    );
                }
            }
        }
    }
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let jobs = mixed_jobs();
    let path = temp_path("mismatch");
    std::fs::write(&path, full_journal_bytes(&jobs)).unwrap();

    let mut other = mixed_jobs();
    other[0].seed ^= 0xDEAD;
    match JournalWriter::resume(&path, &other) {
        Err(JournalError::ManifestMismatch { journal, manifest }) => {
            assert_eq!(journal, jobs_digest(&jobs));
            assert_eq!(manifest, jobs_digest(&other));
        }
        other => panic!("expected ManifestMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn worker_count_does_not_change_the_canonical_report() {
    // Neither worker count nor farm observability may move a byte of the
    // canonical renderings: 1/2/8 workers × observer off/on all agree.
    let jobs = mixed_jobs();
    let mut renderings = Vec::new();
    for workers in [1usize, 2, 8] {
        for observed in [false, true] {
            let options = FarmOptions {
                observer: observed.then(simfarm::FarmObserver::new),
                ..FarmOptions::default()
            };
            let run = run_farm(&jobs, workers, options).unwrap();
            assert_eq!(run.schedule.is_some(), observed);
            let report = FarmReport::consolidate_sweep(&run, workers, 0.0);
            renderings.push((report.canonical_text(), report.canonical_json()));
        }
    }
    for pair in &renderings[1..] {
        assert_eq!(pair, &renderings[0]);
    }
}

/// Two classes grabbing two exclusive tokens in opposite orders, twice
/// over: with four or more OSMs the machine locks up in two disjoint
/// wait-for cycles on its first idle step.
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

#[test]
fn deadlock_reports_are_identical_across_worker_counts() {
    // The reported wait-for cycle lands in the canonical report, so it must
    // not depend on which run (or which worker) found it.
    let jobs: Vec<SimJob> = [4, 6, 8]
        .into_iter()
        .map(|osms| {
            let mut job = SimJob::adl(format!("it/crossed{osms}"), CROSSED_LOCKS, osms, 1_000);
            job.retries = 0;
            job
        })
        .collect();
    let render = |workers: usize| {
        let run = run_farm(&jobs, workers, FarmOptions::default()).unwrap();
        FarmReport::consolidate_sweep(&run, workers, 0.0).canonical_text()
    };
    let one = render(1);
    assert!(one.contains("scheduling deadlock at control step 1 involving osm0 -> osm1"), "{one}");
    for _ in 0..4 {
        assert_eq!(render(2), one);
    }
}

#[test]
fn observed_schedule_covers_every_executed_job_but_not_restored_ones() {
    // Restore the first two results from a journal-less resume, observe the
    // rest: spans exist exactly for the jobs that ran in this process.
    let jobs = mixed_jobs();
    let oracle = run_serial(&jobs);
    let completed: std::collections::BTreeMap<usize, simfarm::JobResult> =
        oracle.iter().take(2).cloned().enumerate().collect();
    let run = run_farm(
        &jobs,
        2,
        FarmOptions {
            completed,
            observer: Some(simfarm::FarmObserver::new()),
            ..FarmOptions::default()
        },
    )
    .unwrap();
    let schedule = run.schedule.as_ref().unwrap();
    assert_eq!(schedule.jobs_total, jobs.len());
    let spanned: Vec<usize> = schedule.spans.iter().map(|s| s.index).collect();
    assert_eq!(spanned, vec![2, 3, 4], "restored jobs 0/1 have no span");
    for span in &schedule.spans {
        assert!(!span.attempts.is_empty());
        assert!(span.attempts.iter().all(|a| a.end_ns >= a.start_ns));
    }
}

#[test]
fn completed_journal_resume_runs_nothing_and_reports_identically() {
    let jobs = mixed_jobs();
    let path = temp_path("complete");
    std::fs::write(&path, full_journal_bytes(&jobs)).unwrap();

    let (writer, completed) = JournalWriter::resume(&path, &jobs).unwrap();
    assert_eq!(completed.len(), jobs.len());
    let run = run_farm(
        &jobs,
        4,
        FarmOptions {
            completed,
            journal: Some(writer),
            ..FarmOptions::default()
        },
    )
    .unwrap();
    assert_eq!(run.restored, jobs.len());
    let report = FarmReport::consolidate_sweep(&run, 4, 0.0);
    let baseline = FarmReport::consolidate(run_serial(&jobs), 1, 0.0);
    assert_eq!(report.canonical_text(), baseline.canonical_text());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_example_manifest_stays_valid() {
    let manifest = simfarm::parse_manifest(include_str!("../chaos.example.json")).unwrap();
    assert_eq!(manifest.jobs.len(), 7);
    assert!(manifest
        .jobs
        .iter()
        .any(|j| matches!(j.workload, WorkloadSpec::ChaosPanic)));
    let staller = manifest
        .jobs
        .iter()
        .find(|j| j.name == "poison/staller")
        .expect("staller job present");
    assert_eq!(staller.stall_budget, Some(500));
    assert!(staller.faults.is_some());
    // The poison jobs' identity is part of the journal digest, so resuming
    // a chaos sweep against an edited manifest is rejected.
    let mut edited = manifest.jobs.clone();
    edited[3].stall_budget = Some(501);
    assert_ne!(jobs_digest(&manifest.jobs), jobs_digest(&edited));
}
