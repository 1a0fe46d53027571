//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            --simfarm PATH --scratch DIR`
//!
//! Runs one workload for `S` seconds and prints human-readable metric
//! lines followed by one JSON result line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1 when any
//! simulated result was wrong, 2 on bad arguments.

use perfbench::{director_ring, farm, pipeline, wide, Ctx, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --simfarm PATH --scratch DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a non-negative integer");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds must be a positive number");
    };
    let trace = match value("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let (Some(simfarm), Some(scratch)) = (value("--simfarm"), value("--scratch")) else {
        return usage("--simfarm and --scratch are required");
    };
    let scratch = PathBuf::from(scratch);
    if std::fs::create_dir_all(&scratch).is_err() {
        return usage("--scratch is not a writable directory");
    }

    let mut ctx = Ctx::new(seed, seconds, trace, PathBuf::from(simfarm), scratch);
    ctx.line(format!(
        "workload {workload}, seed {seed}, {seconds} s, trace {}",
        u8::from(trace)
    ));
    match workload.as_str() {
        "dense_pipeline" => pipeline::dense(&mut ctx),
        "memory_bound" => pipeline::memory(&mut ctx),
        "wide_machine" => wide::run(&mut ctx),
        _ => farm::run(&mut ctx),
    }
    if trace {
        director_ring(&mut ctx);
        // Layers this workload does not run are measured on control inputs.
        if ctx.layers.get("ref.sa_kcps").is_none() {
            pipeline::control_layers(&mut ctx);
        }
        farm::layers(&mut ctx);
        let self_time: Vec<(&str, f64)> = ctx.self_time.iter().map(|(k, v)| (*k, *v)).collect();
        for (layer, secs) in self_time {
            ctx.line(format!("self time {layer}: {secs:.4} s"));
        }
    }
    let factor = ctx.cal.host_factor();
    ctx.line(format!(
        "host factor {factor:.4}: the calibration run took {factor:.4}x its reference time; \
         end-to-end times are scaled by the calibration run timed next to each call"
    ));

    for line in &ctx.lines {
        println!("{line}");
    }
    let shown = if trace { &ctx.layers } else { &ctx.e2e };
    for (name, value, unit) in shown.iter() {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "metric failed_share = {} share ({} of {} checks failed)",
        ctx.tally.failed_share(),
        ctx.tally.failed,
        ctx.tally.attempted
    );
    for note in &ctx.tally.notes {
        println!("FAILED: {note}");
    }
    let report = if trace {
        ctx.layers.select(&PER_LAYER)
    } else {
        ctx.e2e.select(&END_TO_END)
    };
    let wanted = if trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    if report.iter().count() != wanted {
        eprintln!("perfbench: a metric was not measured");
        return ExitCode::from(3);
    }
    println!("{}", report.json_line(&ctx.tally));
    if ctx.tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
