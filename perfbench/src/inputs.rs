//! Seeded input generation for the four workloads.
//!
//! Every generator is a pure function of the benchmark seed: the same seed
//! yields byte-identical program sources, ADL sources and manifests. The
//! simulators only ever see the generated text. Properties the benchmark
//! must hold steady across seeds (footprint bands, machine widths, job
//! mix) are stratified: the seed jitters values *within* fixed bands, so
//! two seeds stress the same regimes with different concrete inputs.

use osm_core::{RestartPolicy, SchedulerMode};
use osm_fuzz::{generate, GenConfig, SplitMix64};
use workloads::{mediabench_scaled, specint_scaled, Workload};

/// Mixes a workload tag into the benchmark seed, so the four workloads
/// draw independent streams from one `--seed`.
fn stream(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Inputs of `dense_pipeline`.
#[derive(Debug, Clone)]
pub struct DenseInputs {
    /// The six MediaBench-like kernels and the SPECint mix, each at a
    /// seeded iteration scale, in seeded run order.
    pub programs: Vec<Workload>,
    /// VLIW countdown loops: `(iterations, independent ops per iteration)`.
    pub ilp: Vec<(i32, usize)>,
}

/// Draws the `dense_pipeline` inputs.
pub fn dense(seed: u64) -> DenseInputs {
    let mut rng = stream(seed, 1);
    let mut programs = Vec::new();
    for k in 0..6 {
        // Mostly scale 1 (about 0.1M cycles each); one in four doubled.
        let scale = 1 + u32::from(rng.chance(1, 4));
        programs.push(mediabench_scaled(scale).swap_remove(k));
    }
    let mut spec = specint_scaled(rng.range(4, 12) as u32);
    spec.name = "specint".to_owned();
    programs.push(spec);
    shuffle(&mut rng, &mut programs);
    let ilp = (0..3)
        .map(|k| {
            let body = [4usize, 8, 12][k] + rng.below(3) as usize;
            (rng.range(1500, 2500) as i32, body)
        })
        .collect();
    DenseInputs { programs, ilp }
}

/// Data region base of the memory-bound programs (far from the code at
/// 0x1000, so instruction and data lines never alias).
const DATA_BASE: u32 = 0x0010_0000;

/// Footprint bands in bytes: 2x, 4x, 8x, 16x and 56x-64x the 16 KiB
/// SA-1100 D-cache. The upper bands exceed the 128 KiB reach of the
/// 32-entry, 4 KiB-page TLB. Each band is narrow, since the largest
/// footprint sets the process's peak memory.
const FOOTPRINT_BANDS: [(u32, u32); 5] = [
    (32 << 10, 36 << 10),
    (64 << 10, 72 << 10),
    (128 << 10, 144 << 10),
    (256 << 10, 288 << 10),
    (896 << 10, 1024 << 10),
];

/// One memory-bound program and the properties it was drawn with.
#[derive(Debug, Clone)]
pub struct MemProgram {
    /// The program.
    pub workload: Workload,
    /// Bytes the program's data accesses span.
    pub footprint: u32,
    /// Distance between consecutive accesses in bytes.
    pub stride: u32,
}

/// Draws the `memory_bound` inputs: per footprint band one strided walk
/// and one pointer chase.
pub fn memory(seed: u64) -> Vec<MemProgram> {
    let mut rng = stream(seed, 2);
    let mut out = Vec::new();
    for (band, &(lo, hi)) in FOOTPRINT_BANDS.iter().enumerate() {
        // Footprints stay multiples of 4 KiB so strides divide them.
        let footprint = (rng.range(u64::from(lo), u64::from(hi)) as u32) & !0xFFF;
        // About 1k accesses per pass whatever the footprint: small bands
        // walk a cache-line stride, large bands a page-crossing one.
        let stride = (footprint / 1024).next_power_of_two().max(32);
        let count = footprint / stride;
        let passes = (1536 / count).max(1);
        out.push(MemProgram {
            workload: strided_walk(&format!("walk{band}"), footprint, stride, passes),
            footprint,
            stride,
        });
        let nodes = count.next_power_of_two() / 2;
        let node_stride = footprint / nodes;
        let step = 2 * rng.range(1, u64::from(nodes) / 4) as u32 + 1;
        out.push(MemProgram {
            workload: pointer_chase(&format!("chase{band}"), nodes, node_stride, step, 1536),
            footprint: nodes * node_stride,
            stride: node_stride,
        });
    }
    shuffle(&mut rng, &mut out);
    out
}

/// A strided read-modify-write walk over `footprint` bytes, `passes` times.
fn strided_walk(name: &str, footprint: u32, stride: u32, passes: u32) -> Workload {
    let count = footprint / stride;
    let asm = format!(
        "
        ; {name}: strided walk, {footprint} bytes at stride {stride}, {passes} passes
            li   r20, 0
            li   r1, {passes}
            li   r5, {stride}
        pass:
            li   r2, {DATA_BASE}
            li   r3, {count}
        walk:
            lw   r4, 0(r2)
            add  r20, r20, r4
            addi r20, r20, 1
            sw   r20, 0(r2)
            add  r2, r2, r5
            addi r3, r3, -1
            bne  r3, r0, walk
            addi r1, r1, -1
            bne  r1, r0, pass
            li   r6, 8191
            and  r11, r20, r6
            li   r10, 0
            syscall
        "
    );
    Workload::new(name, asm)
}

/// Builds a ring of `nodes` pointers (`node k -> node (k + step) mod
/// nodes`, `step` odd so the ring covers every node) then chases it for
/// `hops` dependent loads.
fn pointer_chase(name: &str, nodes: u32, stride: u32, step: u32, hops: u32) -> Workload {
    let mask = nodes - 1;
    let asm = format!(
        "
        ; {name}: pointer chase over {nodes} nodes at stride {stride}, step {step}
            li   r20, 0
            li   r2, 0
            li   r3, {nodes}
            li   r5, {stride}
            li   r6, {DATA_BASE}
            li   r10, {mask}
        build:
            addi r7, r2, {step}
            and  r7, r7, r10
            mul  r8, r7, r5
            add  r8, r8, r6
            mul  r9, r2, r5
            add  r9, r9, r6
            sw   r8, 0(r9)
            addi r2, r2, 1
            bne  r2, r3, build
            li   r1, {hops}
            add  r4, r6, r0
        chase:
            lw   r4, 0(r4)
            add  r20, r20, r4
            addi r1, r1, -1
            bne  r1, r0, chase
            li   r6, 8191
            and  r11, r20, r6
            li   r10, 0
            syscall
        "
    );
    Workload::new(name, asm)
}

/// One generated ADL machine of `wide_machine`.
#[derive(Debug, Clone, PartialEq)]
pub struct WideMachine {
    /// Label (`wide<k>-<generator seed>`).
    pub name: String,
    /// Canonical ADL source.
    pub source: String,
    /// OSM instances, spawned round-robin over the declared classes.
    pub osms: u32,
    /// Control steps to run: `WIDE_OSM_STEPS` over the width, so every
    /// machine contributes about equal work.
    pub steps: u64,
    /// The director's restart policy for this machine.
    pub policy: RestartPolicy,
}

/// OSM counts of the `NoRestart` machines, tens to hundreds; each is used
/// by two machines. The widths are fixed, so every seed's batch does the
/// same number of OSM-steps and control steps; the seed draws the
/// structures.
const WIDTHS: [u32; 16] = [
    16, 20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 224, 256, 320, 384,
];

/// OSM counts of the `Restart` machines (the director's default policy),
/// two machines each. A `Restart` director rescans its OSM list after
/// every transition, so a machine's cost grows with its width times its
/// transitions; past ~64 OSMs single machines differ ~50x in speed, which
/// no batch of this size holds steady, so this sub-batch stays narrow.
const RESTART_WIDTHS: [u32; 4] = [16, 24, 32, 48];

/// OSM-steps each wide machine runs.
const WIDE_OSM_STEPS: u64 = 153_600;

/// Edge evaluations per OSM-step bands of the `NoRestart` machines, probed
/// under the fast scheduler: consecutive machines cycle through them. How
/// often an OSM's edges are evaluated is what makes single machines differ
/// in speed, so stratifying on it keeps every seed's batch equally heavy.
const EVAL_BANDS: [(f64, f64); 4] = [(0.2, 0.6), (0.6, 0.95), (0.95, 1.3), (1.3, 2.5)];

/// The same bands for the `Restart` machines, probed under the seed
/// scheduler, which evaluates every rescanned OSM's edges and so counts
/// what the rescans cost.
const RESTART_EVAL_BANDS: [(f64, f64); 4] = [(1.0, 1.5), (1.5, 2.5), (2.5, 5.0), (5.0, 10.0)];

/// Control steps of the deterministic probe run a candidate machine gets.
const PROBE_STEPS: u64 = 400;

/// Candidates tried per slot before the one nearest the band is taken.
const PROBE_ATTEMPTS: usize = 64;

/// Generation bounds for wide machines: several pools, a few classes,
/// longer rings than the fuzzer's defaults, and no fault plans.
pub fn wide_config() -> GenConfig {
    GenConfig {
        managers: (3, 7),
        classes: (1, 3),
        states: (3, 7),
        osms: (1, 1),
        max_cycles: (40, 40),
        fault_chance: (0, 1),
    }
}

/// Probes a candidate with a short deterministic run: its edge
/// evaluations per OSM-step, or `None` when it errs or wedges (more than
/// a tenth of the probe's steps idle, so the machine stops doing work).
fn probe(source: &str, osms: u32, policy: RestartPolicy) -> Option<f64> {
    let synth = osm_adl::load(source).ok()?;
    let mode = match policy {
        RestartPolicy::Restart => SchedulerMode::Seed,
        RestartPolicy::NoRestart => SchedulerMode::Fast,
    };
    let mut m = crate::wide::build(&synth, osms, mode, policy);
    m.run(PROBE_STEPS).ok()?;
    let s = &m.stats;
    if s.idle_steps * 10 > s.cycles {
        return None;
    }
    Some(crate::pipeline::evals(s) as f64 / (PROBE_STEPS * u64::from(osms)) as f64)
}

/// Draws one machine that keeps doing work and lies in the eval band
/// `[lo, hi)`; after `PROBE_ATTEMPTS` misses, the working candidate
/// nearest the band (by ratio). Returns its generator seed and source.
fn pick(
    rng: &mut SplitMix64,
    osms: u32,
    policy: RestartPolicy,
    (lo, hi): (f64, f64),
) -> (u64, String) {
    let cfg = wide_config();
    let mut nearest: Option<(f64, u64, String)> = None;
    for attempt in 0.. {
        if attempt >= PROBE_ATTEMPTS {
            if let Some((_, gen_seed, source)) = nearest {
                return (gen_seed, source);
            }
        }
        let gen_seed = rng.next_u64();
        let case = generate(gen_seed, &cfg);
        let Some(e) = probe(&case.source, osms, policy) else {
            continue;
        };
        let miss = if e < lo {
            lo / e
        } else if e >= hi {
            e / hi
        } else {
            return (gen_seed, case.source);
        };
        if nearest.as_ref().is_none_or(|n| miss < n.0) {
            nearest = Some((miss, gen_seed, case.source));
        }
    }
    unreachable!("the candidate loop returns")
}

/// Draws the `wide_machine` batch: two `NoRestart` machines per width in
/// `WIDTHS`, then two `Restart` machines per width in `RESTART_WIDTHS`,
/// each stratified on its slot's eval band. Selection reads only
/// deterministic counts, so the batch is a pure function of the seed.
pub fn wide(seed: u64) -> Vec<WideMachine> {
    let mut rng = stream(seed, 3);
    let slots = WIDTHS
        .iter()
        .flat_map(|&w| [w, w])
        .map(|w| (w, RestartPolicy::NoRestart, &EVAL_BANDS))
        .chain(
            RESTART_WIDTHS
                .iter()
                .flat_map(|&w| [w, w])
                .map(|w| (w, RestartPolicy::Restart, &RESTART_EVAL_BANDS)),
        );
    let mut out = Vec::new();
    for (k, (osms, policy, bands)) in slots.enumerate() {
        let (gen_seed, source) = pick(&mut rng, osms, policy, bands[k % bands.len()]);
        out.push(WideMachine {
            name: format!("wide{k}-{gen_seed:016x}"),
            source,
            osms,
            steps: WIDE_OSM_STEPS / u64::from(osms),
            policy,
        });
    }
    out
}

/// The `farm_sweep` inputs: a manifest for the manifest-expressible jobs
/// and inline ADL machines, which have no manifest spelling.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmInputs {
    /// Sweep manifest (JSON text) for `simfarm::parse_manifest`.
    pub manifest: String,
    /// Small ADL machines: `(name, source, osms, cycles)`.
    pub adl: Vec<(String, String, u32, u64)>,
}

/// Random-program jobs per sweep.
pub const FARM_RANDOM_JOBS: usize = 40;
/// SPECint jobs per model (SA-1100 and PPC-750).
pub const FARM_SPECINT_JOBS: usize = 4;
/// ADL jobs per sweep.
pub const FARM_ADL_JOBS: usize = 16;

/// Draws the `farm_sweep` inputs.
pub fn farm(seed: u64) -> FarmInputs {
    let mut rng = stream(seed, 4);
    let mut jobs = Vec::new();
    for _ in 0..FARM_RANDOM_JOBS {
        jobs.push(format!(
            "    {{ \"model\": \"minirisc\", \"workload\": \"random:{}\", \"seed\": {} }}",
            rng.range(24, 40),
            rng.below(1 << 32)
        ));
    }
    for model in ["sa1100", "ppc750"] {
        for _ in 0..FARM_SPECINT_JOBS {
            jobs.push(format!(
                "    {{ \"model\": \"{model}\", \"workload\": \"specint\", \"max_cycles\": {} }}",
                rng.range(10_000, 14_000)
            ));
        }
    }
    shuffle(&mut rng, &mut jobs);
    let manifest = format!(
        "{{\n  \"workers\": 2,\n  \"defaults\": {{ \"max_cycles\": 200000, \"scheduler\": \"fast\" }},\n  \"jobs\": [\n{}\n  ]\n}}\n",
        jobs.join(",\n")
    );
    let cfg = GenConfig {
        fault_chance: (0, 1),
        ..GenConfig::default()
    };
    let adl = (0..FARM_ADL_JOBS)
        .map(|k| {
            let case = generate(rng.next_u64(), &cfg);
            let osms = rng.range(2, 8) as u32;
            let cycles = rng.range(500, 1500);
            (format!("adl{k}"), case.source, osms, cycles)
        })
        .collect();
    FarmInputs { manifest, adl }
}

/// Fisher–Yates shuffle driven by the benchmark stream.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
