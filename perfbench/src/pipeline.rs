//! `dense_pipeline` and `memory_bound`: MiniRISC programs through the
//! SA-1100 and PPC-750 OSM models, their hand-written baselines and the
//! ISS (plus VLIW loops on `dense_pipeline`).

use crate::measure::{median, timed, Secs, Spans};
use crate::{inputs, Ctx, Rounds};
use memsys::MemSystem;
use minirisc::{assemble, AluOp, BranchCond, Instr, Iss, Memory, Program, Reg, SparseMemory};
use osm_core::Stats;
use ppc750::{PpcConfig, PpcOsmSim, PpcPortSim};
use sa1100::{RefSim, SaConfig, SaOsmSim};
use vliw::{interpret, schedule, VliwConfig, VliwIr, VliwProgram, VliwSim};

/// Cycle budget: every generated program halts far below it.
const MAX_CYCLES: u64 = 50_000_000;

/// One assembled program with the ISS's verdict as its oracle.
struct Prepared {
    name: String,
    asm: String,
    program: Program,
    exit_code: u32,
    instrs: u64,
}

/// One VLIW loop with the functional interpreter's verdict.
struct PreparedIlp {
    name: String,
    program: VliwProgram,
    exit_code: u32,
    ops: u64,
}

/// The executors, in the order each round runs them per program.
const EXECS: [&str; 6] = [
    "sa1100",
    "sa1100.ref",
    "ppc750",
    "portsim",
    "minirisc",
    "vliw",
];
const SA_OSM: usize = 0;
const SA_REF: usize = 1;
const PPC_OSM: usize = 2;
const PPC_PORT: usize = 3;
const ISS: usize = 4;
const VLIW: usize = 5;
/// The OSM-model executors.
const OSM_EXECS: [usize; 3] = [SA_OSM, PPC_OSM, VLIW];

/// One timed run: which executor, simulated cycles (ISS: instructions),
/// cycles x OSM instances, host seconds.
#[derive(Clone, Copy)]
struct Unit {
    exec: usize,
    cycles: u64,
    osm_steps: u64,
    secs: Secs,
}

/// Per-executor sums over a set of units.
#[derive(Default, Clone, Copy)]
struct Tot {
    cycles: u64,
    osm_steps: u64,
    secs: f64,
}

impl Tot {
    fn kcps(&self) -> f64 {
        self.cycles as f64 / self.secs / 1e3
    }
}

/// Sums `(unit, seconds)` pairs by executor.
fn totals(units: &[(Unit, f64)]) -> [Tot; 6] {
    let mut t = [Tot::default(); 6];
    for &(u, secs) in units {
        let e = &mut t[u.exec];
        e.cycles += u.cycles;
        e.osm_steps += u.osm_steps;
        e.secs += secs;
    }
    t
}

/// The generic and named metrics of one set of `(unit, seconds)` pairs.
/// `sim_kcps` is the geometric mean of the OSM-model runs' rates: a
/// kernel run at twice the scale has the same rate, so the seed's scale
/// draws do not move it.
fn push_metrics(rounds: &mut Rounds, units: &[(Unit, f64)], dense: bool) {
    let t = totals(units);
    let osm = OSM_EXECS.map(|e| t[e]);
    let osm_steps: u64 = osm.iter().map(|t| t.osm_steps).sum();
    let osm_secs: f64 = osm.iter().map(|t| t.secs).sum();
    let logs: Vec<f64> = units
        .iter()
        .filter(|(u, _)| OSM_EXECS.contains(&u.exec) && u.cycles > 0)
        .map(|(u, secs)| (u.cycles as f64 / secs / 1e3).ln())
        .collect();
    rounds.push(
        "sim_kcps",
        (logs.iter().sum::<f64>() / logs.len() as f64).exp(),
    );
    rounds.push("ns_per_osm_step", osm_secs * 1e9 / osm_steps as f64);
    rounds.push("sa_osm_kcps", t[SA_OSM].kcps());
    rounds.push("sa_osm_vs_ref", t[SA_OSM].kcps() / t[SA_REF].kcps());
    rounds.push("ppc_osm_kcps", t[PPC_OSM].kcps());
    rounds.push("ppc_osm_vs_port", t[PPC_OSM].kcps() / t[PPC_PORT].kcps());
    rounds.push("ref.sa_kcps", t[SA_REF].kcps());
    rounds.push("ref.ppc_port_kcps", t[PPC_PORT].kcps());
    if dense {
        rounds.push("vliw_kcps", t[VLIW].kcps());
        rounds.push("iss_mips", t[ISS].kcps() / 1e3);
    }
}

/// Runs `dense_pipeline`.
pub fn dense(ctx: &mut Ctx) {
    let inputs = inputs::dense(ctx.seed);
    let (progs, ilps) = ctx.setup(|| {
        let progs: Vec<(String, String, Program)> = inputs
            .programs
            .iter()
            .map(|w| (w.name.clone(), w.asm.clone(), w.program()))
            .collect();
        let ilps: Vec<(String, VliwProgram)> = inputs
            .ilp
            .iter()
            .map(|&(iters, body)| (format!("ilp:{iters}:{body}"), ilp_program(iters, body)))
            .collect();
        build_sims(&progs);
        for (_, p) in &ilps {
            std::hint::black_box(VliwSim::new(VliwConfig::default(), p));
        }
        (progs, ilps)
    });
    let progs = oracle(ctx, progs);
    let ilps: Vec<PreparedIlp> = ilps
        .into_iter()
        .map(|(name, program)| {
            let golden = interpret(&program, MAX_CYCLES);
            PreparedIlp {
                name,
                exit_code: golden.exit_code,
                ops: golden.retired_ops,
                program,
            }
        })
        .collect();
    run(ctx, &progs, &ilps, SaConfig::paper(), PpcConfig::paper());
}

/// Runs `memory_bound`.
pub fn memory(ctx: &mut Ctx) {
    let inputs = inputs::memory(ctx.seed);
    let progs = ctx.setup(|| {
        let progs: Vec<(String, String, Program)> = inputs
            .iter()
            .map(|m| {
                let w = &m.workload;
                (w.name.clone(), w.asm.clone(), w.program())
            })
            .collect();
        build_sims(&progs);
        progs
    });
    let progs = oracle(ctx, progs);
    run(ctx, &progs, &[], SaConfig::paper(), PpcConfig::paper());
}

/// Builds (and drops) every simulator for every program: the model
/// construction share of set-up.
fn build_sims(progs: &[(String, String, Program)]) {
    for (_, _, p) in progs {
        std::hint::black_box(SaOsmSim::new(SaConfig::paper(), p));
        std::hint::black_box(RefSim::new(SaConfig::paper(), p));
        std::hint::black_box(PpcOsmSim::new(PpcConfig::paper(), p));
        std::hint::black_box(PpcPortSim::new(PpcConfig::paper(), p));
    }
}

/// Runs each program on the ISS once to learn its exit code.
fn oracle(ctx: &mut Ctx, progs: Vec<(String, String, Program)>) -> Vec<Prepared> {
    progs
        .into_iter()
        .map(|(name, asm, program)| {
            let mut iss = Iss::with_program(SparseMemory::new(), &program);
            let ok = iss.run(MAX_CYCLES).is_ok() && iss.halted;
            ctx.tally.check(ok, || format!("{name}: ISS did not halt"));
            Prepared {
                name,
                asm,
                exit_code: iss.exit_code,
                instrs: iss.retired,
                program,
            }
        })
        .collect()
}

/// The VLIW countdown loop: `body` independent adds per iteration, exit
/// code = the counter's final value (0).
fn ilp_program(iters: i32, body: usize) -> VliwProgram {
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
        ir.push(addi(2 + (k % 6) as u8, 0, k as i32));
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

/// One pass over every program on every executor, checking each result.
/// Returns the units in a fixed order, so rounds line up unit by unit.
fn round(
    ctx: &mut Ctx,
    spans: &mut Spans,
    progs: &[Prepared],
    ilps: &[PreparedIlp],
    sa: SaConfig,
    ppc: PpcConfig,
) -> Vec<Unit> {
    let mut units = Vec::new();
    let unit = |exec, cycles, osm_steps, secs| Unit {
        exec,
        cycles,
        osm_steps,
        secs,
    };
    for p in progs {
        let (name, want) = (&p.name, p.exit_code);
        let mut sim = SaOsmSim::new(sa, &p.program);
        let (res, dt) = spans.span(EXECS[SA_OSM], |_| {
            ctx.cal.timed(|| sim.run_to_halt(MAX_CYCLES))
        });
        let sa_osm = res.ok();
        let sa_steps = sim.machine().cycle() * sim.machine().osm_count() as u64;
        let mut sim = RefSim::new(sa, &p.program);
        let (sa_ref, dt_ref) = spans.span(EXECS[SA_REF], |_| {
            ctx.cal.timed(|| sim.run_to_halt(MAX_CYCLES))
        });
        let mut sim = PpcOsmSim::new(ppc, &p.program);
        let (res, dt_ppc) = spans.span(EXECS[PPC_OSM], |_| {
            ctx.cal.timed(|| sim.run_to_halt(MAX_CYCLES))
        });
        let ppc_osm = res.ok();
        let ppc_steps = sim.machine().cycle() * sim.machine().osm_count() as u64;
        let mut sim = PpcPortSim::new(ppc, &p.program);
        let (port, dt_port) = spans.span(EXECS[PPC_PORT], |_| {
            ctx.cal.timed(|| sim.run_to_halt(MAX_CYCLES))
        });
        let mut iss = Iss::with_program(SparseMemory::new(), &p.program);
        let (res, dt_iss) = spans.span(EXECS[ISS], |_| ctx.cal.timed(|| iss.run(MAX_CYCLES)));

        let tally = &mut ctx.tally;
        tally.check(res.is_ok() && iss.exit_code == want, || {
            format!("{name}: ISS exit changed")
        });
        tally.check(sa_ref.exit_code == want, || {
            format!(
                "{name}: SA reference exit {} != ISS {want}",
                sa_ref.exit_code
            )
        });
        tally.check(port.exit_code == want, || {
            format!("{name}: PPC port exit {} != ISS {want}", port.exit_code)
        });
        let sa_cycles = match sa_osm {
            Some(s) => {
                tally.check(s.exit_code == want, || {
                    format!("{name}: SA OSM exit {} != ISS {want}", s.exit_code)
                });
                tally.check(s.cycles == sa_ref.cycles, || {
                    format!(
                        "{name}: SA OSM {} cycles != reference {}",
                        s.cycles, sa_ref.cycles
                    )
                });
                s.cycles
            }
            None => {
                tally.check(false, || format!("{name}: SA OSM model error"));
                0
            }
        };
        let ppc_cycles = match ppc_osm {
            Some(s) => {
                tally.check(s.exit_code == want, || {
                    format!("{name}: PPC OSM exit {} != ISS {want}", s.exit_code)
                });
                tally.check(s.cycles == port.cycles, || {
                    format!(
                        "{name}: PPC OSM {} cycles != port model {}",
                        s.cycles, port.cycles
                    )
                });
                s.cycles
            }
            None => {
                tally.check(false, || format!("{name}: PPC OSM model error"));
                0
            }
        };
        units.push(unit(SA_OSM, sa_cycles, sa_steps, dt));
        units.push(unit(SA_REF, sa_ref.cycles, 0, dt_ref));
        units.push(unit(PPC_OSM, ppc_cycles, ppc_steps, dt_ppc));
        units.push(unit(PPC_PORT, port.cycles, 0, dt_port));
        units.push(unit(ISS, iss.retired, 0, dt_iss));
    }
    for l in ilps {
        let mut sim = VliwSim::new(VliwConfig::default(), &l.program);
        let (res, dt) = spans.span(EXECS[VLIW], |_| {
            ctx.cal.timed(|| sim.run_to_halt(MAX_CYCLES))
        });
        let steps = sim.machine().cycle() * sim.machine().osm_count() as u64;
        let ok = res
            .as_ref()
            .is_ok_and(|v| v.exit_code == l.exit_code && v.retired_ops == l.ops);
        ctx.tally.check(ok, || {
            format!("{}: VLIW result differs from the interpreter", l.name)
        });
        units.push(unit(VLIW, res.map_or(0, |v| v.cycles), steps, dt));
    }
    units
}

/// Measures every program on every executor. Each end-to-end figure is
/// taken from the per-unit median times over all rounds, so one noisy
/// round moves no metric; per-round figures give the quartiles printed
/// for the named metrics.
fn run(ctx: &mut Ctx, progs: &[Prepared], ilps: &[PreparedIlp], sa: SaConfig, ppc: PpcConfig) {
    let dense = !ilps.is_empty();
    let mut rounds = Rounds::default();
    let mut first: Option<Vec<Unit>> = None;
    let mut times: Vec<Vec<Secs>> = Vec::new();
    ctx.measure(|ctx, spans| {
        let units = round(ctx, spans, progs, ilps, sa, ppc);
        let timed: Vec<(Unit, f64)> = units.iter().map(|u| (*u, u.secs.norm)).collect();
        push_metrics(&mut rounds, &timed, dense);
        times.resize(units.len(), Vec::new());
        for (t, u) in times.iter_mut().zip(&units) {
            t.push(u.secs);
        }
        // Simulated cycles are deterministic: every round must repeat them.
        let first = first.get_or_insert_with(|| units.clone());
        let same = first.iter().zip(&units).all(|(a, b)| a.cycles == b.cycles);
        ctx.tally.check(same, || {
            "simulated cycles differ from the first round".to_owned()
        });
        OSM_EXECS
            .iter()
            .map(|&e| {
                units
                    .iter()
                    .filter(|u| u.exec == e)
                    .map(|u| u.secs.norm)
                    .sum::<f64>()
            })
            .sum()
    });
    let first = first.expect("at least one round");
    let median_of = |pick: fn(&Secs) -> f64| -> Vec<(Unit, f64)> {
        first
            .iter()
            .zip(&times)
            .map(|(u, t)| (*u, median(&t.iter().map(pick).collect::<Vec<_>>())))
            .collect()
    };
    let (mut overall, mut raw) = (Rounds::default(), Rounds::default());
    push_metrics(&mut overall, &median_of(|s| s.norm), dense);
    push_metrics(&mut raw, &median_of(|s| s.raw), dense);
    let mut named = vec![
        ("sa_osm_kcps", "kcyc/s"),
        ("sa_osm_vs_ref", "x"),
        ("ppc_osm_kcps", "kcyc/s"),
        ("ppc_osm_vs_port", "x"),
    ];
    if dense {
        named.extend([("vliw_kcps", "kcyc/s"), ("iss_mips", "MIPS")]);
    }
    ctx.finish_rounds(&overall, &raw, &rounds, &named);
    ctx.layer_value(
        "osm-core.ns_per_osm_step",
        raw.get("ns_per_osm_step")[0],
        "ns",
    );
    // The controls are host rates: no normalization, so host drift shows.
    ctx.layer_value("ref.sa_kcps", raw.get("ref.sa_kcps")[0], "kcyc/s");
    ctx.layer_value(
        "ref.ppc_port_kcps",
        raw.get("ref.ppc_port_kcps")[0],
        "kcyc/s",
    );

    // Input properties and per-layer counters, from one extra pass.
    let mut osm = Stats::default();
    let mut sa_stats = Stats::default();
    let mut ppc_stats = Stats::default();
    let mut kernel = portsim::KernelStats::default();
    for p in progs {
        let mut sim = SaOsmSim::new(sa, &p.program);
        let _ = sim.run_to_halt(MAX_CYCLES);
        add_stats(&mut sa_stats, &sim.machine().stats);
        ctx.line(format!(
            "program {}: {} instructions, {} SA-1100 cycles",
            p.name,
            p.instrs,
            sim.machine().cycle()
        ));
        let mut sim = PpcOsmSim::new(ppc, &p.program);
        let _ = sim.run_to_halt(MAX_CYCLES);
        add_stats(&mut ppc_stats, &sim.machine().stats);
        let mut port = PpcPortSim::new(ppc, &p.program);
        port.run_to_halt(MAX_CYCLES);
        let k = port.kernel_stats();
        kernel.cycles += k.cycles;
        kernel.delta_cycles += k.delta_cycles;
        kernel.evals += k.evals;
    }
    let mut vliw_stats = Stats::default();
    for l in ilps {
        let mut sim = VliwSim::new(VliwConfig::default(), &l.program);
        let _ = sim.run_to_halt(MAX_CYCLES);
        add_stats(&mut vliw_stats, &sim.machine().stats);
    }
    for (model, s) in [
        ("sa", &sa_stats),
        ("ppc", &ppc_stats),
        ("vliw", &vliw_stats),
    ] {
        if s.cycles > 0 {
            ctx.line(format!(
                "model {model}: evals/cycle {:.3}, useful eval ratio {:.4}, idle step share {:.4}, vetoes/cycle {:.3}",
                evals(s) as f64 / s.cycles as f64,
                s.transitions as f64 / evals(s) as f64,
                s.idle_steps as f64 / s.cycles as f64,
                s.vetoed_edges as f64 / s.cycles as f64,
            ));
            add_stats(&mut osm, s);
        }
    }
    ctx.property(
        "idle_step_share.sa",
        sa_stats.idle_steps as f64 / sa_stats.cycles as f64,
    );
    ctx.osm_counters(&osm);
    ctx.layer_value(
        "ppc750.vetoes_per_cycle",
        ppc_stats.vetoed_edges as f64 / ppc_stats.cycles as f64,
        "1/cycle",
    );
    ctx.layer_value(
        "portsim.evals_per_cycle",
        kernel.evals as f64 / kernel.cycles as f64,
        "1/cycle",
    );
    ctx.layer_value(
        "portsim.deltas_per_cycle",
        kernel.delta_cycles as f64 / kernel.cycles as f64,
        "1/cycle",
    );
    if ctx.trace {
        minirisc_layer(ctx, progs);
    }
    let (dpk, ipk) = memsys_layer(ctx, progs, sa);
    ctx.property("dmiss_per_kinstr", dpk);
    ctx.property("imiss_per_kinstr", ipk);
}

/// Adds the scheduler counters of `s` into `into`.
pub fn add_stats(into: &mut Stats, s: &Stats) {
    into.cycles += s.cycles;
    into.transitions += s.transitions;
    into.condition_failures += s.condition_failures;
    into.vetoed_edges += s.vetoed_edges;
    into.idle_steps += s.idle_steps;
    into.restarts += s.restarts;
}

/// Edge evaluations: committed, failed and vetoed.
pub fn evals(s: &Stats) -> u64 {
    s.transitions + s.condition_failures + s.vetoed_edges
}

/// `minirisc.ns_per_instr` (`Iss::run`) and `minirisc.assemble_ms`.
fn minirisc_layer(ctx: &mut Ctx, progs: &[Prepared]) {
    let mut per_instr = Vec::new();
    let mut asm_ms = Vec::new();
    for _ in 0..5 {
        let (mut instrs, mut secs, mut asm) = (0u64, 0.0, 0.0);
        for p in progs {
            let (prog, dt) = timed(|| assemble(&p.asm, 0x1000));
            asm += dt;
            let prog = prog.expect("assembled once already");
            let mut iss = Iss::with_program(SparseMemory::new(), &prog);
            let (_, dt) = timed(|| iss.run(MAX_CYCLES));
            instrs += iss.retired;
            secs += dt;
        }
        per_instr.push(secs * 1e9 / instrs as f64);
        asm_ms.push(asm * 1e3);
    }
    ctx.layer_value("minirisc.ns_per_instr", median(&per_instr), "ns");
    ctx.layer_value("minirisc.assemble_ms", median(&asm_ms), "ms");
}

/// A `Memory` that forwards to a sparse memory and logs every access,
/// flagging the first access of each instruction (its fetch).
struct Recorder {
    mem: SparseMemory,
    on: bool,
    fetch_next: bool,
    log: Vec<(u32, bool)>,
}

impl Recorder {
    fn note(&mut self, addr: u32) {
        if self.on {
            self.log.push((addr, self.fetch_next));
            self.fetch_next = false;
        }
    }
}

impl Memory for Recorder {
    fn read_u8(&mut self, addr: u32) -> u8 {
        self.note(addr);
        self.mem.read_u8(addr)
    }
    fn write_u8(&mut self, addr: u32, value: u8) {
        self.note(addr);
        self.mem.write_u8(addr, value)
    }
    fn read_u16(&mut self, addr: u32) -> u16 {
        self.note(addr);
        self.mem.read_u16(addr)
    }
    fn write_u16(&mut self, addr: u32, value: u16) {
        self.note(addr);
        self.mem.write_u16(addr, value)
    }
    fn read_u32(&mut self, addr: u32) -> u32 {
        self.note(addr);
        self.mem.read_u32(addr)
    }
    fn write_u32(&mut self, addr: u32, value: u32) {
        self.note(addr);
        self.mem.write_u32(addr, value)
    }
}

/// Records each program's fetch/data address stream under the ISS and
/// replays it through `MemSystem::fetch_penalty`/`data_penalty`.
/// Returns the D- and I-cache misses per thousand instructions.
fn memsys_layer(ctx: &mut Ctx, progs: &[Prepared], sa: SaConfig) -> (f64, f64) {
    let mut streams = Vec::new();
    for p in progs {
        let rec = Recorder {
            mem: SparseMemory::new(),
            on: false,
            fetch_next: false,
            log: Vec::new(),
        };
        let mut iss = Iss::with_program(rec, &p.program);
        iss.mem.on = true;
        while !iss.halted && iss.retired < p.instrs {
            iss.mem.fetch_next = true;
            if iss.step().is_err() {
                break;
            }
        }
        streams.push((iss.mem.log, iss.retired));
    }
    let reps = if ctx.trace { 5 } else { 1 };
    let mut ns = Vec::new();
    let (mut dmiss, mut imiss, mut instrs) = (0u64, 0u64, 0u64);
    for _ in 0..reps {
        let (mut accesses, mut secs) = (0usize, 0.0);
        dmiss = 0;
        imiss = 0;
        instrs = 0;
        for (log, retired) in &streams {
            let mut ms = MemSystem::new(sa.mem);
            let (_, dt) = timed(|| {
                let mut sum = 0u64;
                for &(addr, fetch) in log {
                    sum += u64::from(if fetch {
                        ms.fetch_penalty(addr)
                    } else {
                        ms.data_penalty(addr)
                    });
                }
                std::hint::black_box(sum)
            });
            accesses += log.len();
            secs += dt;
            dmiss += ms.dcache.stats.misses;
            imiss += ms.icache.stats.misses;
            instrs += retired;
        }
        ns.push(secs * 1e9 / accesses as f64);
    }
    let dpk = dmiss as f64 * 1e3 / instrs as f64;
    let ipk = imiss as f64 * 1e3 / instrs as f64;
    ctx.layer_value("memsys.ns_per_access", median(&ns), "ns");
    ctx.layer_value("memsys.dmiss_per_kinstr", dpk, "1/kinstr");
    ctx.layer_value("memsys.imiss_per_kinstr", ipk, "1/kinstr");
    (dpk, ipk)
}

/// Control inputs for layers a workload does not run: the SPECint mix at
/// scale 1 through the ISS, the memory-system replay, the SA reference,
/// the PPC port model and the ISS-side counters.
pub fn control_layers(ctx: &mut Ctx) {
    let w = workloads::specint_mix();
    let program = w.program();
    let mut iss = Iss::with_program(SparseMemory::new(), &program);
    let _ = iss.run(MAX_CYCLES);
    let progs = vec![Prepared {
        name: w.name.clone(),
        asm: w.asm.clone(),
        program,
        exit_code: iss.exit_code,
        instrs: iss.retired,
    }];
    let sa = SaConfig::paper();
    let ppc = PpcConfig::paper();
    let (mut sa_k, mut port_k) = (Vec::new(), Vec::new());
    let mut ppc_stats = Stats::default();
    let mut kernel = portsim::KernelStats::default();
    for _ in 0..5 {
        let mut r = RefSim::new(sa, &progs[0].program);
        let (res, dt) = timed(|| r.run_to_halt(MAX_CYCLES));
        sa_k.push(res.cycles as f64 / dt / 1e3);
        let mut p = PpcPortSim::new(ppc, &progs[0].program);
        let (res, dt) = timed(|| p.run_to_halt(MAX_CYCLES));
        port_k.push(res.cycles as f64 / dt / 1e3);
        kernel = p.kernel_stats();
    }
    let mut sim = PpcOsmSim::new(ppc, &progs[0].program);
    let _ = sim.run_to_halt(MAX_CYCLES);
    add_stats(&mut ppc_stats, &sim.machine().stats);
    ctx.layer_value("ref.sa_kcps", median(&sa_k), "kcyc/s");
    ctx.layer_value("ref.ppc_port_kcps", median(&port_k), "kcyc/s");
    ctx.layer_value(
        "ppc750.vetoes_per_cycle",
        ppc_stats.vetoed_edges as f64 / ppc_stats.cycles as f64,
        "1/cycle",
    );
    ctx.layer_value(
        "portsim.evals_per_cycle",
        kernel.evals as f64 / kernel.cycles as f64,
        "1/cycle",
    );
    ctx.layer_value(
        "portsim.deltas_per_cycle",
        kernel.delta_cycles as f64 / kernel.cycles as f64,
        "1/cycle",
    );
    minirisc_layer(ctx, &progs);
    memsys_layer(ctx, &progs, sa);
}
