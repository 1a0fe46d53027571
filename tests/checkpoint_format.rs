//! Golden test pinning the sealed `OSMCKPT1` checkpoint format.
//!
//! Each case runs a model to a fixed cycle and hashes the checkpoint bytes
//! it writes. The digests cover every section of the format: the header,
//! statistics, the model's shared hardware-layer state, every OSM with its
//! behavior section, and every token manager (core pools, the SA-1100
//! forwarding file, the PPC-750 rename buffers, a fault injector). A change
//! to any digest means checkpoint files written by an older build no longer
//! restore, so it needs a new `CHECKPOINT_VERSION`, not a new constant here.

use osm_repro::minirisc::{assemble, AluOp, BranchCond, Instr, Reg};
use osm_repro::osm_core::persist::fnv1a;
use osm_repro::osm_core::{FaultPlan, InertBehavior, Machine, CHECKPOINT_VERSION};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim};
use osm_repro::sa1100::{SaConfig, SaOsmSim};
use osm_repro::vliw::{schedule, VliwConfig, VliwIr, VliwSim};
use osm_repro::workloads::specint_mix;

const ADL_PIPE: &str = "
    machine pipe {
        manager mf : exclusive(1);
        manager mx : counting(2);
        manager rf : scoreboard(8);
        manager rs : reset;
        osm op {
            states I, F, X;
            initial I;
            edge fetch : I -> F { allocate mf[0]; }
            edge issue : F -> X { allocate mx[any]; release mf[held]; }
            edge done : X -> I { release mx[held]; }
        }
    }
";

fn sa1100(faults: bool) -> Vec<u8> {
    let mut sim = SaOsmSim::new(SaConfig::paper(), &specint_mix().program());
    if faults {
        let target = sim.ids.mf;
        sim.inject_faults(target, FaultPlan::new(0xC4E7).deny_allocate(0.05));
    }
    for _ in 0..1_000 {
        sim.step().expect("step");
    }
    sim.checkpoint_bytes().expect("checkpoint")
}

fn ppc750() -> Vec<u8> {
    let program = assemble(
        "
            li r1, 40
            li r3, 0
        loop:
            andi r2, r1, 1
            beq r2, r0, even
            addi r3, r3, 1
        even:
            addi r1, r1, -1
            bne r1, r0, loop
            li r10, 0
            add r11, r3, r0
            syscall
        ",
        0x1000,
    )
    .expect("assembles");
    let mut sim = PpcOsmSim::new(PpcConfig::paper(), &program);
    for _ in 0..60 {
        sim.machine_mut().step().expect("step");
    }
    sim.checkpoint_bytes().expect("checkpoint")
}

fn vliw() -> Vec<u8> {
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
    let mut ir = VliwIr::new();
    ir.push(addi(1, 0, 20));
    let top = ir.instrs.len();
    for k in 0..4 {
        ir.push(addi(2 + k, 0, i32::from(k)));
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
    ir.push(addi(11, 0, 1));
    ir.push(Instr::Syscall);
    let mut sim = VliwSim::new(VliwConfig::default(), &schedule(&ir, vec![]));
    for _ in 0..30 {
        sim.machine_mut().step().expect("step");
    }
    sim.checkpoint_bytes().expect("checkpoint")
}

fn adl() -> Vec<u8> {
    let synth = osm_repro::osm_adl::load(ADL_PIPE).expect("loads");
    let mut machine: Machine<()> = Machine::new(());
    synth.install_managers(&mut machine);
    let spec = synth.spec("op").expect("declared");
    for _ in 0..3 {
        machine.add_osm(spec, InertBehavior);
    }
    machine.run(7).expect("runs");
    machine.checkpoint().expect("checkpoint").into_bytes()
}

#[test]
fn checkpoint_bytes_are_pinned_per_model() {
    assert_eq!(CHECKPOINT_VERSION, 1);
    let digests = [
        ("sa1100", fnv1a(&sa1100(false))),
        ("sa1100+faults", fnv1a(&sa1100(true))),
        ("ppc750", fnv1a(&ppc750())),
        ("vliw", fnv1a(&vliw())),
        ("adl", fnv1a(&adl())),
    ];
    let want = [
        ("sa1100", 0xe91b_cef3_547a_9519),
        ("sa1100+faults", 0xac42_3165_1cf5_06aa),
        ("ppc750", 0x2376_500b_db4c_a872),
        ("vliw", 0x5588_eec6_d514_c1da),
        ("adl", 0x2269_63d4_488e_8f63),
    ];
    assert_eq!(digests, want, "checkpoint format drifted");
}
