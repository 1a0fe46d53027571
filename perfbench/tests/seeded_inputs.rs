//! The generated inputs are a pure function of the seed.

use perfbench::inputs;

const SEEDS: [u64; 3] = [1, 2, 0xDEAD_BEEF];

fn dense_text(seed: u64) -> String {
    let d = inputs::dense(seed);
    let mut out: Vec<String> = d
        .programs
        .iter()
        .map(|w| format!("{}\n{}", w.name, w.asm))
        .collect();
    out.push(format!("{:?}", d.ilp));
    out.join("\n")
}

fn memory_text(seed: u64) -> String {
    inputs::memory(seed)
        .iter()
        .map(|m| {
            format!(
                "{} {} {}\n{}",
                m.workload.name, m.footprint, m.stride, m.workload.asm
            )
        })
        .collect()
}

fn wide_text(seed: u64) -> String {
    inputs::wide(seed)
        .iter()
        .map(|w| format!("{} {} {} {:?}\n{}", w.name, w.osms, w.steps, w.policy, w.source))
        .collect()
}

fn farm_text(seed: u64) -> String {
    let f = inputs::farm(seed);
    format!("{}\n{:?}", f.manifest, f.adl)
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for seed in SEEDS {
        assert_eq!(dense_text(seed), dense_text(seed));
        assert_eq!(memory_text(seed), memory_text(seed));
        assert_eq!(wide_text(seed), wide_text(seed));
        assert_eq!(farm_text(seed), farm_text(seed));
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for pair in SEEDS.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert_ne!(dense_text(a), dense_text(b));
        assert_ne!(memory_text(a), memory_text(b));
        assert_ne!(wide_text(a), wide_text(b));
        assert_ne!(farm_text(a), farm_text(b));
    }
}

#[test]
fn inputs_keep_their_bands() {
    for seed in SEEDS {
        let d = inputs::dense(seed);
        assert_eq!(d.programs.len(), 7);
        let mem = inputs::memory(seed);
        assert_eq!(mem.len(), 10);
        for m in &mem {
            assert!(
                (32 << 10..=1 << 20).contains(&m.footprint),
                "{} footprint {}",
                m.workload.name,
                m.footprint
            );
        }
        let wide = inputs::wide(seed);
        assert_eq!(wide.len(), 40);
        assert!(wide.iter().all(|w| (16..=384).contains(&w.osms)));
        let restart = wide
            .iter()
            .filter(|w| w.policy == osm_core::RestartPolicy::Restart)
            .count();
        assert_eq!(restart, 8);
        let farm = inputs::farm(seed);
        let manifest = simfarm::parse_manifest(&farm.manifest).expect("generated manifests parse");
        assert_eq!(
            manifest.jobs.len(),
            inputs::FARM_RANDOM_JOBS + 2 * inputs::FARM_SPECINT_JOBS
        );
        assert_eq!(farm.adl.len(), inputs::FARM_ADL_JOBS);
    }
}

#[test]
fn generated_programs_assemble() {
    for w in inputs::dense(7).programs {
        let _ = w.program();
    }
    for m in inputs::memory(7) {
        let _ = m.workload.program();
    }
    for w in inputs::wide(7) {
        osm_adl::load(&w.source).expect("wide sources load");
    }
}
