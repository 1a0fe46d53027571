//! # workloads — benchmark programs for the OSM reproduction
//!
//! The paper evaluates on MediaBench (gsm, g721, mpeg2 encoders/decoders),
//! a SPECint 2000 mix, and "40 small kernel loops" used to diagnose timing
//! mismatches. Those binaries cannot be run on MiniRISC-32, so this crate
//! provides synthetic stand-ins with the same *instruction-class mixes*
//! (multiply-heavy filters, branchy quantizers, memory-bound transforms),
//! which is what the timing experiments actually exercise — see `DESIGN.md`
//! for the substitution argument.
//!
//! Every workload is MiniRISC assembly that ends in an exit syscall whose
//! code is a checksum, so functional correctness is checkable on every
//! simulator.
//!
//! ```
//! use minirisc::{Iss, SparseMemory};
//! use workloads::mediabench;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gsm_dec = &mediabench()[0];
//! let mut iss = Iss::with_program(SparseMemory::new(), &gsm_dec.program());
//! iss.run(10_000_000)?;
//! assert!(iss.halted);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod kernels40;
mod mediabench;
mod random;
mod specint;
mod strided;

pub use kernels40::kernels40;
pub use mediabench::{mediabench, mediabench_scaled};
pub use random::random_program;
pub use specint::{specint_mix, specint_scaled};
pub use strided::strided_walk;

use minirisc::{assemble, Program};

/// A named benchmark program in source form.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (e.g. `gsm/dec`).
    pub name: String,
    /// MiniRISC assembly source.
    pub asm: String,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, asm: impl Into<String>) -> Self {
        Workload {
            name: name.into(),
            asm: asm.into(),
        }
    }

    /// Assembles the workload at the conventional base address.
    ///
    /// # Panics
    /// Panics if the source does not assemble — workload sources are
    /// generated and must be valid by construction.
    pub fn program(&self) -> Program {
        assemble(&self.asm, 0x1000)
            .unwrap_or_else(|e| panic!("workload `{}` failed to assemble: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::{Iss, SparseMemory};

    /// Every shipped workload must assemble, run on the ISS, and halt.
    #[test]
    fn all_workloads_run_on_the_iss() {
        let mut all = mediabench();
        all.extend(kernels40());
        all.push(specint_mix());
        for w in &all {
            let p = w.program();
            let mut iss = Iss::with_program(SparseMemory::new(), &p);
            let steps = iss
                .run(20_000_000)
                .unwrap_or_else(|e| panic!("workload `{}` failed: {e}", w.name));
            assert!(steps > 0, "workload `{}` did nothing", w.name);
            assert!(iss.halted);
        }
    }

    #[test]
    fn workload_count_matches_paper() {
        assert_eq!(mediabench().len(), 6);
        assert_eq!(kernels40().len(), 40);
    }

    #[test]
    fn kernels_have_unique_names() {
        let ks = kernels40();
        let mut names: Vec<_> = ks.iter().map(|k| k.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 40);
    }
}
