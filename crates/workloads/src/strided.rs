//! A memory-bound strided walk. With a footprint several times the D-cache,
//! nearly every access misses, so the pipeline spends most cycles stalled
//! under release denial (paper §4) rather than advancing.

use crate::Workload;

/// Start of the walked array, clear of the code and of the other workloads'
/// data.
const WALK_BASE: u32 = 0x0010_0000;

/// A read-modify-write walk over `footprint` bytes at `stride`-byte steps,
/// repeated `passes` times; exits with a checksum of the values read.
///
/// # Panics
/// Panics unless `stride` is nonzero and divides `footprint`, and `passes`
/// is nonzero.
pub fn strided_walk(footprint: u32, stride: u32, passes: u32) -> Workload {
    assert!(
        stride > 0 && footprint > 0 && passes > 0 && footprint.is_multiple_of(stride),
        "strided walk needs a nonzero stride dividing a nonzero footprint, and passes"
    );
    let count = footprint / stride;
    let asm = format!(
        "
        ; strided walk: {footprint} bytes at stride {stride}, {passes} passes
            li   r20, 0
            li   r1, {passes}
            li   r5, {stride}
        pass:
            li   r2, {WALK_BASE}
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
    Workload::new(format!("walk/{footprint}@{stride}x{passes}"), asm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::{Iss, SparseMemory};

    #[test]
    fn walk_halts_with_its_checksum() {
        let w = strided_walk(4096, 64, 2);
        let mut iss = Iss::with_program(SparseMemory::new(), &w.program());
        iss.run(1_000_000).expect("runs");
        assert!(iss.halted);
        // The same walk over a 64-word array.
        let mut mem = vec![0u32; 64];
        let mut sum = 0u32;
        for _ in 0..2 {
            for v in mem.iter_mut() {
                sum = sum.wrapping_add(*v).wrapping_add(1);
                *v = sum;
            }
        }
        assert_eq!(iss.exit_code, sum & 8191);
    }
}
