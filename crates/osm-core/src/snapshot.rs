//! Checkpoints: the sealed byte format a [`crate::Machine`] is saved to and
//! restored from.
//!
//! [`crate::Machine::checkpoint`] writes the whole machine as bytes and
//! [`crate::Machine::restore`] reads them back in place; there is no other
//! representation, so an in-memory rewind and recovery from a checkpoint
//! file are the same code. Restoring is cycle-accurate: re-running from a
//! restored checkpoint reproduces the original continuation
//! transition-for-transition, because all scheduler inputs (OSM states,
//! ages, token buffers, manager state, statistics and the age counter) are
//! part of it.
//!
//! Each component encodes its own state through one `save`/`load` pair:
//! [`crate::TokenManager::save`], [`crate::Behavior::save`] and
//! [`crate::HardwareLayer::save`]. The machine frames them:
//!
//! ```text
//! checkpoint := magic "OSMCKPT1" (u32-length-prefixed)
//!             | version u32 | cycle u64 | age_counter u64
//!             | last_transition_cycle u64 | last_completion_cycle u64
//!             | stats: six u64 counters, then u32 count of (name, u64)
//!             | shared section                       (u32 length + bytes)
//!             | u32 OSM count, per OSM:
//!             |   state u32 | age u64 | tag u64 | last_move_cycle u64
//!             |   u32 count of (ident u64, manager u32, raw u64) tokens
//!             |   u32 count of slot idents u64
//!             |   behavior: 0 when it saved nothing, else 1 + section
//!             | u32 manager count, one section per manager
//!             | seal u64 (FNV-1a with `persist::TRACE_PRIME` over the rest)
//! ```

use std::fmt;

/// Magic bytes opening every serialized checkpoint.
pub const CHECKPOINT_MAGIC: &[u8] = b"OSMCKPT1";
/// Current serialized-checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A full machine checkpoint: the sealed checkpoint bytes plus the cycle
/// they were taken at.
///
/// Created by [`crate::Machine::checkpoint`]; restored (any number of
/// times) with [`crate::Machine::restore`] on [`Checkpoint::bytes`], or
/// written to disk as they are.
#[derive(Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) cycle: u64,
    pub(crate) bytes: Vec<u8>,
}

impl Checkpoint {
    /// The cycle at which this checkpoint was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The sealed checkpoint bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the checkpoint, returning its sealed bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

// Manual impl: the bytes are opaque.
impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("cycle", &self.cycle)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}
