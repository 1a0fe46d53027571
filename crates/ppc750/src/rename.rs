//! Register renaming and result-broadcast token managers.
//!
//! The PPC 750 keeps architectural register files plus rename buffers; the
//! paper models them as TMI-enabled modules (§5.2). Two managers cooperate:
//!
//! * [`RenameFile`] — the rename map. Each architectural register carries a
//!   stack of in-flight writes (bounded by the rename-buffer counting
//!   pools). Dispatch-time *value inquiries* succeed when the newest write
//!   is complete (result sits in a rename buffer) or no write is in flight.
//! * [`ResultBus`] — completion broadcasting by *operation sequence number*.
//!   An operation parked in a reservation station captured the sequence
//!   numbers of its unready producers at dispatch; its issue edge inquires
//!   this manager until those producers have broadcast.

use osm_core::{ByteReader, ByteWriter, OsmId, Token, TokenIdent, TokenManager};
use std::any::Any;
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// Kind byte of a [`RenameFile`] checkpoint section (rename **m**ap).
const KIND_RENAME_FILE: u8 = b'M';
/// Kind byte of a [`ResultBus`] checkpoint section.
const KIND_RESULT_BUS: u8 = b'B';

/// One in-flight write to an architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteEntry {
    osm: OsmId,
    seq: u64,
    ready: bool,
}

/// The rename map manager.
#[derive(Debug)]
pub struct RenameFile {
    name: String,
    writes: Vec<VecDeque<WriteEntry>>,
}

impl RenameFile {
    /// Creates a rename map over `nregs` (flat-indexed) registers.
    pub fn new(name: impl Into<String>, nregs: usize) -> Self {
        RenameFile {
            name: name.into(),
            writes: (0..nregs).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Value-token identifier of register `r` (for dispatch inquiries).
    pub fn value_ident(r: usize) -> TokenIdent {
        TokenIdent(r as u64)
    }

    /// Records a new in-flight write at dispatch (program order).
    pub fn begin_write(&mut self, r: usize, osm: OsmId, seq: u64) {
        self.writes[r].push_back(WriteEntry {
            osm,
            seq,
            ready: false,
        });
    }

    /// Marks the in-flight write `seq` to `r` complete (result available in
    /// a rename buffer and on the bypass).
    pub fn complete_write(&mut self, r: usize, seq: u64) {
        if let Some(e) = self.writes[r].iter_mut().find(|e| e.seq == seq) {
            e.ready = true;
        }
    }

    /// Retires the *oldest* in-flight write (result moves to the
    /// architectural file, the rename buffer frees).
    pub fn retire_write(&mut self, r: usize, seq: u64) {
        debug_assert_eq!(self.writes[r].front().map(|e| e.seq), Some(seq));
        self.writes[r].pop_front();
    }

    /// Removes a squashed (wrong-path) write.
    pub fn abort_write(&mut self, r: usize, seq: u64) {
        self.writes[r].retain(|e| e.seq != seq);
    }

    /// The newest unready producer of `r`, if any — what a dispatching
    /// consumer must wait for.
    pub fn pending_producer(&self, r: usize) -> Option<u64> {
        self.writes[r].back().filter(|e| !e.ready).map(|e| e.seq)
    }

    /// Number of in-flight writes to `r`.
    pub fn depth(&self, r: usize) -> usize {
        self.writes[r].len()
    }
}

impl TokenManager for RenameFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare_allocate(&mut self, _osm: OsmId, _ident: TokenIdent) -> Option<Token> {
        None // rename buffer capacity is modeled by counting pools
    }

    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool {
        let r = ident.0 as usize;
        match self.writes.get(r).and_then(|w| w.back()) {
            None => true,
            Some(e) => e.ready || e.osm == osm,
        }
    }

    fn prepare_release(&mut self, _osm: OsmId, _token: Token) -> bool {
        false
    }

    fn commit_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn commit_release(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_release(&mut self, _osm: OsmId, _token: Token) {}
    fn discard(&mut self, _osm: OsmId, _token: Token) {}

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        self.writes
            .get(ident.0 as usize)
            .and_then(|w| w.back())
            .map(|e| e.osm)
    }

    fn save(&self, w: &mut ByteWriter) -> bool {
        w.put_u8(KIND_RENAME_FILE);
        w.put_u32(self.writes.len() as u32);
        for stack in &self.writes {
            w.put_u32(stack.len() as u32);
            for e in stack {
                w.put_u32(e.osm.0);
                w.put_u64(e.seq);
                w.put_bool(e.ready);
            }
        }
        true
    }

    fn load(&mut self, r: &mut ByteReader<'_>) -> Option<()> {
        if r.take_u8()? != KIND_RENAME_FILE {
            return None;
        }
        let nregs = r.take_u32()? as usize;
        let mut writes = Vec::with_capacity(nregs.min(1 << 20));
        for _ in 0..nregs {
            let depth = r.take_u32()? as usize;
            let mut stack = VecDeque::with_capacity(depth.min(1 << 20));
            for _ in 0..depth {
                let osm = OsmId(r.take_u32()?);
                let seq = r.take_u64()?;
                let ready = r.take_bool()?;
                stack.push_back(WriteEntry { osm, seq, ready });
            }
            writes.push(stack);
        }
        if writes.len() != self.writes.len() {
            return None;
        }
        self.writes = writes;
        Some(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The completion/result-broadcast manager.
#[derive(Debug)]
pub struct ResultBus {
    name: String,
    /// All sequence numbers below this are architecturally complete.
    floor: u64,
    done: BTreeSet<u64>,
}

impl ResultBus {
    /// Creates an empty bus.
    pub fn new(name: impl Into<String>) -> Self {
        ResultBus {
            name: name.into(),
            floor: 0,
            done: BTreeSet::new(),
        }
    }

    /// Identifier for waiting on producer `seq`.
    pub fn seq_ident(seq: u64) -> TokenIdent {
        TokenIdent(seq)
    }

    /// Broadcasts completion of `seq`.
    pub fn complete(&mut self, seq: u64) {
        self.done.insert(seq);
    }

    /// Raises the floor after in-order retirement up to (excluding) `seq`.
    pub fn retire_up_to(&mut self, seq: u64) {
        self.floor = self.floor.max(seq);
        let keep = self.done.split_off(&seq);
        self.done = keep;
    }

    /// Drops broadcasts above `seq` (squash: their numbers will be reused).
    pub fn squash_above(&mut self, seq: u64) {
        self.done = self.done.iter().copied().filter(|&s| s <= seq).collect();
    }

    /// True if `seq`'s result is available.
    pub fn is_done(&self, seq: u64) -> bool {
        seq < self.floor || self.done.contains(&seq)
    }
}

impl TokenManager for ResultBus {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare_allocate(&mut self, _osm: OsmId, _ident: TokenIdent) -> Option<Token> {
        None
    }

    fn inquire(&self, _osm: OsmId, ident: TokenIdent) -> bool {
        self.is_done(ident.0)
    }

    fn prepare_release(&mut self, _osm: OsmId, _token: Token) -> bool {
        false
    }

    fn commit_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn commit_release(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_release(&mut self, _osm: OsmId, _token: Token) {}
    fn discard(&mut self, _osm: OsmId, _token: Token) {}

    fn save(&self, w: &mut ByteWriter) -> bool {
        w.put_u8(KIND_RESULT_BUS);
        w.put_u64(self.floor);
        w.put_u32(self.done.len() as u32);
        for &seq in &self.done {
            w.put_u64(seq);
        }
        true
    }

    fn load(&mut self, r: &mut ByteReader<'_>) -> Option<()> {
        if r.take_u8()? != KIND_RESULT_BUS {
            return None;
        }
        let floor = r.take_u64()?;
        let n = r.take_u32()?;
        let mut done = BTreeSet::new();
        for _ in 0..n {
            done.insert(r.take_u64()?);
        }
        self.floor = floor;
        self.done = done;
        Some(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checkpoint section `m` saves.
    fn saved(m: &impl TokenManager) -> Vec<u8> {
        let mut w = ByteWriter::new();
        assert!(m.save(&mut w));
        w.into_bytes()
    }

    /// Loads `section` the way the machine does: accepted and read whole.
    fn loads(m: &mut impl TokenManager, section: &[u8]) -> bool {
        let mut r = ByteReader::new(section);
        m.load(&mut r).is_some() && r.is_done()
    }

    #[test]
    fn rename_stack_tracks_newest_writer() {
        let mut rf = RenameFile::new("gpr", 8);
        assert!(rf.inquire(OsmId(9), RenameFile::value_ident(3)));
        rf.begin_write(3, OsmId(1), 10);
        assert!(!rf.inquire(OsmId(9), RenameFile::value_ident(3)));
        assert_eq!(rf.pending_producer(3), Some(10));
        // A second (newer) writer renames over it.
        rf.begin_write(3, OsmId(2), 11);
        assert_eq!(rf.pending_producer(3), Some(11));
        rf.complete_write(3, 11);
        assert!(rf.inquire(OsmId(9), RenameFile::value_ident(3)));
        assert_eq!(rf.pending_producer(3), None);
        // In-order retirement pops the oldest.
        rf.retire_write(3, 10);
        assert_eq!(rf.depth(3), 1);
        rf.retire_write(3, 11);
        assert_eq!(rf.depth(3), 0);
    }

    #[test]
    fn rename_own_write_does_not_block_self() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(2, OsmId(5), 1);
        assert!(rf.inquire(OsmId(5), RenameFile::value_ident(2)));
        assert!(!rf.inquire(OsmId(6), RenameFile::value_ident(2)));
    }

    #[test]
    fn rename_abort_removes_phantom_write() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(1, OsmId(1), 5);
        rf.begin_write(1, OsmId(2), 6); // phantom
        rf.abort_write(1, 6);
        assert_eq!(rf.pending_producer(1), Some(5));
        rf.complete_write(1, 5);
        assert!(rf.inquire(OsmId(9), RenameFile::value_ident(1)));
    }

    #[test]
    fn result_bus_floor_and_broadcasts() {
        let mut bus = ResultBus::new("bus");
        assert!(!bus.is_done(4));
        bus.complete(4);
        assert!(bus.is_done(4));
        bus.retire_up_to(5);
        assert!(bus.is_done(4)); // below floor
        assert!(!bus.is_done(6));
        bus.complete(7);
        bus.squash_above(6);
        assert!(!bus.is_done(7));
    }

    #[test]
    fn result_bus_inquire_matches_is_done() {
        let mut bus = ResultBus::new("bus");
        bus.complete(3);
        assert!(bus.inquire(OsmId(0), ResultBus::seq_ident(3)));
        assert!(!bus.inquire(OsmId(0), ResultBus::seq_ident(9)));
    }

    #[test]
    fn rename_save_load_rewinds() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(3, OsmId(1), 10);
        rf.begin_write(3, OsmId(2), 11);
        rf.complete_write(3, 11);
        let section = saved(&rf);
        rf.retire_write(3, 10);
        rf.abort_write(3, 11);
        assert_eq!(rf.depth(3), 0);
        assert!(loads(&mut rf, &section));
        assert_eq!(rf.depth(3), 2);
        assert_eq!(rf.pending_producer(3), None); // 11 was complete
        // Wrong register count is refused.
        let mut other = RenameFile::new("gpr", 4);
        assert!(!loads(&mut other, &section));
    }

    #[test]
    fn rename_byte_codec_roundtrip() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(3, OsmId(1), 10);
        rf.begin_write(3, OsmId(2), 11);
        rf.complete_write(3, 11);
        rf.begin_write(5, OsmId(4), 12);
        let bytes = saved(&rf);
        let mut fresh = RenameFile::new("gpr", 8);
        assert!(loads(&mut fresh, &bytes));
        assert_eq!(fresh.depth(3), 2);
        assert_eq!(fresh.depth(5), 1);
        assert_eq!(fresh.pending_producer(3), None); // 11 was complete
        assert_eq!(fresh.pending_producer(5), Some(12));
        // Truncation and a wrong kind byte are rejected.
        assert!(!loads(&mut fresh, &bytes[..bytes.len() - 1]));
        let mut wrong = bytes.clone();
        wrong[0] = KIND_RESULT_BUS;
        assert!(!loads(&mut fresh, &wrong));
    }

    #[test]
    fn result_bus_byte_codec_roundtrip() {
        let mut bus = ResultBus::new("bus");
        bus.complete(4);
        bus.complete(9);
        bus.retire_up_to(3);
        let bytes = saved(&bus);
        let mut fresh = ResultBus::new("bus");
        assert!(loads(&mut fresh, &bytes));
        assert!(fresh.is_done(2)); // below floor
        assert!(fresh.is_done(4));
        assert!(fresh.is_done(9));
        assert!(!fresh.is_done(7));
        assert!(!loads(&mut fresh, &bytes[..bytes.len() - 1]));
    }

    #[test]
    fn result_bus_save_load_rewinds() {
        let mut bus = ResultBus::new("bus");
        bus.complete(4);
        bus.retire_up_to(3);
        let section = saved(&bus);
        bus.complete(7);
        bus.retire_up_to(8);
        assert!(loads(&mut bus, &section));
        assert!(bus.is_done(2)); // below restored floor
        assert!(bus.is_done(4));
        assert!(!bus.is_done(7));
        // Another manager kind's section is refused.
        assert!(!loads(&mut bus, &saved(&RenameFile::new("gpr", 8))));
    }
}
