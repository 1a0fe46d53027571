//! Sample statistics, host-resource probes, spans and the result report.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, by the same "exclusive"
/// method as Python's `statistics.quantiles(values, n=4)`. With fewer than
/// two samples all three are the single value (or 0 when empty).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let q = |k: i64| {
                let m = n as i64 + 1;
                let j = (k * m / 4).clamp(1, n as i64 - 1);
                let delta = (k * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Value at percentile `p` (0..=100) by nearest rank (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The calibration run's time on the reference host. Normalized times
/// are scaled to a host on which one calibration run takes this long.
pub const CAL_NOMINAL_SECS: f64 = 1.0e-3;

/// Bytes per page of the control core's memory.
const CONTROL_PAGE: usize = 4096;

/// Cache geometry of the control core: 32 sets of 32 ways, 32-byte lines.
const CONTROL_SETS: usize = 32;
const CONTROL_WAYS: usize = 32;

/// Instructions in the control core's program (a loop over all of them).
const CONTROL_CODE: u32 = 512;

/// Instructions one control run executes (about 1 ms on the reference host).
const CONTROL_STEPS: u32 = 16_000;

/// The control: a tiny in-order core written here that fetches encoded
/// words from paged memory, decodes and executes them and models a
/// set-associative cache with LRU — the kind of work the simulators do,
/// in code no workspace crate shares, so no change to a measured layer
/// moves it.
struct ControlCore {
    pages: HashMap<u32, Box<[u8; CONTROL_PAGE]>>,
    tags: Vec<(u32, u64)>,
    stamp: u64,
    regs: [u32; 16],
}

impl ControlCore {
    fn new() -> ControlCore {
        let mut core = ControlCore {
            pages: HashMap::new(),
            tags: vec![(u32::MAX, 0); CONTROL_SETS * CONTROL_WAYS],
            stamp: 0,
            regs: [0; 16],
        };
        let mut x = 0x2545_F491u32;
        for k in 0..CONTROL_CODE {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            core.write(k * 4, x);
        }
        core
    }

    fn byte(&mut self, addr: u32) -> &mut u8 {
        let page = self
            .pages
            .entry(addr / CONTROL_PAGE as u32)
            .or_insert_with(|| Box::new([0; CONTROL_PAGE]));
        &mut page[addr as usize % CONTROL_PAGE]
    }

    fn read(&mut self, addr: u32) -> u32 {
        u32::from_le_bytes([0, 1, 2, 3].map(|k| *self.byte(addr + k)))
    }

    fn write(&mut self, addr: u32, value: u32) {
        for (k, b) in value.to_le_bytes().into_iter().enumerate() {
            *self.byte(addr + k as u32) = b;
        }
    }

    /// Cache access: 0 on a hit, 1 on a miss (the LRU way is refilled).
    fn access(&mut self, addr: u32) -> u32 {
        let line = addr as usize / 32;
        let (set, tag) = (line % CONTROL_SETS, (line / CONTROL_SETS) as u32);
        self.stamp += 1;
        let ways = &mut self.tags[set * CONTROL_WAYS..(set + 1) * CONTROL_WAYS];
        if let Some(w) = ways.iter_mut().find(|w| w.0 == tag) {
            w.1 = self.stamp;
            return 0;
        }
        let lru = ways.iter_mut().min_by_key(|w| w.1).expect("ways");
        *lru = (tag, self.stamp);
        1
    }

    fn run(&mut self) -> u32 {
        let (mut pc, mut misses) = (0u32, 0u32);
        for _ in 0..CONTROL_STEPS {
            misses += self.access(pc);
            let word = self.read(pc);
            pc = (pc + 4) % (CONTROL_CODE * 4);
            let (d, a, b) = (
                (word >> 4) as usize & 15,
                (word >> 8) as usize & 15,
                (word >> 12) as usize & 15,
            );
            let imm = word >> 16;
            match word & 7 {
                0 => self.regs[d] = self.regs[a].wrapping_add(self.regs[b]),
                1 => self.regs[d] = self.regs[a] ^ imm,
                2 => self.regs[d] = self.regs[a].wrapping_mul(self.regs[b] | 1),
                3 | 4 => {
                    let addr = 0x10_0000 + ((self.regs[a] ^ imm) & 0xFFFC);
                    misses += self.access(addr);
                    self.regs[d] = self.read(addr);
                }
                5 => {
                    let addr = 0x10_0000 + ((self.regs[a] ^ imm) & 0xFFFC);
                    misses += self.access(addr);
                    self.write(addr, self.regs[d]);
                }
                6 => {
                    if self.regs[a] & 1 == 0 {
                        pc = (imm & (CONTROL_CODE - 1)) * 4;
                    }
                }
                _ => self.regs[d] = self.regs[a] >> (self.regs[b] & 31),
            }
        }
        misses
    }
}

/// A host time both as measured and normalized by the control run timed
/// next to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Secs {
    /// Wall seconds as measured.
    pub raw: f64,
    /// Wall seconds scaled to the reference host.
    pub norm: f64,
}

/// A fixed control run timed next to every measured call. Its time tracks
/// how fast the shared host runs right now, so dividing a measured time by
/// it cancels host-speed drift.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Runs the control once on each of `threads` threads at the same
    /// time and returns their mean seconds. A measured call that keeps two
    /// cores busy is calibrated on two, so a neighbour taking the second
    /// core shows in the control as it does in the call.
    pub fn sample_on(&mut self, threads: usize) -> f64 {
        let run = || {
            let mut core = ControlCore::new();
            let t0 = Instant::now();
            std::hint::black_box(core.run());
            t0.elapsed().as_secs_f64()
        };
        let dt = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
            let mine = run();
            let theirs: f64 = others
                .into_iter()
                .map(|h| h.join().expect("calibration thread does not panic"))
                .sum();
            (mine + theirs) / threads.max(1) as f64
        });
        self.samples.push(dt);
        dt
    }

    /// Times `f` between two calibration samples; returns its result and
    /// its raw time and that time normalized by the samples' mean.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Secs) {
        self.timed_on(1, f)
    }

    /// [`Calibration::timed`] for a call that runs on `threads` threads.
    pub fn timed_on<T>(&mut self, threads: usize, f: impl FnOnce() -> T) -> (T, Secs) {
        let before = self.sample_on(threads);
        let (out, raw) = timed(f);
        let after = self.sample_on(threads);
        (
            out,
            Secs {
                raw,
                norm: raw * CAL_NOMINAL_SECS * 2.0 / (before + after),
            },
        )
    }

    /// Median calibration time over the reference time: above 1 when the
    /// host ran slower than the reference host.
    pub fn host_factor(&self) -> f64 {
        median(&self.samples) / CAL_NOMINAL_SECS
    }
}

/// One timed call into a layer, recorded by the traced run. `parent` is
/// the index of the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (crate) the call went into, e.g. `sa1100`.
    pub layer: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Disabled recorders store nothing, so the
/// untraced run pays only the clock reads its metrics need anyway.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span for `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time per layer in seconds: each span's duration minus the time
    /// its direct children cover, summed by layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Correctness tally: every checked operation is attempted; a mismatch or
/// an error is failed and its description kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose result was wrong or that errored.
    pub failed: u64,
    /// First few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one checked operation; `ok = false` counts a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Named metrics with units, printed one per line and as the final JSON.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Reads a metric back.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.metrics.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }

    /// Keeps only the named metrics, in a new report.
    pub fn select(&self, names: &[&str]) -> Report {
        let mut out = Report::default();
        for n in names {
            if let Some(&(v, u)) = self.metrics.get(*n) {
                out.set(*n, v, u);
            }
        }
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number: finite values in full precision, anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn control_run_is_deterministic() {
        assert_eq!(ControlCore::new().run(), ControlCore::new().run());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = s.self_seconds();
        assert!(t["inner"] >= 0.004);
        assert!(t["outer"] < t["inner"]);
    }
}
