//! The machine: managers + OSMs + director configuration + shared hardware state.

use crate::director::{self, AgeRanker, Ranker, RestartPolicy, SchedulerMode, Scratch, StepOutcome};
use crate::error::{ModelError, StallKind, StallReport};
use crate::ids::{ManagerId, OsmId};
use crate::manager::{ManagerTable, TokenManager};
use crate::observe::{
    EventLog, MetricsCollector, MetricsReport, Observer, StallTracker, TraceSink,
};
use crate::osm::{Behavior, Osm};
use crate::snapshot::{Checkpoint, OsmCheckpoint};
use crate::spec::StateMachineSpec;
use crate::stats::Stats;
use crate::trace::Trace;
use std::sync::Arc;

/// The hardware layer of a processor model (paper §4).
///
/// The shared state `S` of a [`Machine`] implements this trait; its
/// [`clock`](HardwareLayer::clock) hook runs once per cycle *before* the OSM
/// control step, modeling the interval between control steps in which
/// "hardware modules communicate with one another and exchange information
/// with their TMIs". Typical work: advance cache-miss timers, unblock stage
/// releases, update branch predictors.
///
/// A hook that touches a manager every cycle should dirty it only when its
/// decisions change — via [`ManagerTable::downcast_update`] rather than
/// [`ManagerTable::downcast_mut`] — or the fast scheduler re-evaluates every
/// OSM blocked on that manager every cycle.
pub trait HardwareLayer {
    /// Advances the hardware layer by one clock, with TMI access.
    fn clock(&mut self, cycle: u64, managers: &mut ManagerTable) {
        let _ = (cycle, managers);
    }
}

impl HardwareLayer for () {}

/// A complete OSM machine model.
///
/// `S` is the model's shared hardware-layer state. A machine owns the
/// [`ManagerTable`] (hardware layer interface), all [`Osm`] instances
/// (operation layer), and the director configuration.
///
/// ```
/// use osm_core::{Machine, SpecBuilder, ExclusivePool, IdentExpr, InertBehavior};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m: Machine<()> = Machine::new(());
/// let stage = m.add_manager(ExclusivePool::new("stage", 1));
/// let mut b = SpecBuilder::new("op");
/// let i = b.state("I");
/// let s = b.state("S");
/// b.initial(i);
/// b.edge(i, s).allocate(stage, IdentExpr::Const(0));
/// b.edge(s, i).release(stage, IdentExpr::AnyHeld);
/// let spec = b.build()?;
/// let op = m.add_osm(&spec, InertBehavior);
/// m.step()?;
/// assert_eq!(m.osm(op).state_name(), "S");
/// # Ok(())
/// # }
/// ```
pub struct Machine<S> {
    /// The token managers (public for hardware-layer data access).
    pub managers: ManagerTable,
    osms: Vec<Osm<S>>,
    specs: Vec<Arc<StateMachineSpec>>,
    /// Shared hardware-layer state.
    pub shared: S,
    ranker: Box<dyn Ranker<S>>,
    age_ranking: bool,
    sched_mode: SchedulerMode,
    restart: RestartPolicy,
    deadlock_check: bool,
    cycle: u64,
    age_counter: u64,
    /// Stall watchdog bound (`None` = off); see [`Machine::set_stall_limit`].
    stall_limit: Option<u64>,
    last_transition_cycle: u64,
    last_completion_cycle: u64,
    leak_audit: bool,
    /// Scheduler statistics.
    pub stats: Stats,
    /// Installed observer sinks; empty = the zero-cost disabled path.
    observers: Vec<Box<dyn Observer>>,
    /// Machine-owned stall-cause attribution, when enabled.
    stall_tracker: Option<StallTracker>,
    scratch: Scratch,
}

impl<S: 'static> Machine<S> {
    /// Creates a machine around the given shared state, with the paper's
    /// defaults: age ranking, Fig. 3 restart semantics, deadlock detection on.
    pub fn new(shared: S) -> Self {
        Machine {
            managers: ManagerTable::new(),
            osms: Vec::new(),
            specs: Vec::new(),
            shared,
            ranker: Box::new(AgeRanker),
            age_ranking: true,
            sched_mode: SchedulerMode::default(),
            restart: RestartPolicy::Restart,
            deadlock_check: true,
            cycle: 0,
            age_counter: 0,
            stall_limit: None,
            last_transition_cycle: 0,
            last_completion_cycle: 0,
            leak_audit: true,
            stats: Stats::new(),
            observers: Vec::new(),
            stall_tracker: None,
            scratch: Scratch::default(),
        }
    }

    /// Installs a token manager.
    ///
    /// # Panics
    /// Panics if the 32-bit manager id space is exhausted; use
    /// [`Machine::try_add_manager`] to handle that as an error.
    pub fn add_manager<M: TokenManager>(&mut self, manager: M) -> ManagerId {
        match self.try_add_manager(manager) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Installs a token manager, reporting id-space exhaustion as
    /// [`ModelError::CapacityExceeded`] instead of silently truncating the
    /// id.
    ///
    /// # Errors
    /// [`ModelError::CapacityExceeded`] when no further manager id exists.
    pub fn try_add_manager<M: TokenManager>(&mut self, manager: M) -> Result<ManagerId, ModelError> {
        self.managers.try_add(manager)
    }

    /// Instantiates one OSM of class `spec` with the given behavior.
    ///
    /// # Panics
    /// Panics if the 32-bit OSM or spec id space is exhausted; use
    /// [`Machine::try_add_osm_tagged`] to handle that as an error.
    pub fn add_osm<B: Behavior<S>>(&mut self, spec: &Arc<StateMachineSpec>, behavior: B) -> OsmId {
        self.add_osm_tagged(spec, behavior, 0)
    }

    /// Instantiates one OSM with a thread tag (§6 multithreading extension).
    ///
    /// # Panics
    /// Panics if the 32-bit OSM or spec id space is exhausted; use
    /// [`Machine::try_add_osm_tagged`] to handle that as an error.
    pub fn add_osm_tagged<B: Behavior<S>>(
        &mut self,
        spec: &Arc<StateMachineSpec>,
        behavior: B,
        tag: u64,
    ) -> OsmId {
        match self.try_add_osm_tagged(spec, behavior, tag) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Instantiates one OSM with a thread tag, reporting id-space exhaustion
    /// as [`ModelError::CapacityExceeded`] instead of silently truncating
    /// the OSM or spec index (`len as u32` previously wrapped registrations
    /// past `u32::MAX` onto existing ids).
    ///
    /// # Errors
    /// [`ModelError::CapacityExceeded`] when no further OSM or spec id
    /// exists.
    pub fn try_add_osm_tagged<B: Behavior<S>>(
        &mut self,
        spec: &Arc<StateMachineSpec>,
        behavior: B,
        tag: u64,
    ) -> Result<OsmId, ModelError> {
        let id = OsmId(crate::ids::checked_id(self.osms.len(), "OSM")?);
        let spec_idx = match self.specs.iter().position(|s| Arc::ptr_eq(s, spec)) {
            Some(k) => k as u32,
            None => {
                let idx = crate::ids::checked_id(self.specs.len(), "state-machine spec")?;
                self.specs.push(spec.clone());
                idx
            }
        };
        self.osms
            .push(Osm::new(id, spec.clone(), spec_idx, tag, Box::new(behavior)));
        Ok(id)
    }

    /// Instantiates `count` OSMs of the same class, one behavior each.
    pub fn add_osm_pool<B, F>(
        &mut self,
        spec: &Arc<StateMachineSpec>,
        count: usize,
        mut factory: F,
    ) -> Vec<OsmId>
    where
        B: Behavior<S>,
        F: FnMut(usize) -> B,
    {
        (0..count).map(|k| self.add_osm(spec, factory(k))).collect()
    }

    /// Borrows an OSM.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn osm(&self, id: OsmId) -> &Osm<S> {
        &self.osms[id.index()]
    }

    /// Borrows an OSM, or `None` if `id` is out of range.
    pub fn try_osm(&self, id: OsmId) -> Option<&Osm<S>> {
        self.osms.get(id.index())
    }

    /// Number of OSM instances.
    pub fn osm_count(&self) -> usize {
        self.osms.len()
    }

    /// Iterates over all OSMs.
    pub fn osms(&self) -> impl Iterator<Item = &Osm<S>> {
        self.osms.iter()
    }

    /// Replaces the ranking policy.
    ///
    /// A non-[`AgeRanker`] policy makes the director fall back to the
    /// reference scheduler even under [`SchedulerMode::Fast`] — the fast
    /// path's incremental ready list is only sound for age ranking.
    pub fn set_ranker<R: Ranker<S>>(&mut self, ranker: R) {
        self.age_ranking = std::any::TypeId::of::<R>() == std::any::TypeId::of::<AgeRanker>();
        self.ranker = Box::new(ranker);
        self.scratch.invalidate_schedule();
    }

    /// Sets the director restart policy.
    pub fn set_restart_policy(&mut self, policy: RestartPolicy) {
        self.restart = policy;
    }

    /// The current restart policy.
    pub fn restart_policy(&self) -> RestartPolicy {
        self.restart
    }

    /// Selects the scheduling implementation (see [`SchedulerMode`]);
    /// [`SchedulerMode::Fast`] is the default.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        if self.sched_mode != mode {
            self.sched_mode = mode;
            self.scratch.invalidate_schedule();
        }
    }

    /// The current scheduling implementation.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.sched_mode
    }

    /// Enables or disables wait-for-cycle deadlock detection.
    pub fn set_deadlock_check(&mut self, on: bool) {
        self.deadlock_check = on;
        // The fast path's "diagnostic scan already proved this quiescent
        // state acyclic" watermark is only meaningful while the check stays
        // continuously enabled.
        self.scratch.invalidate_schedule();
    }

    /// Arms (or with `None` disarms) the stall watchdog: if no qualifying
    /// progress happens for `limit` consecutive cycles while at least one
    /// OSM is in flight, [`Machine::step`] returns
    /// [`ModelError::Stalled`] with a structured [`StallReport`] naming the
    /// blocked OSMs and the primitives/managers they wait on.
    ///
    /// The watchdog distinguishes three conditions, checked in this order:
    /// no transition at all for `limit` cycles ([`StallKind::Wedged`] — the
    /// stalls the wait-for-graph deadlock detector cannot prove); no OSM
    /// returning to its initial state for `limit` cycles
    /// ([`StallKind::Livelock`]); and an individual in-flight OSM pinned in
    /// one state for `limit` cycles while others keep moving
    /// ([`StallKind::Starvation`]).
    ///
    /// Pick `limit` comfortably above the worst-case natural latency of one
    /// operation (cache-miss chains included), or healthy long-latency runs
    /// will be reported as stalls.
    pub fn set_stall_limit(&mut self, limit: Option<u64>) {
        self.stall_limit = limit.filter(|&l| l > 0);
    }

    /// The armed stall bound, if any.
    pub fn stall_limit(&self) -> Option<u64> {
        self.stall_limit
    }

    /// Enables or disables the end-of-run token-leak audit (debug builds
    /// only; on by default). See [`Machine::run`].
    pub fn set_leak_audit(&mut self, on: bool) {
        self.leak_audit = on;
    }

    /// Installs an observer sink; events flow to it from the next control
    /// step on. Sinks are invoked in installation order.
    pub fn add_observer<O: Observer>(&mut self, observer: O) {
        self.observers.push(Box::new(observer));
    }

    /// Borrows the first installed observer of concrete type `O`.
    pub fn observer<O: Observer>(&self) -> Option<&O> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref::<O>())
    }

    /// Mutably borrows the first installed observer of concrete type `O`.
    pub fn observer_mut<O: Observer>(&mut self) -> Option<&mut O> {
        self.observers
            .iter_mut()
            .find_map(|o| o.as_any_mut().downcast_mut::<O>())
    }

    /// Removes and returns the first installed observer of concrete type
    /// `O`, uninstalling it.
    pub fn take_observer<O: Observer>(&mut self) -> Option<O> {
        let idx = self
            .observers
            .iter()
            .position(|o| o.as_any().is::<O>())?;
        let boxed = self.observers.remove(idx);
        Some(*boxed.into_any().downcast::<O>().expect("type checked above"))
    }

    /// True if any observer sink is installed.
    pub fn has_observers(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Starts recording a transition trace (a [`TraceSink`] observer).
    pub fn enable_trace(&mut self) {
        self.enable_trace_with(Trace::new());
    }

    /// Starts recording transitions into the given (possibly ring- or
    /// digest-mode) [`Trace`]. No-op if a trace sink is already installed.
    pub fn enable_trace_with(&mut self, trace: Trace) {
        if self.observer::<TraceSink>().is_none() {
            self.add_observer(TraceSink::new(trace));
        }
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.observer::<TraceSink>().map(TraceSink::trace)
    }

    /// Takes the recorded trace, disabling tracing.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.take_observer::<TraceSink>().map(TraceSink::into_trace)
    }

    /// Starts recording the full event stream into an unbounded [`EventLog`]
    /// (feed for the [`crate::export`] exporters).
    pub fn enable_event_log(&mut self) {
        if self.observer::<EventLog>().is_none() {
            self.add_observer(EventLog::new());
        }
    }

    /// Starts recording the event stream into a ring [`EventLog`] retaining
    /// only the most recent `capacity` events.
    pub fn enable_event_log_ring(&mut self, capacity: usize) {
        if self.observer::<EventLog>().is_none() {
            self.add_observer(EventLog::with_capacity(capacity));
        }
    }

    /// The event log recorded so far, if enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.observer::<EventLog>()
    }

    /// Takes the recorded event log, disabling it.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.take_observer::<EventLog>()
    }

    /// Starts folding events into derived metrics (a [`MetricsCollector`]
    /// observer with the default throughput window).
    pub fn enable_metrics(&mut self) {
        if self.observer::<MetricsCollector>().is_none() {
            self.add_observer(MetricsCollector::default());
        }
    }

    /// Renders the structured [`MetricsReport`], if metrics are enabled.
    /// Includes the stall-cause histogram when attribution is also on.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        self.observer::<MetricsCollector>()
            .map(|c| MetricsReport::build(c, self))
    }

    /// Starts machine-owned stall-cause attribution: every cycle an
    /// in-flight OSM fails to leave its state, the blocking
    /// `(manager, primitive)` pair is charged into the [`StallTracker`]
    /// histograms and into the watchdog's [`StallReport`].
    pub fn enable_stall_attribution(&mut self) {
        if self.stall_tracker.is_none() {
            self.stall_tracker = Some(StallTracker::new());
        }
    }

    /// The stall-cause attribution collected so far, if enabled.
    pub fn stall_attribution(&self) -> Option<&StallTracker> {
        self.stall_tracker.as_ref()
    }

    /// Takes the collected stall attribution, disabling it.
    pub fn take_stall_attribution(&mut self) -> Option<StallTracker> {
        self.stall_tracker.take()
    }

    /// The machine's spec table, indexed by [`Osm::spec_index`] /
    /// the `spec` field of observer events.
    pub fn specs(&self) -> &[Arc<StateMachineSpec>] {
        &self.specs
    }

    /// The current cycle (number of completed [`Machine::step`]s).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The running digest of the installed trace, read **without**
    /// detaching the sink (unlike [`Machine::take_trace`]). A probe point
    /// for mid-run equivalence checks: a differential harness can compare
    /// two runs' digests at a checkpoint cut and keep both running.
    /// `None` when tracing is not enabled.
    pub fn trace_digest(&self) -> Option<u64> {
        self.trace().map(Trace::digest)
    }

    /// An FNV-1a fingerprint of the machine's operation-layer state: the
    /// cycle plus, per OSM in id order, its spec index, current state, age,
    /// tag, identifier slots and buffered tokens (identifier, owning
    /// manager, raw value). Two machines with equal fingerprints are in the
    /// same architectural operation state — the probe differential oracles
    /// use to compare a restored checkpoint against the uninterrupted run,
    /// or the `Seed` and `Fast` schedulers at a mid-run cut, without
    /// needing `S: Clone` or a full [`Machine::checkpoint`].
    ///
    /// Hardware-layer manager internals are deliberately excluded (they are
    /// not generically hashable); token conservation ties them to the
    /// buffers that *are* covered, and [`Machine::audit_tokens`] checks that
    /// tie dynamically.
    pub fn state_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.cycle);
        mix(self.osms.len() as u64);
        for osm in &self.osms {
            mix(u64::from(osm.spec_index()));
            mix(osm.state().index() as u64);
            mix(osm.age());
            mix(osm.tag());
            mix(osm.slots().len() as u64);
            for slot in osm.slots() {
                mix(slot.0);
            }
            mix(osm.buffer().len() as u64);
            for held in osm.buffer() {
                mix(held.ident.0);
                mix(u64::from(held.token.manager.0));
                mix(held.token.raw);
            }
        }
        hash
    }

    /// Token-conservation audit: every token a manager believes is owned
    /// must sit in exactly that owner's buffer, and every buffered token of
    /// an auditable manager must be acknowledged by it. This is the dynamic
    /// counterpart of the static checks in [`crate::verify_spec`]; tests run
    /// it between control steps.
    ///
    /// # Panics
    /// Never panics; violations are returned as human-readable strings.
    pub fn audit_tokens(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut audited: Vec<bool> = vec![false; self.managers.len()];
        for (id, manager) in self.managers.iter() {
            let Some(owned) = manager.owned_tokens() else {
                continue;
            };
            audited[id.index()] = true;
            for (token, owner) in owned {
                let held = self
                    .osms
                    .get(owner.index())
                    .map(|osm| osm.buffer().iter().any(|h| h.token == token))
                    .unwrap_or(false);
                if !held {
                    problems.push(format!(
                        "manager {} says {owner} owns {token}, but it is not in that OSM's buffer",
                        manager.name()
                    ));
                }
            }
        }
        for osm in self.osms() {
            for held in osm.buffer() {
                let id = held.token.manager;
                if !audited.get(id.index()).copied().unwrap_or(false) {
                    continue;
                }
                let acknowledged = self
                    .managers
                    .get(id)
                    .owned_tokens()
                    .map(|owned| owned.iter().any(|(t, o)| *t == held.token && *o == osm.id()))
                    .unwrap_or(true);
                if !acknowledged {
                    problems.push(format!(
                        "{} holds {} which its manager does not acknowledge",
                        osm.id(),
                        held.token
                    ));
                }
            }
        }
        problems
    }

    /// Runs the OSM layer only: one director control step (Fig. 3) at the
    /// current cycle, without advancing the hardware layer. The DE kernel
    /// uses this at clock edges; most users call [`Machine::step`].
    ///
    /// # Errors
    /// Returns [`ModelError::Deadlock`] on a detected wait-for cycle.
    pub fn control_step(&mut self) -> Result<StepOutcome, ModelError> {
        // One branch per cycle picks the monomorphized director: the
        // TRACKING=false instantiation carries no observability code at all.
        // The fast scheduler requires age ranking; under a custom ranker the
        // reference scheduler runs regardless of the configured mode.
        let tracking = !self.observers.is_empty() || self.stall_tracker.is_some();
        // Adaptive fallback: after an unproductive skip window the fast
        // path parks itself on the reference scheduler for a while (see
        // `ADAPT_COOLDOWN` in director.rs). Identical cycle behavior either
        // way — the cooldown only decides which exact scheduler runs.
        let cooling = self.scratch.adapt_cooldown > 0;
        if cooling {
            self.scratch.adapt_cooldown -= 1;
        }
        if self.sched_mode == SchedulerMode::Fast && self.age_ranking && !cooling {
            if tracking {
                director::control_step_fast::<S, true>(
                    &mut self.osms,
                    &self.specs,
                    &mut self.managers,
                    &mut self.shared,
                    self.restart,
                    self.deadlock_check,
                    self.cycle,
                    &mut self.age_counter,
                    &mut self.stats,
                    &mut self.observers,
                    self.stall_tracker.as_mut(),
                    &mut self.scratch,
                )
            } else {
                director::control_step_fast::<S, false>(
                    &mut self.osms,
                    &self.specs,
                    &mut self.managers,
                    &mut self.shared,
                    self.restart,
                    self.deadlock_check,
                    self.cycle,
                    &mut self.age_counter,
                    &mut self.stats,
                    &mut self.observers,
                    None,
                    &mut self.scratch,
                )
            }
        } else if tracking {
            director::control_step::<S, true>(
                &mut self.osms,
                &self.specs,
                &mut self.managers,
                &mut self.shared,
                self.ranker.as_ref(),
                self.age_ranking,
                self.restart,
                self.deadlock_check,
                self.cycle,
                &mut self.age_counter,
                &mut self.stats,
                &mut self.observers,
                self.stall_tracker.as_mut(),
                &mut self.scratch,
            )
        } else {
            director::control_step::<S, false>(
                &mut self.osms,
                &self.specs,
                &mut self.managers,
                &mut self.shared,
                self.ranker.as_ref(),
                self.age_ranking,
                self.restart,
                self.deadlock_check,
                self.cycle,
                &mut self.age_counter,
                &mut self.stats,
                &mut self.observers,
                None,
                &mut self.scratch,
            )
        }
    }

    /// Feeds one step's outcome into the watchdog trackers and, if armed,
    /// checks the stall bound. `now` is the cycle the step ran at.
    fn watchdog_check(&mut self, outcome: StepOutcome, now: u64) -> Result<(), ModelError> {
        if outcome.transitions > 0 {
            self.last_transition_cycle = now;
        }
        if outcome.completions > 0 {
            self.last_completion_cycle = now;
        }
        let Some(limit) = self.stall_limit else {
            return Ok(());
        };
        // With every OSM idle the machine is merely out of work, not stuck.
        if self.osms.iter().all(|o| o.is_idle()) {
            return Ok(());
        }
        let idle_for = now.saturating_sub(self.last_transition_cycle);
        let no_completion_for = now.saturating_sub(self.last_completion_cycle);
        let (kind, stalled_for) = if idle_for >= limit {
            (StallKind::Wedged, idle_for)
        } else if no_completion_for >= limit {
            (StallKind::Livelock, no_completion_for)
        } else {
            let worst_pin = self
                .osms
                .iter()
                .filter(|o| !o.is_idle())
                .map(|o| now.saturating_sub(o.last_move_cycle()))
                .max()
                .unwrap_or(0);
            if worst_pin < limit {
                return Ok(());
            }
            (StallKind::Starvation, worst_pin)
        };
        let blocked = director::diagnose_blocked(
            &self.osms,
            &self.specs,
            &mut self.managers,
            &self.shared,
            &mut self.scratch,
            &mut |o: &Osm<S>| match kind {
                // Starvation singles out the pinned OSMs; the other kinds
                // report every in-flight OSM.
                StallKind::Starvation => {
                    !o.is_idle() && now.saturating_sub(o.last_move_cycle()) >= limit
                }
                StallKind::Wedged | StallKind::Livelock => !o.is_idle(),
            },
        );
        Err(ModelError::Stalled(Box::new(StallReport {
            kind,
            cycle: now,
            stalled_for,
            budget: limit,
            blocked,
            // When attribution is on, embed the stall-cause histogram that
            // led up to the stall — no separate probe pass required.
            attribution: self
                .stall_tracker
                .as_ref()
                .map(|t| t.histogram(&self.managers)),
        })))
    }

    /// Debug-build token-conservation check run at the end of
    /// [`Machine::run`]/[`Machine::run_until`].
    fn leak_check(&self) -> Result<(), ModelError> {
        if cfg!(debug_assertions) && self.leak_audit {
            let problems = self.audit_tokens();
            if !problems.is_empty() {
                return Err(ModelError::TokenLeak {
                    cycle: self.cycle,
                    problems,
                });
            }
        }
        Ok(())
    }
}

impl<S: Clone + 'static> Machine<S> {
    /// Captures a cycle-accurate checkpoint of the whole machine: OSM
    /// states, ages, token buffers and identifier slots, behavior state,
    /// manager state, shared hardware-layer state, statistics and scheduler
    /// counters. The transition trace is not captured.
    ///
    /// # Errors
    /// [`ModelError::SnapshotUnsupported`] if any installed manager does not
    /// implement [`TokenManager::snapshot_state`].
    pub fn checkpoint(&self) -> Result<Checkpoint<S>, ModelError> {
        let mut managers = Vec::with_capacity(self.managers.len());
        for (id, m) in self.managers.iter() {
            match m.snapshot_state() {
                Some(snap) => managers.push(snap),
                None => {
                    return Err(ModelError::SnapshotUnsupported {
                        manager: format!("{} ({id})", m.name()),
                    })
                }
            }
        }
        let osms = self
            .osms
            .iter()
            .map(|o| OsmCheckpoint {
                state: o.state,
                age: o.age,
                tag: o.tag,
                buffer: o.buffer.clone(),
                slots: o.slots.clone(),
                behavior: o.behavior.snapshot(),
                last_move_cycle: o.last_move_cycle,
            })
            .collect();
        Ok(Checkpoint {
            cycle: self.cycle,
            age_counter: self.age_counter,
            last_transition_cycle: self.last_transition_cycle,
            last_completion_cycle: self.last_completion_cycle,
            stats: self.stats.clone(),
            shared: self.shared.clone(),
            osms,
            managers,
        })
    }

    /// Rewinds the machine to a [`Checkpoint`] previously taken from it.
    /// Re-running from the restored state reproduces the original
    /// continuation transition-for-transition. A checkpoint can be restored
    /// any number of times. The transition trace is not rewound.
    ///
    /// # Errors
    /// [`ModelError::SnapshotMismatch`] if the checkpoint's shape does not
    /// match the machine or a manager/behavior rejects its snapshot. The
    /// machine may then be partially restored; restoring a matching
    /// checkpoint recovers it.
    pub fn restore(&mut self, ckpt: &Checkpoint<S>) -> Result<(), ModelError> {
        if ckpt.osms.len() != self.osms.len() {
            return Err(ModelError::SnapshotMismatch {
                what: format!(
                    "checkpoint has {} OSMs, machine has {}",
                    ckpt.osms.len(),
                    self.osms.len()
                ),
            });
        }
        if ckpt.managers.len() != self.managers.len() {
            return Err(ModelError::SnapshotMismatch {
                what: format!(
                    "checkpoint has {} managers, machine has {}",
                    ckpt.managers.len(),
                    self.managers.len()
                ),
            });
        }
        for (i, snap) in ckpt.managers.iter().enumerate() {
            // In range: the count above matched the registration-checked
            // manager table.
            let id = ManagerId(
                crate::ids::checked_id(i, "token manager")
                    .expect("manager count was registration-checked"),
            );
            let manager = self.managers.get_mut(id);
            if !manager.restore_state(snap) {
                return Err(ModelError::SnapshotMismatch {
                    what: format!("manager {} ({id}) rejected its snapshot", manager.name()),
                });
            }
        }
        for (osm, snap) in self.osms.iter_mut().zip(&ckpt.osms) {
            if !osm.behavior.restore(&snap.behavior) {
                return Err(ModelError::SnapshotMismatch {
                    what: format!("behavior of {} rejected its snapshot", osm.id),
                });
            }
            osm.state = snap.state;
            osm.age = snap.age;
            osm.tag = snap.tag;
            osm.buffer.clone_from(&snap.buffer);
            osm.slots.clone_from(&snap.slots);
            osm.last_move_cycle = snap.last_move_cycle;
        }
        self.cycle = ckpt.cycle;
        self.age_counter = ckpt.age_counter;
        self.last_transition_cycle = ckpt.last_transition_cycle;
        self.last_completion_cycle = ckpt.last_completion_cycle;
        self.stats = ckpt.stats.clone();
        self.shared = ckpt.shared.clone();
        // Every OSM state and age just rewound; the fast scheduler's ready
        // list and sensitivity records no longer describe the machine.
        self.scratch.invalidate_schedule();
        Ok(())
    }

    /// Serializes a [`Checkpoint`] taken from this machine into the
    /// versioned on-disk format: magic, format version, length-prefixed
    /// sections, FNV-1a seal. The shared hardware-layer state is supplied
    /// pre-encoded (`shared_bytes`) because `S` is model-specific; each
    /// manager and stateful behavior serializes its own opaque payload
    /// through the [`TokenManager::encode_snapshot`] /
    /// [`Behavior::encode_snapshot`] hooks.
    ///
    /// # Errors
    /// [`ModelError::SnapshotUnsupported`] if a manager or behavior lacks an
    /// encoding hook; [`ModelError::SnapshotMismatch`] if the checkpoint's
    /// shape does not match this machine.
    pub fn encode_checkpoint(
        &self,
        ckpt: &Checkpoint<S>,
        shared_bytes: &[u8],
    ) -> Result<Vec<u8>, ModelError> {
        use crate::persist::ByteWriter;
        use crate::snapshot::BehaviorSnapshot;

        if ckpt.osms.len() != self.osms.len() || ckpt.managers.len() != self.managers.len() {
            return Err(ModelError::SnapshotMismatch {
                what: format!(
                    "checkpoint shape ({} OSMs, {} managers) does not match the machine \
                     ({} OSMs, {} managers)",
                    ckpt.osms.len(),
                    ckpt.managers.len(),
                    self.osms.len(),
                    self.managers.len()
                ),
            });
        }
        let mut w = ByteWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);
        w.put_u64(ckpt.cycle);
        w.put_u64(ckpt.age_counter);
        w.put_u64(ckpt.last_transition_cycle);
        w.put_u64(ckpt.last_completion_cycle);
        w.put_u64(ckpt.stats.cycles);
        w.put_u64(ckpt.stats.transitions);
        w.put_u64(ckpt.stats.condition_failures);
        w.put_u64(ckpt.stats.vetoed_edges);
        w.put_u64(ckpt.stats.idle_steps);
        w.put_u64(ckpt.stats.restarts);
        let named: Vec<(&str, u64)> = ckpt.stats.named().collect();
        w.put_u32(named.len() as u32);
        for (name, value) in named {
            w.put_str(name);
            w.put_u64(value);
        }
        w.put_bytes(shared_bytes);
        w.put_u32(ckpt.osms.len() as u32);
        for (osm, snap) in self.osms.iter().zip(&ckpt.osms) {
            w.put_u32(snap.state.0);
            w.put_u64(snap.age);
            w.put_u64(snap.tag);
            w.put_u64(snap.last_move_cycle);
            w.put_u32(snap.buffer.len() as u32);
            for held in &snap.buffer {
                w.put_u64(held.ident.0);
                w.put_u32(held.token.manager.0);
                w.put_u64(held.token.raw);
            }
            w.put_u32(snap.slots.len() as u32);
            for slot in &snap.slots {
                w.put_u64(slot.0);
            }
            match &snap.behavior {
                BehaviorSnapshot::Stateless => w.put_u8(0),
                state @ BehaviorSnapshot::State(_) => {
                    let Some(bytes) = osm.behavior.encode_snapshot(state) else {
                        return Err(ModelError::SnapshotUnsupported {
                            manager: format!("behavior of {}", osm.id),
                        });
                    };
                    w.put_u8(1);
                    w.put_bytes(&bytes);
                }
            }
        }
        w.put_u32(ckpt.managers.len() as u32);
        for ((id, manager), snap) in self.managers.iter().zip(&ckpt.managers) {
            let Some(bytes) = manager.encode_snapshot(snap) else {
                return Err(ModelError::SnapshotUnsupported {
                    manager: format!("{} ({id})", manager.name()),
                });
            };
            w.put_bytes(&bytes);
        }
        Ok(w.into_sealed_bytes())
    }

    /// Deserializes bytes produced by [`Machine::encode_checkpoint`] on a
    /// machine of identical construction, producing a [`Checkpoint`] ready
    /// for [`Machine::restore`]. `decode_shared` reconstructs the
    /// model-specific shared state from its encoded section (typically
    /// using the freshly built machine's own shared state as the template
    /// for static configuration).
    ///
    /// # Errors
    /// [`ModelError::SnapshotMismatch`] on any malformed, truncated,
    /// tampered or shape-incompatible input;
    /// [`ModelError::SnapshotUnsupported`] if a manager or behavior lacks a
    /// decoding hook.
    pub fn decode_checkpoint(
        &self,
        bytes: &[u8],
        decode_shared: impl FnOnce(&[u8]) -> Option<S>,
    ) -> Result<Checkpoint<S>, ModelError> {
        use crate::ids::StateId;
        use crate::persist::{unseal, ByteReader};
        use crate::snapshot::BehaviorSnapshot;
        use crate::token::{HeldToken, Token, TokenIdent};

        fn bad(what: impl Into<String>) -> ModelError {
            ModelError::SnapshotMismatch { what: what.into() }
        }
        let truncated = || bad("checkpoint file truncated");

        let payload = unseal(bytes).ok_or_else(|| bad("checkpoint seal invalid or missing"))?;
        let mut r = ByteReader::new(payload);
        if r.take_bytes().ok_or_else(truncated)? != CHECKPOINT_MAGIC {
            return Err(bad("not a checkpoint file (bad magic)"));
        }
        let version = r.take_u32().ok_or_else(truncated)?;
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!(
                "checkpoint format version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let cycle = r.take_u64().ok_or_else(truncated)?;
        let age_counter = r.take_u64().ok_or_else(truncated)?;
        let last_transition_cycle = r.take_u64().ok_or_else(truncated)?;
        let last_completion_cycle = r.take_u64().ok_or_else(truncated)?;
        let mut stats = Stats::new();
        stats.cycles = r.take_u64().ok_or_else(truncated)?;
        stats.transitions = r.take_u64().ok_or_else(truncated)?;
        stats.condition_failures = r.take_u64().ok_or_else(truncated)?;
        stats.vetoed_edges = r.take_u64().ok_or_else(truncated)?;
        stats.idle_steps = r.take_u64().ok_or_else(truncated)?;
        stats.restarts = r.take_u64().ok_or_else(truncated)?;
        let named_count = r.take_u32().ok_or_else(truncated)?;
        for _ in 0..named_count {
            let name = r.take_str().ok_or_else(truncated)?;
            let value = r.take_u64().ok_or_else(truncated)?;
            stats.incr_dyn(name, value);
        }
        let shared_bytes = r.take_bytes().ok_or_else(truncated)?;
        let shared = decode_shared(shared_bytes)
            .ok_or_else(|| bad("shared hardware-layer state rejected its encoding"))?;
        let osm_count = r.take_u32().ok_or_else(truncated)? as usize;
        if osm_count != self.osms.len() {
            return Err(bad(format!(
                "checkpoint has {osm_count} OSMs, machine has {}",
                self.osms.len()
            )));
        }
        let mut osms = Vec::with_capacity(osm_count);
        for osm in &self.osms {
            let state = StateId(r.take_u32().ok_or_else(truncated)?);
            let age = r.take_u64().ok_or_else(truncated)?;
            let tag = r.take_u64().ok_or_else(truncated)?;
            let last_move_cycle = r.take_u64().ok_or_else(truncated)?;
            let buffer_len = r.take_u32().ok_or_else(truncated)? as usize;
            let mut buffer = Vec::with_capacity(buffer_len.min(1 << 16));
            for _ in 0..buffer_len {
                let ident = TokenIdent(r.take_u64().ok_or_else(truncated)?);
                let manager = ManagerId(r.take_u32().ok_or_else(truncated)?);
                let raw = r.take_u64().ok_or_else(truncated)?;
                buffer.push(HeldToken {
                    ident,
                    token: Token::new(manager, raw),
                });
            }
            let slot_len = r.take_u32().ok_or_else(truncated)? as usize;
            let mut slots = Vec::with_capacity(slot_len.min(1 << 16));
            for _ in 0..slot_len {
                slots.push(TokenIdent(r.take_u64().ok_or_else(truncated)?));
            }
            let behavior = match r.take_u8().ok_or_else(truncated)? {
                0 => BehaviorSnapshot::Stateless,
                1 => {
                    let section = r.take_bytes().ok_or_else(truncated)?;
                    osm.behavior.decode_snapshot(section).ok_or_else(|| {
                        ModelError::SnapshotUnsupported {
                            manager: format!("behavior of {}", osm.id),
                        }
                    })?
                }
                tag => return Err(bad(format!("unknown behavior snapshot tag {tag}"))),
            };
            osms.push(OsmCheckpoint {
                state,
                age,
                tag,
                buffer,
                slots,
                behavior,
                last_move_cycle,
            });
        }
        let manager_count = r.take_u32().ok_or_else(truncated)? as usize;
        if manager_count != self.managers.len() {
            return Err(bad(format!(
                "checkpoint has {manager_count} managers, machine has {}",
                self.managers.len()
            )));
        }
        let mut managers = Vec::with_capacity(manager_count);
        for (id, manager) in self.managers.iter() {
            let section = r.take_bytes().ok_or_else(truncated)?;
            let snap = manager.decode_snapshot(section).ok_or_else(|| {
                ModelError::SnapshotUnsupported {
                    manager: format!("{} ({id})", manager.name()),
                }
            })?;
            managers.push(snap);
        }
        if !r.is_done() {
            return Err(bad("trailing bytes after the last checkpoint section"));
        }
        Ok(Checkpoint {
            cycle,
            age_counter,
            last_transition_cycle,
            last_completion_cycle,
            stats,
            shared,
            osms,
            managers,
        })
    }
}

/// Magic bytes opening every serialized checkpoint.
pub const CHECKPOINT_MAGIC: &[u8] = b"OSMCKPT1";
/// Current serialized-checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl<S: HardwareLayer + 'static> Machine<S> {
    /// Advances one full cycle: hardware layer clock, manager clock hooks,
    /// then the OSM control step (paper Fig. 4 embedding, cycle-driven form).
    ///
    /// # Errors
    /// Returns [`ModelError::Deadlock`] on a detected wait-for cycle.
    pub fn step(&mut self) -> Result<StepOutcome, ModelError> {
        self.shared.clock(self.cycle, &mut self.managers);
        self.managers.clock_all(self.cycle);
        let outcome = self.control_step()?;
        self.watchdog_check(outcome, self.cycle)?;
        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(outcome)
    }

    /// Runs `n` cycles. In debug builds a token-conservation audit runs at
    /// the end and surfaces any inconsistency as [`ModelError::TokenLeak`]
    /// (disable with [`Machine::set_leak_audit`]).
    ///
    /// # Errors
    /// Propagates the first [`ModelError`].
    pub fn run(&mut self, n: u64) -> Result<(), ModelError> {
        for _ in 0..n {
            self.step()?;
        }
        self.leak_check()
    }

    /// Runs until `stop` returns true or `max_cycles` elapse; returns the
    /// number of cycles executed. Ends with the same debug-build leak audit
    /// as [`Machine::run`].
    ///
    /// # Errors
    /// Propagates the first [`ModelError`].
    pub fn run_until<F>(&mut self, max_cycles: u64, mut stop: F) -> Result<u64, ModelError>
    where
        F: FnMut(&Machine<S>) -> bool,
    {
        let start = self.cycle;
        while self.cycle - start < max_cycles {
            if stop(self) {
                break;
            }
            self.step()?;
        }
        self.leak_check()?;
        Ok(self.cycle - start)
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for Machine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("managers", &self.managers)
            .field("osms", &self.osms.len())
            .field("shared", &self.shared)
            .finish()
    }
}

// Compile-time Send audit: a machine (and its checkpoints) whose shared
// hardware-layer state is `Send` must itself be `Send`, so whole simulation
// jobs can be sharded across worker threads. Every trait object a machine
// can own — managers, observers, behaviors, rankers, fault controls,
// manager snapshots — is constrained to uphold this; a regression in any of
// them fails here, not in a downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn machine_is_send<S: Send + 'static>() {
        assert_send::<Machine<S>>();
        assert_send::<crate::Checkpoint<S>>();
    }
    machine_is_send::<()>();
    assert_send::<crate::FaultHandle>();
    assert_send::<crate::snapshot::ManagerSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotId;
    use crate::osm::{InertBehavior, TransitionCtx};
    use crate::pools::{ExclusivePool, RegScoreboard};
    use crate::spec::{Edge, SpecBuilder};
    use crate::token::{IdentExpr, TokenIdent};

    /// Three-stage loop: I -> A -> B -> I over two exclusive stages.
    fn pipeline_spec(ma: ManagerId, mb: ManagerId) -> Arc<StateMachineSpec> {
        let mut b = SpecBuilder::new("pipe");
        let i = b.state("I");
        let a = b.state("A");
        let bb = b.state("B");
        b.initial(i);
        b.edge(i, a).named("enter").allocate(ma, IdentExpr::Const(0));
        b.edge(a, bb)
            .named("advance")
            .release(ma, IdentExpr::AnyHeld)
            .allocate(mb, IdentExpr::Const(0));
        b.edge(bb, i).named("leave").release(mb, IdentExpr::AnyHeld);
        b.build().unwrap()
    }

    #[test]
    fn single_osm_walks_pipeline() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        let op = m.add_osm(&spec, InertBehavior);
        assert_eq!(m.osm(op).state_name(), "I");
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "A");
        assert_eq!(m.osm(op).buffer().len(), 1);
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "B");
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "I");
        assert!(m.osm(op).buffer().is_empty());
        assert_eq!(m.stats.transitions, 3);
        assert_eq!(m.cycle(), 3);
    }

    #[test]
    fn two_osms_pipeline_in_order_and_structure_hazard_resolves() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        let o0 = m.add_osm(&spec, InertBehavior);
        let o1 = m.add_osm(&spec, InertBehavior);
        // Step 1: only one can enter A (one occupancy token).
        m.step().unwrap();
        let in_a = [o0, o1]
            .iter()
            .filter(|&&o| m.osm(o).state_name() == "A")
            .count();
        assert_eq!(in_a, 1);
        // Step 2: senior advances to B, junior takes A *in the same step*
        // (release visible within the step).
        m.step().unwrap();
        assert_eq!(m.osm(o0).state_name(), "B");
        assert_eq!(m.osm(o1).state_name(), "A");
    }

    #[test]
    fn age_ranking_keeps_seniors_first() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        // Insert in reverse id order relative to fetch: both idle, id ties
        // break toward o0; o0 becomes senior.
        let o0 = m.add_osm(&spec, InertBehavior);
        let o1 = m.add_osm(&spec, InertBehavior);
        m.run(2).unwrap();
        assert!(m.osm(o0).age() < m.osm(o1).age());
        assert_eq!(m.osm(o0).state_name(), "B");
    }

    #[test]
    fn deadlock_detected_on_cyclic_dependency() {
        // Two OSMs each hold one stage and want the other's: a wait cycle.
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        // Class 1: I -> A (take A), A -> Z (want B without releasing A).
        let spec_ab = {
            let mut b = SpecBuilder::new("ab");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(mb, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let spec_ba = {
            let mut b = SpecBuilder::new("ba");
            let i = b.state("I");
            let a = b.state("B");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(mb, IdentExpr::Const(0));
            b.edge(a, z).allocate(ma, IdentExpr::Const(0));
            b.build().unwrap()
        };
        m.add_osm(&spec_ab, InertBehavior);
        m.add_osm(&spec_ba, InertBehavior);
        // Step 1: each takes its first stage.
        m.step().unwrap();
        // Step 2: both blocked on each other -> deadlock.
        let err = m.step().unwrap_err();
        match err {
            ModelError::Deadlock { osms, .. } => assert_eq!(osms.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_check_can_be_disabled() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec_ab = {
            let mut b = SpecBuilder::new("ab");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(mb, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let spec_ba = {
            let mut b = SpecBuilder::new("ba");
            let i = b.state("I");
            let a = b.state("B");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(mb, IdentExpr::Const(0));
            b.edge(a, z).allocate(ma, IdentExpr::Const(0));
            b.build().unwrap()
        };
        m.add_osm(&spec_ab, InertBehavior);
        m.add_osm(&spec_ba, InertBehavior);
        m.set_deadlock_check(false);
        m.run(5).unwrap(); // stalls forever but never errors
        assert!(m.stats.idle_steps >= 4);
    }

    #[test]
    fn behavior_slots_drive_dynamic_identifiers() {
        // An OSM that allocates a register-update token whose register index
        // is decided by the behavior at the previous transition.
        struct Decode {
            dest: usize,
        }
        impl Behavior<()> for Decode {
            fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, ()>) {
                if edge.name == "enter" {
                    ctx.set_slot(SlotId(0), RegScoreboard::update_ident(self.dest));
                }
            }
        }
        let mut m: Machine<()> = Machine::new(());
        let stage = m.add_manager(ExclusivePool::new("stage", 2));
        let rf = m.add_manager(RegScoreboard::new("regs", 8));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let d = b.state("D");
            let e = b.state("E");
            b.initial(i);
            b.edge(i, d).named("enter").allocate(stage, IdentExpr::ANY);
            b.edge(d, e)
                .named("issue")
                .allocate(rf, IdentExpr::Slot(SlotId(0)));
            b.build().unwrap()
        };
        let o0 = m.add_osm(&spec, Decode { dest: 3 });
        let o1 = m.add_osm(&spec, Decode { dest: 3 });
        m.run(2).unwrap();
        // Senior OSM got the reg-3 update token; junior stalls in D (WAW).
        assert_eq!(m.osm(o0).state_name(), "E");
        assert_eq!(m.osm(o1).state_name(), "D");
        let rfm: &RegScoreboard = m.managers.downcast(rf);
        assert_eq!(rfm.writer_of(3), Some(o0));
    }

    #[test]
    fn trace_records_transitions() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        m.add_osm(&spec, InertBehavior);
        m.enable_trace();
        m.run(3).unwrap();
        let trace = m.take_trace().unwrap();
        assert_eq!(trace.len(), 3);
        assert!(m.trace().is_none());
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        let op = m.add_osm(&spec, InertBehavior);
        let ran = m
            .run_until(100, |m| m.osm(op).state_name() == "B")
            .unwrap();
        assert_eq!(ran, 2);
        assert_eq!(m.osm(op).state_name(), "B");
    }

    #[test]
    fn watchdog_reports_wedged_stall_with_diagnosis() {
        use crate::error::StallKind;
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        // Capacity-0 pool: allocation can never succeed and there is no
        // owner, so the wait-for-graph deadlock detector stays silent.
        let broken = m.add_manager(ExclusivePool::new("broken", 0));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(broken, IdentExpr::ANY);
            b.build().unwrap()
        };
        let op = m.add_osm(&spec, InertBehavior);
        m.set_stall_limit(Some(5));
        let err = m.run(100).unwrap_err();
        match err {
            ModelError::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Wedged);
                assert!(report.stalled_for >= 5);
                assert_eq!(report.blocked.len(), 1);
                let b = &report.blocked[0];
                assert_eq!(b.osm, op);
                assert_eq!(b.state, "A");
                assert_eq!(b.held.len(), 1);
                assert_eq!(b.waiting_on.len(), 1);
                assert_eq!(b.waiting_on[0].manager_name, "broken");
                assert!(b.waiting_on[0].primitive.starts_with("alloc"));
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_livelock_when_nothing_completes() {
        use crate::error::StallKind;
        let mut m: Machine<()> = Machine::new(());
        // Condition-free A<->B bounce: transitions every cycle, but the OSM
        // never returns to its initial state.
        let spec = {
            let mut b = SpecBuilder::new("bounce");
            let i = b.state("I");
            let a = b.state("A");
            let bb = b.state("B");
            b.initial(i);
            b.edge(i, a);
            b.edge(a, bb);
            b.edge(bb, a);
            b.build().unwrap()
        };
        m.add_osm(&spec, InertBehavior);
        m.set_stall_limit(Some(6));
        let err = m.run(100).unwrap_err();
        match err {
            ModelError::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Livelock);
                // The bouncing OSM is in flight, but each probed edge is
                // momentarily satisfiable, so it reports no wait causes.
                assert_eq!(report.blocked.len(), 1);
                assert!(report.blocked[0].waiting_on.is_empty());
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_starvation_of_pinned_osm() {
        use crate::error::StallKind;
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let hold_spec = {
            let mut b = SpecBuilder::new("hold");
            let i = b.state("I");
            let h = b.state("H");
            b.initial(i);
            b.edge(i, h).allocate(ma, IdentExpr::Const(0));
            b.edge(h, i).release(ma, IdentExpr::AnyHeld);
            b.build().unwrap()
        };
        let loop_spec = {
            let mut b = SpecBuilder::new("loop");
            let i = b.state("I");
            let l = b.state("L");
            b.initial(i);
            b.edge(i, l).allocate(mb, IdentExpr::Const(0));
            b.edge(l, i).release(mb, IdentExpr::AnyHeld);
            b.build().unwrap()
        };
        let pinned = m.add_osm(&hold_spec, InertBehavior);
        m.add_osm(&loop_spec, InertBehavior);
        m.set_stall_limit(Some(8));
        m.step().unwrap(); // both enter their stage
        // Pin the holder: its release is refused from now on (a completion
        // signal that never arrives), while the looper keeps retiring.
        m.managers
            .downcast_mut::<ExclusivePool>(ma)
            .block_release(0, true);
        let err = m.run(100).unwrap_err();
        match err {
            ModelError::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Starvation);
                assert_eq!(report.blocked.len(), 1);
                let b = &report.blocked[0];
                assert_eq!(b.osm, pinned);
                assert_eq!(b.state, "H");
                assert_eq!(b.waiting_on.len(), 1);
                assert_eq!(b.waiting_on[0].manager_name, "A");
                assert!(b.waiting_on[0].primitive.starts_with("rel"));
                assert_eq!(b.waiting_on[0].owner, None); // own token, filtered
            }
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_silent_on_healthy_and_idle_machines() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        m.add_osm(&spec, InertBehavior);
        m.set_stall_limit(Some(4));
        // The operation loops I->A->B->I forever: completions keep coming.
        m.run(50).unwrap();
        // An all-idle machine (no OSMs at all) never trips the watchdog.
        let mut empty: Machine<()> = Machine::new(());
        empty.set_stall_limit(Some(1));
        empty.run(10).unwrap();
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        let build = |m: &mut Machine<()>| {
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            let o0 = m.add_osm(&spec, InertBehavior);
            let o1 = m.add_osm(&spec, InertBehavior);
            (o0, o1)
        };
        let mut m: Machine<()> = Machine::new(());
        let (o0, o1) = build(&mut m);
        m.run(2).unwrap();
        let ckpt = m.checkpoint().unwrap();
        assert_eq!(ckpt.cycle(), 2);
        assert_eq!(ckpt.osm_count(), 2);
        assert_eq!(ckpt.manager_count(), 2);
        let observe = |m: &mut Machine<()>| {
            let mut log = Vec::new();
            for _ in 0..4 {
                m.step().unwrap();
                log.push((
                    m.osm(o0).state_name().to_owned(),
                    m.osm(o1).state_name().to_owned(),
                    m.stats.transitions,
                ));
            }
            log
        };
        let first = observe(&mut m);
        m.restore(&ckpt).unwrap();
        assert_eq!(m.cycle(), 2);
        let second = observe(&mut m);
        assert_eq!(first, second);
        // A checkpoint survives multiple restores.
        m.restore(&ckpt).unwrap();
        assert_eq!(observe(&mut m), first);
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let mut a: Machine<()> = Machine::new(());
        let ma = a.add_manager(ExclusivePool::new("A", 1));
        let mb = a.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        a.add_osm(&spec, InertBehavior);
        let ckpt = a.checkpoint().unwrap();

        let mut b: Machine<()> = Machine::new(());
        let ba = b.add_manager(ExclusivePool::new("A", 1));
        let bb = b.add_manager(ExclusivePool::new("B", 1));
        let spec2 = pipeline_spec(ba, bb);
        b.add_osm(&spec2, InertBehavior);
        b.add_osm(&spec2, InertBehavior);
        match b.restore(&ckpt) {
            Err(ModelError::SnapshotMismatch { .. }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_fails_on_unsnapshotable_manager() {
        struct Opaque;
        impl TokenManager for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn prepare_allocate(&mut self, _: OsmId, _: TokenIdent) -> Option<crate::token::Token> {
                None
            }
            fn inquire(&self, _: OsmId, _: TokenIdent) -> bool {
                false
            }
            fn prepare_release(&mut self, _: OsmId, _: crate::token::Token) -> bool {
                false
            }
            fn commit_allocate(&mut self, _: OsmId, _: crate::token::Token) {}
            fn abort_allocate(&mut self, _: OsmId, _: crate::token::Token) {}
            fn commit_release(&mut self, _: OsmId, _: crate::token::Token) {}
            fn abort_release(&mut self, _: OsmId, _: crate::token::Token) {}
            fn discard(&mut self, _: OsmId, _: crate::token::Token) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut m: Machine<()> = Machine::new(());
        m.add_manager(Opaque);
        match m.checkpoint() {
            Err(ModelError::SnapshotUnsupported { manager }) => {
                assert!(manager.contains("opaque"));
            }
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    /// Builds the two-OSM cyclic-dependency machine used by the deadlock
    /// tests above.
    fn deadlock_machine() -> Machine<()> {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec_ab = {
            let mut b = SpecBuilder::new("ab");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(mb, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let spec_ba = {
            let mut b = SpecBuilder::new("ba");
            let i = b.state("I");
            let a = b.state("B");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(mb, IdentExpr::Const(0));
            b.edge(a, z).allocate(ma, IdentExpr::Const(0));
            b.build().unwrap()
        };
        m.add_osm(&spec_ab, InertBehavior);
        m.add_osm(&spec_ba, InertBehavior);
        m
    }

    #[test]
    fn scratch_list_survives_deadlock_return() {
        // Regression: the reference scheduler used to drop its taken ranking
        // buffer on the early deadlock return, so every later step
        // re-allocated it from scratch.
        let mut m = deadlock_machine();
        m.set_scheduler_mode(SchedulerMode::Seed);
        m.step().unwrap();
        assert!(matches!(m.step(), Err(ModelError::Deadlock { .. })));
        assert!(
            m.scratch.list.capacity() >= m.osm_count(),
            "ranking buffer was dropped on the deadlock return"
        );
        assert!(m.scratch.list.is_empty());
        // The machine stays usable: disabling the check lets it idle on.
        m.set_deadlock_check(false);
        m.run(3).unwrap();
    }

    /// Two-state loop with condition-free edges: every OSM transitions every
    /// control step.
    fn free_loop_spec() -> Arc<StateMachineSpec> {
        let mut b = SpecBuilder::new("free");
        let i = b.state("I");
        let a = b.state("A");
        b.initial(i);
        b.edge(i, a);
        b.edge(a, i);
        b.build().unwrap()
    }

    #[test]
    fn restarts_count_rescans_including_first_position() {
        // Two always-moving OSMs under Restart: each step, the transition of
        // the first-served OSM (position 0 — previously never counted)
        // leaves one OSM unserved and rescans, the second empties the list
        // and does not. Exactly one rescan per step, in both modes.
        for mode in [SchedulerMode::Fast, SchedulerMode::Seed] {
            let mut m: Machine<()> = Machine::new(());
            let spec = free_loop_spec();
            m.add_osm(&spec, InertBehavior);
            m.add_osm(&spec, InertBehavior);
            m.set_scheduler_mode(mode);
            m.enable_metrics();
            m.run(10).unwrap();
            assert_eq!(m.stats.restarts, 10, "{mode:?}");
            let report = m.metrics_report().unwrap();
            assert_eq!(report.restarts, 10, "{mode:?} observer disagrees");
        }
        // NoRestart performs no rescans at all.
        let mut m: Machine<()> = Machine::new(());
        let spec = free_loop_spec();
        m.add_osm(&spec, InertBehavior);
        m.add_osm(&spec, InertBehavior);
        m.set_restart_policy(RestartPolicy::NoRestart);
        m.run(10).unwrap();
        assert_eq!(m.stats.restarts, 0);
    }

    #[test]
    fn fast_and_seed_schedulers_are_cycle_exact() {
        let run = |mode: SchedulerMode| {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            for _ in 0..4 {
                m.add_osm(&spec, InertBehavior);
            }
            m.set_scheduler_mode(mode);
            m.enable_trace();
            m.run(60).unwrap();
            let digest = m.take_trace().unwrap().digest();
            (
                digest,
                m.stats.transitions,
                m.stats.restarts,
                m.stats.idle_steps,
            )
        };
        assert_eq!(run(SchedulerMode::Fast), run(SchedulerMode::Seed));
    }

    #[test]
    fn scheduler_mode_can_switch_mid_run() {
        let reference = {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            for _ in 0..3 {
                m.add_osm(&spec, InertBehavior);
            }
            m.set_scheduler_mode(SchedulerMode::Seed);
            m.enable_trace();
            m.run(30).unwrap();
            m.take_trace().unwrap().digest()
        };
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        for _ in 0..3 {
            m.add_osm(&spec, InertBehavior);
        }
        m.enable_trace();
        m.run(10).unwrap();
        m.set_scheduler_mode(SchedulerMode::Seed);
        m.run(10).unwrap();
        m.set_scheduler_mode(SchedulerMode::Fast);
        m.run(10).unwrap();
        assert_eq!(m.take_trace().unwrap().digest(), reference);
    }

    #[test]
    fn fast_scheduler_wakes_on_manager_clock_refill() {
        use crate::pools::CountingPool;
        // A per-cycle bandwidth pool wakes blocked OSMs purely through its
        // clock hook (the dirty-returning `TokenManager::clock` path): with
        // one unit per cycle, the junior OSM is denied at cycle 0 and must
        // be re-evaluated — not skipped — once the pool refills.
        let mut m: Machine<()> = Machine::new(());
        let bw = m.add_manager(CountingPool::per_cycle("bw", 1));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let a = b.state("A");
            b.initial(i);
            b.edge(i, a).allocate(bw, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let o0 = m.add_osm(&spec, InertBehavior);
        let o1 = m.add_osm(&spec, InertBehavior);
        m.set_leak_audit(false); // terminal state holds its token by design
        m.step().unwrap();
        assert_eq!(m.osm(o0).state_name(), "A");
        assert_eq!(m.osm(o1).state_name(), "I");
        m.step().unwrap();
        assert_eq!(m.osm(o1).state_name(), "A", "refill did not wake the OSM");
    }

    #[test]
    fn fast_scheduler_wakes_on_external_manager_mutation() {
        // Mutating a manager from outside the control step (here through
        // `downcast_mut`) must invalidate the skip records of OSMs blocked
        // on it.
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let spec = {
            let mut b = SpecBuilder::new("hold");
            let i = b.state("I");
            let h = b.state("H");
            b.initial(i);
            b.edge(i, h).allocate(ma, IdentExpr::Const(0));
            b.edge(h, i).release(ma, IdentExpr::AnyHeld);
            b.build().unwrap()
        };
        let op = m.add_osm(&spec, InertBehavior);
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "H");
        m.managers
            .downcast_mut::<ExclusivePool>(ma)
            .block_release(0, true);
        m.run(5).unwrap(); // blocked — and skipped after the first denial
        assert_eq!(m.osm(op).state_name(), "H");
        assert!(m.stats.idle_steps >= 5);
        m.managers
            .downcast_mut::<ExclusivePool>(ma)
            .block_release(0, false);
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "I", "unblock did not wake the OSM");
    }

    #[test]
    fn fallible_registration_reports_ok_ids() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.try_add_manager(ExclusivePool::new("A", 1)).unwrap();
        let mb = m.try_add_manager(ExclusivePool::new("B", 1)).unwrap();
        assert_eq!(ma, ManagerId(0));
        assert_eq!(mb, ManagerId(1));
        let spec = pipeline_spec(ma, mb);
        let o0 = m.try_add_osm_tagged(&spec, InertBehavior, 7).unwrap();
        assert_eq!(o0, OsmId(0));
        assert_eq!(m.osm(o0).tag(), 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn run_surfaces_token_leak_in_debug_builds() {
        use crate::token::Token;
        // A manager that claims an ownership no OSM's buffer backs up.
        struct Liar;
        impl TokenManager for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn prepare_allocate(&mut self, _: OsmId, _: TokenIdent) -> Option<Token> {
                None
            }
            fn inquire(&self, _: OsmId, _: TokenIdent) -> bool {
                false
            }
            fn prepare_release(&mut self, _: OsmId, _: Token) -> bool {
                false
            }
            fn commit_allocate(&mut self, _: OsmId, _: Token) {}
            fn abort_allocate(&mut self, _: OsmId, _: Token) {}
            fn commit_release(&mut self, _: OsmId, _: Token) {}
            fn abort_release(&mut self, _: OsmId, _: Token) {}
            fn discard(&mut self, _: OsmId, _: Token) {}
            fn owned_tokens(&self) -> Option<Vec<(Token, OsmId)>> {
                Some(vec![(Token::new(ManagerId(0), 0), OsmId(0))])
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut m: Machine<()> = Machine::new(());
        m.add_manager(Liar);
        match m.run(1) {
            Err(ModelError::TokenLeak { problems, .. }) => {
                assert!(!problems.is_empty());
            }
            other => panic!("expected token leak, got {other:?}"),
        }
        // The audit can be turned off.
        m.set_leak_audit(false);
        m.run(1).unwrap();
    }

    #[test]
    fn trace_digest_probes_without_detaching() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        m.add_osm(&spec, InertBehavior);
        assert_eq!(m.trace_digest(), None, "no trace installed yet");
        m.enable_trace_with(Trace::digest_only());
        let empty = m.trace_digest().expect("trace installed");
        m.run(2).unwrap();
        let mid = m.trace_digest().expect("probe mid-run");
        assert_ne!(mid, empty, "digest advances with transitions");
        m.run(1).unwrap();
        // The probe never detached the sink: take_trace still returns it,
        // and its final digest continues from the probed prefix.
        let final_digest = m.trace_digest().unwrap();
        assert_eq!(m.take_trace().unwrap().digest(), final_digest);
    }

    #[test]
    fn state_fingerprint_tracks_operation_state_and_survives_restore() {
        let build = || {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            m.add_osm(&spec, InertBehavior);
            m.add_osm(&spec, InertBehavior);
            m
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        a.run(3).unwrap();
        assert_ne!(
            a.state_fingerprint(),
            b.state_fingerprint(),
            "fingerprint must distinguish different operation states"
        );
        b.run(3).unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        // checkpoint → restore into a fresh machine reproduces the
        // fingerprint exactly (the probe a cut-point oracle compares).
        let ckpt = a.checkpoint().unwrap();
        let mut c = build();
        c.restore(&ckpt).unwrap();
        assert_eq!(c.state_fingerprint(), a.state_fingerprint());
        a.run(1).unwrap();
        c.run(1).unwrap();
        assert_eq!(c.state_fingerprint(), a.state_fingerprint());
    }
}
