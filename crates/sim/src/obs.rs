//! Observability: the [`SimObserver`] hook trait, the bounded [`EventTrace`]
//! ring recorder, and the [`IntervalProfiler`] timeline sampler.
//!
//! The simulator's end-of-run [`crate::RunReport`] says *how much* time went
//! where; this layer says *when*. Every component calls back into a
//! statically-dispatched observer on the interesting transitions — phase
//! boundaries, communication-fabric actions with their Table IV cost class,
//! accesses that leave the private caches, DRAM requests and row conflicts,
//! and coherence interventions.
//!
//! ## Overhead contract
//!
//! All trait methods have inline no-op defaults, and every hot path is
//! generic over the observer type, so a run driven with [`NullObserver`]
//! compiles to exactly the code that existed before this layer: observer-off
//! runs are tick-for-tick identical to unobserved ones (asserted by the
//! determinism tests). Observers never influence simulation state — they are
//! write-only taps.

use crate::clock::Tick;
use crate::coherence::InterventionKind;
use crate::fabric::{CommAction, CommCostClass};
use crate::hierarchy::ServiceLevel;
use hetmem_trace::{CommEvent, CommKind, Phase, PuKind, SpecialOp, TransferDirection};
use std::collections::VecDeque;

/// Default capacity of an [`EventTrace`] ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// The gap (in ticks) that ends a miss burst: two shared-level accesses
/// further apart than this are reported as separate bursts.
pub const DEFAULT_BURST_GAP: Tick = 100_000;

/// Ceiling on recorded timeline samples; later windows are counted but not
/// stored, bounding memory for pathologically small intervals.
pub const MAX_TIMELINE_SAMPLES: usize = 262_144;

/// Callbacks the simulator raises while executing a trace.
///
/// Implementations must be pure observers: the simulator's results are
/// identical for any observer, including [`NullObserver`] (no callbacks
/// overridden), which is the zero-overhead default everywhere.
pub trait SimObserver {
    /// A phase segment begins. `segment` is its ordinal in the trace.
    #[inline]
    fn on_phase_start(&mut self, segment: usize, phase: Phase, now: Tick) {
        let _ = (segment, phase, now);
    }

    /// A phase segment ended, having occupied `[start, end)` in global time.
    #[inline]
    fn on_phase_end(&mut self, segment: usize, phase: Phase, start: Tick, end: Tick) {
        let _ = (segment, phase, start, end);
    }

    /// The communication model realized `event` as `action`, classified
    /// under the Table IV cost class `class`, at global time `now`.
    #[inline]
    fn on_comm(&mut self, event: &CommEvent, action: &CommAction, class: CommCostClass, now: Tick) {
        let _ = (event, action, class, now);
    }

    /// A programming-model special operation executed on `pu` for `ticks`.
    #[inline]
    fn on_special(&mut self, pu: PuKind, op: &SpecialOp, ticks: Tick, now: Tick) {
        let _ = (pu, op, ticks, now);
    }

    /// A load or store by `pu` was serviced by `level` after `latency`.
    #[inline]
    fn on_access(
        &mut self,
        pu: PuKind,
        level: ServiceLevel,
        write: bool,
        latency: Tick,
        now: Tick,
    ) {
        let _ = (pu, level, write, latency, now);
    }

    /// An access by `pu` required a cross-PU coherence intervention.
    #[inline]
    fn on_intervention(&mut self, pu: PuKind, kind: InterventionKind, now: Tick) {
        let _ = (pu, kind, now);
    }

    /// A DRAM request (demand, write-back, or prefetch) was issued.
    #[inline]
    fn on_dram(&mut self, write: bool, row_hit: bool, now: Tick) {
        let _ = (write, row_hit, now);
    }

    /// A dynamic instruction issued on `pu`.
    #[inline]
    fn on_instruction(&mut self, pu: PuKind, now: Tick) {
        let _ = (pu, now);
    }

    /// The engine extrapolated `ticks` of global time across one sampling
    /// skip ending at `now`, rather than simulating them step by step. Only
    /// [`crate::ExecMode::Sampled`] raises this; it is an accounting tap,
    /// not a [`SimEvent`].
    #[inline]
    fn on_fast_forward(&mut self, ticks: Tick, now: Tick) {
        let _ = (ticks, now);
    }

    /// The run finished at global time `now`; flush any pending aggregation.
    #[inline]
    fn on_run_end(&mut self, now: Tick) {
        let _ = now;
    }
}

/// The do-nothing observer: every callback is an inline no-op, so observed
/// code paths compile down to the unobserved ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// One recorded simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A phase segment began.
    PhaseStart {
        /// Segment ordinal in the trace.
        segment: usize,
        /// The segment's phase.
        phase: Phase,
        /// Global start tick.
        at: Tick,
    },
    /// A phase segment ended.
    PhaseEnd {
        /// Segment ordinal in the trace.
        segment: usize,
        /// The segment's phase.
        phase: Phase,
        /// Global start tick.
        at: Tick,
        /// Duration in ticks.
        ticks: Tick,
    },
    /// A communication event was realized by the fabric.
    Comm {
        /// Table IV cost class of the action.
        class: CommCostClass,
        /// Semantic role of the transfer.
        kind: CommKind,
        /// Transfer direction.
        direction: TransferDirection,
        /// Bytes moved.
        bytes: u64,
        /// Host-blocking ticks (synchronous duration or async setup).
        ticks: Tick,
        /// Background ticks overlapped with computation (async transfers).
        overlapped_ticks: Tick,
        /// Global tick the event was planned at.
        at: Tick,
    },
    /// A programming-model special operation executed.
    Special {
        /// The executing PU.
        pu: PuKind,
        /// Serializing cost in ticks.
        ticks: Tick,
        /// Global tick.
        at: Tick,
    },
    /// A burst of consecutive accesses that left `pu`'s private caches.
    MissBurst {
        /// The requesting PU.
        pu: PuKind,
        /// The level that serviced the burst ([`ServiceLevel::Llc`] or
        /// [`ServiceLevel::Dram`]).
        level: ServiceLevel,
        /// Accesses aggregated into the burst.
        count: u64,
        /// Span from the first to the last access, in ticks.
        ticks: Tick,
        /// Global tick of the first access.
        at: Tick,
    },
    /// One DRAM request (`row_hit == false` is a row conflict).
    Dram {
        /// Whether the request was a write.
        write: bool,
        /// Whether it hit the open row.
        row_hit: bool,
        /// Global tick of arrival.
        at: Tick,
    },
    /// A cross-PU coherence intervention.
    Intervention {
        /// The requesting PU (the peer was intervened upon).
        pu: PuKind,
        /// What the intervention did.
        kind: InterventionKind,
        /// Global tick.
        at: Tick,
    },
}

impl SimEvent {
    /// Short machine-readable name of the event kind.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            SimEvent::PhaseStart { .. } => "phase-start",
            SimEvent::PhaseEnd { .. } => "phase-end",
            SimEvent::Comm { .. } => "comm",
            SimEvent::Special { .. } => "special",
            SimEvent::MissBurst { .. } => "miss-burst",
            SimEvent::Dram { .. } => "dram",
            SimEvent::Intervention { .. } => "intervention",
        }
    }
}

/// Exact totals per event family, independent of ring-buffer eviction.
///
/// These are the numbers the golden tests reconcile against the
/// [`crate::RunReport`] counters: `dram_requests == dram.reads + dram.writes`,
/// `dram_row_misses == dram.row_misses`, and
/// `interventions == coherence.invalidations`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Phase segments started.
    pub phase_starts: u64,
    /// Phase segments ended.
    pub phase_ends: u64,
    /// Communication events planned.
    pub comm_events: u64,
    /// Special operations observed.
    pub special_ops: u64,
    /// Miss bursts recorded.
    pub miss_bursts: u64,
    /// Accesses that left the private caches (folded into bursts).
    pub shared_accesses: u64,
    /// DRAM requests issued.
    pub dram_requests: u64,
    /// DRAM requests that missed the open row (row conflicts).
    pub dram_row_misses: u64,
    /// Coherence interventions.
    pub interventions: u64,
    /// Ticks extrapolated across sampling skips rather than executed step
    /// by step — distinct from executed time so sampled-mode observability
    /// stays truthful. Zero under [`crate::ExecMode::Accurate`].
    pub fast_forward_ticks: u64,
}

impl std::ops::AddAssign for EventCounts {
    /// Accumulates another run's totals — how a long-lived service folds
    /// per-request observability counters into its aggregate metrics.
    fn add_assign(&mut self, other: EventCounts) {
        self.phase_starts += other.phase_starts;
        self.phase_ends += other.phase_ends;
        self.comm_events += other.comm_events;
        self.special_ops += other.special_ops;
        self.miss_bursts += other.miss_bursts;
        self.shared_accesses += other.shared_accesses;
        self.dram_requests += other.dram_requests;
        self.dram_row_misses += other.dram_row_misses;
        self.interventions += other.interventions;
        self.fast_forward_ticks += other.fast_forward_ticks;
    }
}

#[derive(Clone, Copy, Debug)]
struct Burst {
    pu: PuKind,
    level: ServiceLevel,
    count: u64,
    at: Tick,
    last: Tick,
}

/// A bounded ring buffer of typed [`SimEvent`]s.
///
/// When the ring is full the oldest event is dropped (and counted); the
/// [`EventCounts`] totals always remain exact. Consecutive accesses serviced
/// by the same shared level are aggregated into [`SimEvent::MissBurst`]
/// records so streaming misses do not flood the ring one entry per line.
#[derive(Clone, Debug)]
pub struct EventTrace {
    ring: VecDeque<SimEvent>,
    capacity: usize,
    dropped: u64,
    counts: EventCounts,
    burst: Option<Burst>,
}

impl Default for EventTrace {
    fn default() -> EventTrace {
        EventTrace::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventTrace {
    /// An empty trace with the default capacity.
    #[must_use]
    pub fn new() -> EventTrace {
        EventTrace::default()
    }

    /// An empty trace retaining at most `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> EventTrace {
        EventTrace {
            ring: VecDeque::with_capacity(capacity.min(DEFAULT_EVENT_CAPACITY)),
            capacity: capacity.max(1),
            dropped: 0,
            counts: EventCounts::default(),
            burst: None,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact per-family totals (unaffected by ring eviction).
    #[must_use]
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    fn record(&mut self, event: SimEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    fn flush_burst(&mut self) {
        if let Some(b) = self.burst.take() {
            self.counts.miss_bursts += 1;
            self.record(SimEvent::MissBurst {
                pu: b.pu,
                level: b.level,
                count: b.count,
                ticks: b.last - b.at,
                at: b.at,
            });
        }
    }
}

impl SimObserver for EventTrace {
    fn on_phase_start(&mut self, segment: usize, phase: Phase, now: Tick) {
        self.flush_burst();
        self.counts.phase_starts += 1;
        self.record(SimEvent::PhaseStart {
            segment,
            phase,
            at: now,
        });
    }

    fn on_phase_end(&mut self, segment: usize, phase: Phase, start: Tick, end: Tick) {
        self.flush_burst();
        self.counts.phase_ends += 1;
        self.record(SimEvent::PhaseEnd {
            segment,
            phase,
            at: start,
            ticks: end - start,
        });
    }

    fn on_comm(&mut self, event: &CommEvent, action: &CommAction, class: CommCostClass, now: Tick) {
        self.counts.comm_events += 1;
        let (ticks, overlapped) = match *action {
            CommAction::Elide => (0, 0),
            CommAction::Synchronous { ticks } => (ticks, 0),
            CommAction::Asynchronous { setup, transfer } => (setup, transfer),
        };
        self.record(SimEvent::Comm {
            class,
            kind: event.kind,
            direction: event.direction,
            bytes: event.bytes,
            ticks,
            overlapped_ticks: overlapped,
            at: now,
        });
    }

    fn on_special(&mut self, pu: PuKind, _op: &SpecialOp, ticks: Tick, now: Tick) {
        self.counts.special_ops += 1;
        self.record(SimEvent::Special { pu, ticks, at: now });
    }

    fn on_access(
        &mut self,
        pu: PuKind,
        level: ServiceLevel,
        _write: bool,
        _latency: Tick,
        now: Tick,
    ) {
        if !matches!(level, ServiceLevel::Llc | ServiceLevel::Dram) {
            return;
        }
        self.counts.shared_accesses += 1;
        match &mut self.burst {
            Some(b)
                if b.pu == pu
                    && b.level == level
                    && now.saturating_sub(b.last) <= DEFAULT_BURST_GAP =>
            {
                b.count += 1;
                b.last = now;
            }
            _ => {
                self.flush_burst();
                self.burst = Some(Burst {
                    pu,
                    level,
                    count: 1,
                    at: now,
                    last: now,
                });
            }
        }
    }

    fn on_intervention(&mut self, pu: PuKind, kind: InterventionKind, now: Tick) {
        self.counts.interventions += 1;
        self.record(SimEvent::Intervention { pu, kind, at: now });
    }

    fn on_dram(&mut self, write: bool, row_hit: bool, now: Tick) {
        self.counts.dram_requests += 1;
        if !row_hit {
            self.counts.dram_row_misses += 1;
        }
        self.record(SimEvent::Dram {
            write,
            row_hit,
            at: now,
        });
    }

    fn on_fast_forward(&mut self, ticks: Tick, _now: Tick) {
        // Counted, never recorded: the ring's event stream must stay
        // identical across execution modes.
        self.counts.fast_forward_ticks += ticks;
    }

    fn on_run_end(&mut self, _now: Tick) {
        self.flush_burst();
    }
}

/// Per-component counters accumulated over one timeline window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Global tick the window starts at.
    pub start: Tick,
    /// Phase active when the window closed.
    pub phase: Phase,
    /// CPU instructions issued in the window.
    pub cpu_instructions: u64,
    /// GPU instructions issued in the window.
    pub gpu_instructions: u64,
    /// Accesses that left the private caches.
    pub shared_accesses: u64,
    /// Accesses the LLC missed (serviced by DRAM).
    pub llc_misses: u64,
    /// DRAM read requests.
    pub dram_reads: u64,
    /// DRAM write requests.
    pub dram_writes: u64,
    /// DRAM row conflicts.
    pub dram_row_misses: u64,
    /// Coherence interventions.
    pub interventions: u64,
    /// Communication events planned in the window.
    pub comm_events: u64,
    /// Host-blocking communication ticks charged in the window.
    pub comm_blocked_ticks: u64,
}

/// Compact aggregate of a timeline, suitable for embedding in sweep records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineSummary {
    /// Sampling interval in ticks.
    pub interval: Tick,
    /// Windows recorded.
    pub samples: u64,
    /// Windows elided past [`MAX_TIMELINE_SAMPLES`].
    pub skipped_windows: u64,
    /// Highest DRAM request count in any window.
    pub peak_dram_requests: u64,
    /// Highest LLC-miss count in any window.
    pub peak_llc_misses: u64,
    /// Highest intervention count in any window.
    pub peak_interventions: u64,
    /// Start tick of the window with the most DRAM requests.
    pub busiest_window_start: Tick,
}

/// Samples per-component counters every `interval` ticks, producing the data
/// behind a per-phase Figure-5-style breakdown at any granularity.
///
/// Windows are aligned to `[k·interval, (k+1)·interval)` in global time;
/// each callback first flushes any windows the clock has passed, so empty
/// windows appear explicitly (with zero counters) rather than as gaps.
#[derive(Clone, Debug)]
pub struct IntervalProfiler {
    interval: Tick,
    window_start: Tick,
    phase: Phase,
    acc: TimelineSample,
    samples: Vec<TimelineSample>,
    skipped_windows: u64,
}

impl IntervalProfiler {
    /// A profiler sampling every `interval` ticks (clamped to at least 1).
    #[must_use]
    pub fn new(interval: Tick) -> IntervalProfiler {
        IntervalProfiler {
            interval: interval.max(1),
            window_start: 0,
            phase: Phase::Sequential,
            acc: TimelineSample::default(),
            samples: Vec::new(),
            skipped_windows: 0,
        }
    }

    /// The sampling interval in ticks.
    #[must_use]
    pub fn interval(&self) -> Tick {
        self.interval
    }

    /// Recorded windows, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[TimelineSample] {
        &self.samples
    }

    /// Windows elided past [`MAX_TIMELINE_SAMPLES`].
    #[must_use]
    pub fn skipped_windows(&self) -> u64 {
        self.skipped_windows
    }

    fn flush_window(&mut self) {
        let mut sample = std::mem::take(&mut self.acc);
        sample.start = self.window_start;
        sample.phase = self.phase;
        if self.samples.len() < MAX_TIMELINE_SAMPLES {
            self.samples.push(sample);
        } else {
            self.skipped_windows += 1;
        }
        self.window_start += self.interval;
    }

    /// Flushes every window the clock has fully passed.
    fn roll(&mut self, now: Tick) {
        while now >= self.window_start + self.interval {
            self.flush_window();
        }
    }

    /// Aggregates the recorded timeline.
    #[must_use]
    pub fn summary(&self) -> TimelineSummary {
        let mut s = TimelineSummary {
            interval: self.interval,
            samples: self.samples.len() as u64,
            skipped_windows: self.skipped_windows,
            ..TimelineSummary::default()
        };
        for w in &self.samples {
            let dram = w.dram_reads + w.dram_writes;
            if dram > s.peak_dram_requests {
                s.peak_dram_requests = dram;
                s.busiest_window_start = w.start;
            }
            s.peak_llc_misses = s.peak_llc_misses.max(w.llc_misses);
            s.peak_interventions = s.peak_interventions.max(w.interventions);
        }
        s
    }
}

impl SimObserver for IntervalProfiler {
    fn on_phase_start(&mut self, _segment: usize, phase: Phase, now: Tick) {
        self.roll(now);
        self.phase = phase;
    }

    fn on_phase_end(&mut self, _segment: usize, _phase: Phase, _start: Tick, end: Tick) {
        self.roll(end);
    }

    fn on_comm(
        &mut self,
        _event: &CommEvent,
        action: &CommAction,
        _class: CommCostClass,
        now: Tick,
    ) {
        self.roll(now);
        self.acc.comm_events += 1;
        self.acc.comm_blocked_ticks += match *action {
            CommAction::Elide => 0,
            CommAction::Synchronous { ticks } => ticks,
            CommAction::Asynchronous { setup, .. } => setup,
        };
    }

    fn on_special(&mut self, _pu: PuKind, _op: &SpecialOp, _ticks: Tick, now: Tick) {
        self.roll(now);
    }

    fn on_access(
        &mut self,
        _pu: PuKind,
        level: ServiceLevel,
        _write: bool,
        _latency: Tick,
        now: Tick,
    ) {
        self.roll(now);
        match level {
            ServiceLevel::Llc => self.acc.shared_accesses += 1,
            ServiceLevel::Dram => {
                self.acc.shared_accesses += 1;
                self.acc.llc_misses += 1;
            }
            ServiceLevel::L1 | ServiceLevel::L2 => {}
        }
    }

    fn on_intervention(&mut self, _pu: PuKind, _kind: InterventionKind, now: Tick) {
        self.roll(now);
        self.acc.interventions += 1;
    }

    fn on_dram(&mut self, write: bool, row_hit: bool, now: Tick) {
        self.roll(now);
        if write {
            self.acc.dram_writes += 1;
        } else {
            self.acc.dram_reads += 1;
        }
        if !row_hit {
            self.acc.dram_row_misses += 1;
        }
    }

    fn on_instruction(&mut self, pu: PuKind, now: Tick) {
        self.roll(now);
        match pu {
            PuKind::Cpu => self.acc.cpu_instructions += 1,
            PuKind::Gpu => self.acc.gpu_instructions += 1,
        }
    }

    fn on_run_end(&mut self, now: Tick) {
        self.roll(now);
        // Flush the final partial window so trailing activity is visible.
        if self.acc != TimelineSample::default() || now > self.window_start {
            self.flush_window();
        }
    }
}

/// An event trace and/or an interval profiler behind one observer, for
/// callers (like the CLI) that attach either or both at runtime.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Typed event recording, when enabled.
    pub events: Option<EventTrace>,
    /// Timeline sampling, when enabled.
    pub timeline: Option<IntervalProfiler>,
}

impl Recorder {
    /// A recorder with the given parts enabled.
    #[must_use]
    pub fn new(events: Option<EventTrace>, timeline: Option<IntervalProfiler>) -> Recorder {
        Recorder { events, timeline }
    }
}

macro_rules! fan_out {
    ($self:ident, $method:ident ( $($arg:expr),* )) => {{
        if let Some(e) = $self.events.as_mut() {
            e.$method($($arg),*);
        }
        if let Some(t) = $self.timeline.as_mut() {
            t.$method($($arg),*);
        }
    }};
}

impl SimObserver for Recorder {
    fn on_phase_start(&mut self, segment: usize, phase: Phase, now: Tick) {
        fan_out!(self, on_phase_start(segment, phase, now));
    }

    fn on_phase_end(&mut self, segment: usize, phase: Phase, start: Tick, end: Tick) {
        fan_out!(self, on_phase_end(segment, phase, start, end));
    }

    fn on_comm(&mut self, event: &CommEvent, action: &CommAction, class: CommCostClass, now: Tick) {
        fan_out!(self, on_comm(event, action, class, now));
    }

    fn on_special(&mut self, pu: PuKind, op: &SpecialOp, ticks: Tick, now: Tick) {
        fan_out!(self, on_special(pu, op, ticks, now));
    }

    fn on_access(
        &mut self,
        pu: PuKind,
        level: ServiceLevel,
        write: bool,
        latency: Tick,
        now: Tick,
    ) {
        fan_out!(self, on_access(pu, level, write, latency, now));
    }

    fn on_intervention(&mut self, pu: PuKind, kind: InterventionKind, now: Tick) {
        fan_out!(self, on_intervention(pu, kind, now));
    }

    fn on_dram(&mut self, write: bool, row_hit: bool, now: Tick) {
        fan_out!(self, on_dram(write, row_hit, now));
    }

    fn on_instruction(&mut self, pu: PuKind, now: Tick) {
        fan_out!(self, on_instruction(pu, now));
    }

    fn on_fast_forward(&mut self, ticks: Tick, now: Tick) {
        fan_out!(self, on_fast_forward(ticks, now));
    }

    fn on_run_end(&mut self, now: Tick) {
        fan_out!(self, on_run_end(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = EventTrace::with_capacity(2);
        for i in 0..5u64 {
            t.on_dram(false, true, i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.counts().dram_requests, 5);
        let kept: Vec<Tick> = t
            .events()
            .map(|e| match e {
                SimEvent::Dram { at, .. } => *at,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn consecutive_shared_accesses_form_one_burst() {
        let mut t = EventTrace::new();
        for i in 0..10u64 {
            t.on_access(PuKind::Gpu, ServiceLevel::Dram, false, 100, i * 1_000);
        }
        t.on_run_end(10_000);
        assert_eq!(t.counts().miss_bursts, 1);
        assert_eq!(t.counts().shared_accesses, 10);
        let first = *t.events().next().expect("one event");
        match first {
            SimEvent::MissBurst { count, ticks, .. } => {
                assert_eq!(count, 10);
                assert_eq!(ticks, 9_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gap_or_level_change_splits_bursts() {
        let mut t = EventTrace::new();
        t.on_access(PuKind::Cpu, ServiceLevel::Dram, false, 1, 0);
        t.on_access(
            PuKind::Cpu,
            ServiceLevel::Dram,
            false,
            1,
            DEFAULT_BURST_GAP + 2,
        );
        t.on_access(
            PuKind::Cpu,
            ServiceLevel::Llc,
            false,
            1,
            DEFAULT_BURST_GAP + 3,
        );
        t.on_run_end(DEFAULT_BURST_GAP + 4);
        assert_eq!(t.counts().miss_bursts, 3);
    }

    #[test]
    fn private_hits_are_not_recorded() {
        let mut t = EventTrace::new();
        t.on_access(PuKind::Cpu, ServiceLevel::L1, false, 1, 0);
        t.on_access(PuKind::Cpu, ServiceLevel::L2, true, 1, 10);
        t.on_run_end(20);
        assert!(t.is_empty());
        assert_eq!(t.counts().shared_accesses, 0);
    }

    #[test]
    fn profiler_windows_align_and_flush() {
        let mut p = IntervalProfiler::new(1_000);
        p.on_instruction(PuKind::Cpu, 10);
        p.on_instruction(PuKind::Cpu, 990);
        p.on_instruction(PuKind::Gpu, 1_500);
        p.on_dram(false, false, 2_500);
        p.on_run_end(2_600);
        let s = p.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].start, 0);
        assert_eq!(s[0].cpu_instructions, 2);
        assert_eq!(s[1].gpu_instructions, 1);
        assert_eq!(s[2].dram_reads, 1);
        assert_eq!(s[2].dram_row_misses, 1);
        let summary = p.summary();
        assert_eq!(summary.samples, 3);
        assert_eq!(summary.peak_dram_requests, 1);
        assert_eq!(summary.busiest_window_start, 2_000);
    }

    #[test]
    fn profiler_attributes_windows_to_the_active_phase() {
        let mut p = IntervalProfiler::new(100);
        p.on_phase_start(0, Phase::Parallel, 0);
        p.on_instruction(PuKind::Gpu, 50);
        p.on_phase_end(0, Phase::Parallel, 0, 250);
        p.on_phase_start(1, Phase::Communication, 250);
        p.on_run_end(300);
        let s = p.samples();
        assert!(s.len() >= 3);
        assert_eq!(s[0].phase, Phase::Parallel);
        assert_eq!(s.last().expect("non-empty").phase, Phase::Communication);
    }

    #[test]
    fn event_counts_accumulate() {
        let mut total = EventCounts::default();
        let one = EventCounts {
            dram_requests: 3,
            dram_row_misses: 1,
            comm_events: 2,
            ..Default::default()
        };
        total += one;
        total += one;
        assert_eq!(total.dram_requests, 6);
        assert_eq!(total.dram_row_misses, 2);
        assert_eq!(total.comm_events, 4);
        assert_eq!(total.phase_starts, 0);
    }

    #[test]
    fn recorder_fans_out_to_both_parts() {
        let mut r = Recorder::new(Some(EventTrace::new()), Some(IntervalProfiler::new(1_000)));
        r.on_dram(true, false, 10);
        r.on_run_end(20);
        assert_eq!(r.events.as_ref().expect("events").counts().dram_requests, 1);
        assert_eq!(
            r.timeline.as_ref().expect("timeline").samples()[0].dram_writes,
            1
        );
    }
}
