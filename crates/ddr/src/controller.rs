//! An open-page, in-order DDR4 controller model.
//!
//! Fidelity targets the bandwidth behaviour the paper's experiments hinge
//! on, at command granularity:
//!
//! * per-bank row state — row hits stream back-to-back, conflicts pay
//!   precharge + activate;
//! * activate pacing (tRRD, tFAW) — the real limiter of scattered access
//!   with deep queues;
//! * a configurable **lookahead** (outstanding-request depth) — a master
//!   with one outstanding read is latency-bound, a deep datamover is
//!   bandwidth-bound;
//! * periodic refresh (tREFI/tRFC) and read↔write bus turnaround.

use crate::config::DdrConfig;
use crate::stats::DdrStats;
use crate::telemetry::DdrCounters;
use std::collections::VecDeque;

/// An open bank's row and the cycle it was activated (for tRAS). A closed
/// bank holds nothing: its next activate waits only on the access's
/// arrival and the activate history.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenRow {
    row: u64,
    act_at: u64,
}

/// The four most recent activate times (for tRRD/tFAW pacing).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ActHistory {
    /// Oldest first: the latest activate is `times[3]`, and only the last
    /// `len` entries have been recorded.
    times: [u64; 4],
    len: usize,
}

impl ActHistory {
    fn push(&mut self, t_act: u64) {
        let [_, a, b, c] = self.times;
        self.times = [a, b, c, t_act];
        self.len = (self.len + 1).min(4);
    }

    /// The history with every entry, stale ones too, moved `by` cycles
    /// modulo 2^64 (`S.wrapping_neg()` makes it relative to cycle `S`).
    fn shifted(self, by: u64) -> ActHistory {
        ActHistory {
            times: self.times.map(|t| t.wrapping_add(by)),
            ..self
        }
    }

    /// The earliest cycle the next activate may issue: tRRD after the
    /// latest activate and tFAW after the fourth-latest.
    fn pacing(&self, trrd: u64, tfaw: u64) -> u64 {
        let rrd = if self.len > 0 {
            self.times[3] + trrd
        } else {
            0
        };
        let faw = if self.len == 4 {
            self.times[0] + tfaw
        } else {
            0
        };
        rrd.max(faw)
    }
}

/// How an access finds its bank's row.
#[derive(Debug, Clone, Copy)]
enum RowOpen {
    /// The row is already open.
    Hit,
    /// The bank is idle: activate at the given cycle.
    Miss(u64),
    /// Another row is open: precharge, then activate at the given cycle.
    Conflict(u64),
}

impl RowOpen {
    /// When the access's CAS can issue.
    fn cas_ready(self, arrival: u64, trcd: u64) -> u64 {
        match self {
            RowOpen::Hit => arrival,
            RowOpen::Miss(t_act) | RowOpen::Conflict(t_act) => t_act + trcd,
        }
    }
}

/// A run of a stretch's accesses with no refresh between them: access
/// `j ≥ start` starts its data transfer at bus cycle `bus + (j - start)·cpa`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u64,
    bus: u64,
}

/// The current segment of a stretch and the one before it.
#[derive(Debug, Clone, Copy)]
struct Segments {
    cpa: u64,
    prev: Segment,
    cur: Segment,
}

impl Segments {
    /// The bus cycle access `j` of the stretch starts its transfer (`j`
    /// in the current segment or the one before it).
    fn slot(&self, j: u64) -> u64 {
        let s = if j >= self.cur.start {
            self.cur
        } else {
            self.prev
        };
        s.bus + (j - s.start) * self.cpa
    }

    /// Both segments moved `accesses` accesses and `cycles` bus cycles on.
    fn shifted(self, accesses: u64, cycles: u64) -> Segments {
        let shift = |s: Segment| Segment {
            start: s.start + accesses,
            bus: s.bus + cycles,
        };
        Segments {
            cpa: self.cpa,
            prev: shift(self.prev),
            cur: shift(self.cur),
        }
    }
}

/// What pricing a refresh segment depends on, every time taken relative
/// to the segment's first bus slot `S` (see [`DdrController::stretch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegmentKey {
    /// Row-window offset of the segment's first access.
    offset: u64,
    /// `next_refresh - S`, which fixes the segment's length.
    to_refresh: u64,
    write: bool,
    /// `S` minus the slot the previous segment's grid gives the first
    /// access, which fixes the arrivals read from that grid.
    lag: u64,
    /// The activate history, relative to `S`.
    acts: ActHistory,
}

/// How a walked refresh segment priced, relative to its first slot `S`.
#[derive(Debug, Clone, Copy)]
struct SegmentOutcome {
    key: SegmentKey,
    /// Its hits, misses and conflicts.
    counts: DdrStats,
    /// The activate history at the segment's end, relative to `S`.
    acts: ActHistory,
}

/// Segment outcomes in a direct-mapped table indexed by the key's window
/// offset, `to_refresh mod cpa` and direction, each checked against its
/// full key, allocated once, at the first record.
#[derive(Debug, Clone, Default)]
struct SegmentMemo {
    slots: Vec<Option<SegmentOutcome>>,
}

impl SegmentMemo {
    /// The table's length: `window·cpa·2`, at most 4,096 for geometries
    /// with very long row windows.
    fn len(geo: &Geometry) -> u64 {
        (geo.window * geo.cpa * 2).min(1 << 12)
    }

    fn slot(key: &SegmentKey, geo: &Geometry) -> usize {
        let i = (key.offset * geo.cpa + key.to_refresh % geo.cpa) * 2 + key.write as u64;
        (i % Self::len(geo)) as usize
    }

    /// The slot holding the outcome recorded under `key`, and the outcome.
    fn get(&self, key: &SegmentKey, geo: &Geometry) -> Option<(usize, SegmentOutcome)> {
        let i = Self::slot(key, geo);
        let out = self.slots.get(i)?.as_ref().filter(|o| o.key == *key)?;
        Some((i, *out))
    }

    /// Records how segment `rec` priced, given the stretch's counts and
    /// activate history at its refresh.
    fn record(&mut self, rec: Recording, counts: DdrStats, acts: ActHistory, geo: &Geometry) {
        if self.slots.is_empty() {
            self.slots.resize(Self::len(geo) as usize, None);
        }
        self.slots[Self::slot(&rec.key, geo)] = Some(SegmentOutcome {
            key: rec.key,
            counts: counts - rec.counts,
            acts: acts.shifted(rec.bus.wrapping_neg()),
        });
    }
}

/// A segment being walked for the memo: its key and first slot, and the
/// stretch's counts at its start.
#[derive(Debug, Clone, Copy)]
struct Recording {
    key: SegmentKey,
    bus: u64,
    counts: DdrStats,
}

/// The stretch after one replay of a chain: the replay's memo slot and
/// first bus slot `S`, and the stretch's accesses and counts after it.
#[derive(Debug, Clone, Copy)]
struct ChainLink {
    slot: usize,
    bus: u64,
    j: u64,
    counts: DdrStats,
}

/// The replays of an unbroken chain (see [`DdrController::stretch`]), in
/// order, and per memo slot the index of the chain's replay of it.
#[derive(Debug, Clone, Default)]
struct Chain {
    links: Vec<ChainLink>,
    /// Allocated once, at the first link, with one entry per memo slot.
    seen: Vec<Option<usize>>,
}

impl Chain {
    /// Appends `link`, or returns the chain's earlier replay of the same
    /// slot and the number of replays from it up to `link`: one period.
    fn push(&mut self, link: ChainLink, slots: usize) -> Option<(ChainLink, u64)> {
        if self.seen.is_empty() {
            self.seen.resize(slots, None);
        }
        if let Some(i) = self.seen[link.slot] {
            return Some((self.links[i], (self.links.len() - i) as u64));
        }
        self.seen[link.slot] = Some(self.links.len());
        self.links.push(link);
        None
    }

    /// Ends the chain.
    fn reset(&mut self) {
        for link in self.links.drain(..) {
            self.seen[link.slot] = None;
        }
    }
}

/// The controller. Time is measured in DRAM clock cycles from construction.
///
/// # Example
///
/// ```
/// use zllm_ddr::{DdrConfig, DdrController};
///
/// let mut ctrl = DdrController::new(DdrConfig::ddr4_2400_kv260(), 8);
/// let t0 = ctrl.access(0, false);
/// let t1 = ctrl.access(64, false); // row hit: 4 more bus cycles
/// assert_eq!(t1 - t0, 4);
/// ```
#[derive(Debug, Clone)]
pub struct DdrController {
    cfg: DdrConfig,
    /// Each bank's open row, `None` while it is closed.
    banks: Vec<Option<OpenRow>>,
    /// First cycle the data bus is free.
    bus_next: u64,
    /// Last access direction (for turnaround accounting).
    last_write: Option<bool>,
    /// Times of the most recent activates (for tRRD/tFAW pacing).
    recent_acts: ActHistory,
    /// Last CAS issue time per bank group (for tCCD_L pacing).
    last_cas_per_group: Vec<u64>,
    /// Next scheduled refresh.
    next_refresh: u64,
    /// Completion times of recent accesses (for the lookahead window).
    completions: VecDeque<u64>,
    lookahead: usize,
    counters: DdrCounters,
    /// Whether [`Self::burst`] may price bus-bound stretches in one step.
    /// On by default; the per-access path is kept reachable for
    /// differential testing.
    fast_path: bool,
    /// Address-map geometry derived from `cfg` once at construction, so
    /// a stretch walks the map without recomputing its constants.
    geo: Geometry,
    /// Refresh segments [`Self::stretch`] has walked, for replay.
    memo: SegmentMemo,
    /// The running stretch's chain of replays; empty between stretches.
    chain: Chain,
    /// Calls of [`Self::access`] so far; row-window pieces walked,
    /// refresh segments replayed and refresh epochs jumped in whole
    /// periods by [`Self::stretch`]. Outside the telemetry snapshot: they
    /// measure how the simulator priced the accesses, not the device.
    per_access_steps: u64,
    window_steps: u64,
    segment_replays: u64,
    jumped_epochs: u64,
}

/// Derived address-map constants (see [`DdrConfig::map_address`]).
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Bytes per column access.
    bpa: u64,
    /// Data-bus cycles per column access.
    cpa: u64,
    /// Bank-group count (≥ 1).
    bgc: u64,
    /// Banks per group (≥ 1).
    bpg: u64,
    /// Accesses per row window (`bank_groups × cols_per_bg`): the span a
    /// sequential stream covers before needing fresh activates.
    window: u64,
}

impl Geometry {
    fn of(cfg: &DdrConfig) -> Geometry {
        let bgc = cfg.bank_groups.max(1) as u64;
        let cols_per_bg = (cfg.accesses_per_row() / bgc).max(1);
        Geometry {
            bpa: cfg.bytes_per_access(),
            cpa: cfg.cycles_per_access(),
            bgc,
            bpg: (cfg.banks as u64 / bgc).max(1),
            window: bgc * cols_per_bg,
        }
    }

    /// Row window `(bank_in_group, row)` moved `windows` windows on.
    fn advance(&self, (bank_in_group, row): (u64, u64), windows: u64) -> (u64, u64) {
        let w = row * self.bpg + bank_in_group + windows;
        (w % self.bpg, w / self.bpg)
    }
}

impl DdrController {
    /// Creates a controller.
    ///
    /// `lookahead` is the number of outstanding requests the master keeps
    /// in flight: 1 models a blocking reader; 8 models the AXI DataMover
    /// configuration of the accelerator's MCU.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero or the bank geometry or refresh
    /// timing is invalid (see [`Self::with_counters`]).
    pub fn new(cfg: DdrConfig, lookahead: usize) -> DdrController {
        DdrController::with_counters(cfg, lookahead, DdrCounters::detached())
    }

    /// Creates a controller publishing into the given telemetry handles
    /// (typically obtained from [`DdrCounters::register`]).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero, if `banks` is not a positive
    /// multiple of `bank_groups` (a group count of zero counts as one),
    /// or if refresh never lets the bus run: `trefi` is zero or `trfc` is
    /// not shorter than it.
    pub fn with_counters(cfg: DdrConfig, lookahead: usize, counters: DdrCounters) -> DdrController {
        assert!(lookahead > 0, "lookahead must be at least 1");
        assert!(
            cfg.banks > 0 && cfg.banks.is_multiple_of(cfg.bank_groups.max(1)),
            "banks ({}) must be a positive multiple of bank_groups ({})",
            cfg.banks,
            cfg.bank_groups
        );
        assert!(cfg.trefi > 0, "trefi must be at least 1");
        assert!(cfg.trfc < cfg.trefi, "trfc must be shorter than trefi");
        let banks = vec![None; cfg.banks as usize];
        let next_refresh = cfg.trefi as u64;
        let last_cas_per_group = vec![0u64; cfg.bank_groups.max(1) as usize];
        let geo = Geometry::of(&cfg);
        DdrController {
            cfg,
            banks,
            bus_next: 0,
            last_write: None,
            recent_acts: ActHistory::default(),
            last_cas_per_group,
            next_refresh,
            completions: VecDeque::with_capacity(lookahead + 1),
            lookahead,
            counters,
            fast_path: true,
            geo,
            memo: SegmentMemo::default(),
            chain: Chain::default(),
            per_access_steps: 0,
            window_steps: 0,
            segment_replays: 0,
            jumped_epochs: 0,
        }
    }

    /// Enables or disables the closed-form burst fast path (on by
    /// default). Disabling forces [`Self::burst`] through the per-access
    /// reference path; results are bit-identical either way — the toggle
    /// exists so differential tests can prove exactly that.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// The configuration.
    pub fn config(&self) -> &DdrConfig {
        &self.cfg
    }

    /// Cumulative statistics (a value-type view over the live counters).
    pub fn stats(&self) -> DdrStats {
        self.counters.view()
    }

    /// The telemetry handles this controller publishes into.
    pub fn counters(&self) -> &DdrCounters {
        &self.counters
    }

    /// Current cycle (when the bus next falls idle).
    pub fn now(&self) -> u64 {
        self.bus_next
    }

    /// Performs one column access (64 bytes on the KV260) and returns the
    /// cycle its data transfer completes. Accesses complete in order.
    pub fn access(&mut self, addr: u64, write: bool) -> u64 {
        self.per_access_steps += 1;
        let cfg = &self.cfg;

        // The request cannot be processed before the master has a free
        // outstanding slot.
        let arrival = if self.completions.len() >= self.lookahead {
            self.completions[self.completions.len() - self.lookahead]
        } else {
            0
        };

        // Refresh: when the bus timeline crosses tREFI, all banks close and
        // the device is busy for tRFC.
        while self.bus_next.max(arrival) >= self.next_refresh {
            self.banks.fill(None);
            let refresh_start = self.next_refresh.max(self.bus_next);
            self.bus_next = refresh_start + cfg.trfc as u64;
            self.next_refresh += cfg.trefi as u64;
            self.counters.refreshes.inc();
        }

        let (row, bank_idx, _col) = cfg.map_address(addr);
        let bank = bank_idx as usize;
        let open = self.row_open(bank, row, arrival);
        match open {
            RowOpen::Hit => self.counters.row_hits.inc(),
            RowOpen::Miss(t) => {
                self.counters.row_misses.inc();
                self.activate(bank, row, t);
            }
            RowOpen::Conflict(t) => {
                self.counters.row_conflicts.inc();
                self.activate(bank, row, t);
            }
        }
        let cfg = &self.cfg;
        let cas_ready = open.cas_ready(arrival, cfg.trcd as u64);

        // Bus turnaround on direction change.
        if let Some(prev) = self.last_write {
            if prev != write {
                self.bus_next += if write {
                    cfg.trtw as u64
                } else {
                    cfg.twtr as u64
                };
                self.counters.turnarounds.inc();
            }
        }
        self.last_write = Some(write);

        // Same-bank-group CAS spacing (tCCD_L). Cross-group spacing
        // (tCCD_S) equals the burst occupancy and is absorbed by the bus
        // accounting below.
        let group = cfg.bank_group_of(bank_idx) as usize;
        let cas_at = cas_ready.max(self.last_cas_per_group[group] + cfg.tccd_l as u64);

        let latency = if write { cfg.cwl as u64 } else { cfg.cl as u64 };
        let data_start = (cas_at + latency).max(self.bus_next);
        let data_end = data_start + cfg.cycles_per_access();
        self.bus_next = data_end;
        // Record when the CAS *effectively* issued (bus backpressure
        // delays it), so same-group pacing measures real command spacing.
        self.last_cas_per_group[group] = data_start - latency;

        if write {
            self.counters.writes.inc();
        } else {
            self.counters.reads.inc();
        }

        self.completions.push_back(data_end);
        while self.completions.len() > self.lookahead {
            self.completions.pop_front();
        }
        data_end
    }

    /// How an access to `row` of `bank` arriving at `arrival` finds the
    /// bank, with the activate time when the row must open: a precharge
    /// waits tRAS after the bank's last activate and takes tRP, and
    /// activates across banks are paced by tRRD and tFAW.
    fn row_open(&self, bank: usize, row: u64, arrival: u64) -> RowOpen {
        let cfg = &self.cfg;
        let pacing = self.recent_acts.pacing(cfg.trrd as u64, cfg.tfaw as u64);
        match self.banks[bank] {
            Some(open) if open.row == row => RowOpen::Hit,
            Some(open) => {
                let t_pre = arrival.max(open.act_at + cfg.tras as u64);
                RowOpen::Conflict((t_pre + cfg.trp as u64).max(pacing))
            }
            None => RowOpen::Miss(arrival.max(pacing)),
        }
    }

    /// Opens `row` in `bank` at cycle `t_act` and records the activate
    /// for pacing.
    fn activate(&mut self, bank: usize, row: u64, t_act: u64) {
        self.banks[bank] = Some(OpenRow { row, act_at: t_act });
        self.recent_acts.push(t_act);
    }

    /// Runs a whole burst (consecutive accesses) and returns the completion
    /// cycle of its last beat.
    ///
    /// With the fast path enabled (the default, see
    /// [`Self::set_fast_path`]) a burst is priced as one *stretch*: a run
    /// of accesses whose data transfers each start the moment the bus
    /// frees, advanced without calling [`Self::access`]. A stretch crosses
    /// row windows and refresh epochs, replays a refresh epoch whose
    /// inputs match one the controller has priced before, and adds whole
    /// periods of replayed epochs at once (see `stretch`).
    /// It ends only at the end of the burst, at a change of bus direction,
    /// or at the first access that would wait for something other than the
    /// bus (an activate, the lookahead window, tCCD_L or CAS latency); that
    /// access goes through [`Self::access`] and a new stretch starts after
    /// it. The two paths
    /// produce **bit-identical** cycle counts, statistics, telemetry and
    /// controller state — see the differential tests and the `proptest`
    /// suite.
    pub fn burst(&mut self, addr: u64, beats: u32, write: bool) -> u64 {
        let step = self.geo.bpa;
        let total = beats as u64;
        let mut end = self.bus_next;
        let mut i = 0u64;
        while i < total {
            if self.fast_path {
                let n = self.stretch(addr + i * step, total - i, write);
                if n > 0 {
                    end = self.bus_next;
                    i += n;
                    continue;
                }
            }
            end = self.access(addr + i * step, write);
            i += 1;
        }
        end
    }

    /// Prices the longest bus-bound run of at most `max_n` consecutive
    /// accesses from `addr` and returns its length; 0 leaves the next
    /// access to [`Self::access`] (a refresh due at it may already be
    /// done).
    ///
    /// **Bus slots.** Refreshes cut a stretch into *segments*. Access `j`
    /// of a segment that starts at access `s` on bus cycle `S` transfers
    /// at its slot `T_j = S + (j - s)·cpa` exactly when its CAS is ready
    /// `latency` cycles before. Its request arrives when access `j -
    /// lookahead` completes; completions are at least `cpa` apart and the
    /// latest is at `T_j`, so `latency ≤ (lookahead - 1)·cpa` covers the
    /// arrival of every row hit. Each access after the first
    /// `bank_groups` paces tCCD_L against the stretch's access
    /// `bank_groups` earlier, at least `bank_groups·cpa` before, which the
    /// precondition `tCCD_L ≤ bank_groups·cpa` covers. The first
    /// `bank_groups` pace against CAS times issued before the stretch and
    /// are checked one by one (a refresh gap at the head would hide a
    /// broken precondition from that check). So only an *opener*, an
    /// access that is the first in its segment to touch one of its row
    /// window's banks, can wait on anything but the bus: a window's first
    /// `bank_groups` accesses and the first `bank_groups` after a refresh.
    /// Each opener is priced with [`Self::access`]'s arithmetic.
    ///
    /// **Refresh.** At the access whose slot reaches the next refresh the
    /// stretch does what [`Self::access`] does: it closes every bank and
    /// moves the bus to `max(next_refresh, T_j) + tRFC`, once per refresh
    /// due, and a new segment starts there. Arrivals and the final timing
    /// state read up to `max(lookahead, bank_groups)` accesses back, which
    /// must lie in the current segment, the one before it or before the
    /// stretch; so a segment shorter than that, other than the first, ends
    /// the stretch at its refresh.
    ///
    /// **Segment replay.** Take a segment other than the first, starting
    /// at access `j ≥ bank_groups` on slot `S`, at least `lookahead`
    /// accesses after the previous segment's start, and reaching its
    /// refresh inside the burst: no head check runs in it and its early
    /// arrivals come from the previous segment's slot grid. Every bank is
    /// closed at `S`, and window `w` opens bank `w mod banks_per_group` of
    /// each group at row `w / banks_per_group`, so an access finds its row
    /// open exactly when its own window opened the bank in the segment.
    /// The walk thus reads only the first window offset, `next_refresh -
    /// S`, the direction, the previous grid's slot for access `j`, the
    /// activate history and what it sets itself, and each decision compares
    /// two times or two rows. Moving all times by Δ and all windows by `k`
    /// moves its outcome by Δ and `k`. So the stretch records each such
    /// segment it walks to its refresh under those inputs taken relative
    /// to `S` (the history's length and all four entries), and replays a
    /// later segment with an equal key: it adds the recorded counts, sets
    /// the activate history to the recorded one moved to `S`, and moves
    /// on to the segment's refresh.
    ///
    /// A replay writes no bank state. A replayed segment is at least
    /// `max(lookahead, bank_groups)` accesses long and ends inside the
    /// burst, so the stretch always reaches the refresh that ends it, and
    /// nothing reads a bank before then. That refresh closes every bank,
    /// and a closed bank holds no activate time: a bank's activate time is
    /// read only while it is open, for tRAS before a conflict's precharge.
    /// So the rows and activate times the replayed segment left never
    /// decide anything, and the stretch closes the banks only when it goes
    /// on to walk.
    ///
    /// **Period jump.** A *chain* is a run of replays with no walk since
    /// it began. The memo records only at the refresh that ends a walked
    /// segment, so during a chain each slot holds one key, and two replays
    /// of one slot replay one key. The stretch after a chained replay,
    /// taken relative to the replay's first access, `S` and first window,
    /// is a function of that key:
    ///
    /// * the next segment starts `len = ⌈to_refresh / cpa⌉` accesses on,
    ///   at window offset `offset + len mod window`;
    /// * the refreshes due there, and so the next `to_refresh` and `lag`,
    ///   follow from `to_refresh` and the timing;
    /// * the next activate history is the recorded one, moved to the next
    ///   `S`;
    /// * nothing reads the bank state until the chain ends, and the
    ///   stretch then closes every bank.
    ///
    /// So a chain's keys walk a functional graph. When a replay uses a slot
    /// an earlier replay of its chain used, the stretch after it is the
    /// stretch after the earlier one moved by one period: `ΔL` accesses
    /// (whole windows, as the offsets match), `ΔT` bus cycles (whole
    /// refresh intervals, as `to_refresh` matches) and the counts the
    /// period added, its refreshes included. The replays after it repeat
    /// the period for as long as they stay replayable, and of those
    /// conditions only `j + len < max_n` depends on where a segment lies.
    /// So the stretch adds `k` periods at once, `k` the largest that keeps
    /// the last jumped replay's end inside the burst: it moves `j`, both
    /// segments, the next refresh, the activate history and the row window
    /// by `k·ΔL` accesses, `k·ΔT` cycles and `k·ΔL / window` windows, and
    /// adds `k` times the period's counts. Each slot keeps the index of its
    /// replay in the chain, so the first repeat is found when it happens,
    /// one period after the replay it repeats. A walk or a jump ends the
    /// chain.
    ///
    /// The stretch keeps its counts in one [`DdrStats`] ledger, which the
    /// memo records, a replay adds and a jump multiplies, and publishes it
    /// once, at its end.
    fn stretch(&mut self, addr: u64, max_n: u64, write: bool) -> u64 {
        let geo = self.geo;
        let Geometry {
            bpa,
            cpa,
            bgc,
            bpg,
            window,
        } = geo;
        let cfg = &self.cfg;
        let l = self.lookahead as u64;
        let lat = if write { cfg.cwl } else { cfg.cl } as u64;
        let (trcd, tccd_l) = (cfg.trcd as u64, cfg.tccd_l as u64);
        let (trfc, trefi) = (cfg.trfc as u64, cfg.trefi as u64);
        if self.last_write != Some(write) || cpa == 0 || lat > (l - 1) * cpa || tccd_l > bgc * cpa {
            return 0;
        }

        // Walk the address map one row window at a time.
        let a0 = addr / bpa;
        let w0 = a0 / window;
        let mut offset = a0 % window;
        let mut bank_in_group = w0 % bpg;
        let mut row = w0 / bpg;
        let head = Segment {
            start: 0,
            bus: self.bus_next,
        };
        let mut segs = Segments {
            cpa,
            prev: head,
            cur: head,
        };
        let mut counts = DdrStats::default();
        let mut recording = None;
        let mut j = 0u64;
        let n = 'walk: loop {
            if j == max_n {
                break j;
            }
            let mut bus = segs.slot(j);
            if bus >= self.next_refresh {
                if segs.cur.start > 0 && j - segs.cur.start < l.max(bgc) {
                    break j;
                }
                if let Some(rec) = recording.take() {
                    self.memo.record(rec, counts, self.recent_acts, &geo);
                }
                let due = bus;
                while bus >= self.next_refresh {
                    bus = bus.max(self.next_refresh) + trfc;
                    self.next_refresh += trefi;
                    counts.refreshes += 1;
                }
                segs.prev = segs.cur;
                segs.cur = Segment { start: j, bus };
                let len = (self.next_refresh - bus).div_ceil(cpa);
                let replayable =
                    j >= bgc.max(segs.prev.start + l) && len >= l.max(bgc) && j + len < max_n;
                let key = replayable.then(|| SegmentKey {
                    offset,
                    to_refresh: self.next_refresh - bus,
                    write,
                    lag: bus - due,
                    acts: self.recent_acts.shifted(bus.wrapping_neg()),
                });
                if let Some((slot, out)) = key.and_then(|key| self.memo.get(&key, &geo)) {
                    counts = counts + out.counts;
                    self.recent_acts = out.acts.shifted(bus);
                    self.segment_replays += 1;
                    j += len;
                    let to = offset + len;
                    offset = to % window;
                    (bank_in_group, row) = geo.advance((bank_in_group, row), to / window);
                    let link = ChainLink {
                        slot,
                        bus,
                        j,
                        counts,
                    };
                    if let Some((first, epochs)) =
                        self.chain.push(link, SegmentMemo::len(&geo) as usize)
                    {
                        // The stretch after `first` recurs here, one period
                        // on: add the most whole periods that keep the last
                        // jumped replay's end inside the burst.
                        let (dj, dbus) = (j - first.j, bus - first.bus);
                        let k = (max_n - 1 - j) / dj;
                        let (kj, kbus) = (k * dj, k * dbus);
                        debug_assert_eq!(kbus % trefi, 0, "a period spans whole refresh intervals");
                        j += kj;
                        segs = segs.shifted(kj, kbus);
                        self.next_refresh += kbus;
                        self.recent_acts = self.recent_acts.shifted(kbus);
                        counts = counts + (counts - first.counts) * k;
                        (bank_in_group, row) = geo.advance((bank_in_group, row), kj / window);
                        self.jumped_epochs += k * epochs;
                        self.chain.reset();
                    }
                    continue;
                }
                self.chain.reset();
                self.banks.fill(None);
                if let Some(key) = key {
                    recording = Some(Recording { key, bus, counts });
                }
            }
            // This piece of the window ends at the window's end, the next
            // refresh or the end of the burst. Its first `bank_groups`
            // accesses are the first to touch each of its banks.
            let seg_end = max_n.min(j + (self.next_refresh - bus).div_ceil(cpa));
            let start = j;
            let end = seg_end.min(j + window - offset);
            let openers_end = end.min(j + bgc);
            self.window_steps += 1;
            let mut bg = offset % bgc;
            while j < openers_end {
                let bank = (bg + bank_in_group * bgc) as usize;
                let arrival = self.stretch_arrival(&segs, j);
                let open = self.row_open(bank, row, arrival);
                let mut ready = open.cas_ready(arrival, trcd);
                if j < bgc {
                    ready = ready.max(self.last_cas_per_group[bg as usize] + tccd_l);
                }
                if ready + lat > segs.slot(j) {
                    break 'walk j;
                }
                match open {
                    RowOpen::Hit => counts.row_hits += 1,
                    RowOpen::Miss(t) => {
                        counts.row_misses += 1;
                        self.activate(bank, row, t);
                    }
                    RowOpen::Conflict(t) => {
                        counts.row_conflicts += 1;
                        self.activate(bank, row, t);
                    }
                }
                j += 1;
                bg += 1;
                if bg == bgc {
                    bg = 0;
                }
            }
            // The rest of the piece hits the rows just opened.
            counts.row_hits += end - j;
            j = end;
            offset += end - start;
            if offset == window {
                offset = 0;
                bank_in_group += 1;
                if bank_in_group == bpg {
                    bank_in_group = 0;
                    row += 1;
                }
            }
        };
        // A replay reaches its refresh inside the burst, whose branch goes
        // on with another replay or ends the chain before anything can end
        // the stretch.
        debug_assert!(self.chain.links.is_empty(), "a chain outlived its stretch");

        self.bus_next = segs.slot(n);
        if write {
            counts.writes = n;
        } else {
            counts.reads = n;
        }
        self.counters.add(counts);
        // The last `bank_groups` accesses each touch a distinct group;
        // their effective CAS issue time is data_start - latency.
        for i in n.saturating_sub(bgc)..n {
            self.last_cas_per_group[((a0 + i) % bgc) as usize] = segs.slot(i) - lat;
        }
        // Completion window: keep the trailing `lookahead` completions.
        if n >= l {
            self.completions.clear();
        }
        self.completions
            .extend((n.saturating_sub(l)..n).map(|i| segs.slot(i) + cpa));
        while self.completions.len() > self.lookahead {
            self.completions.pop_front();
        }
        n
    }

    /// When access `j` of a stretch arrives: the completion `lookahead`
    /// accesses earlier, from the stretch's segments or, for `j <
    /// lookahead`, from the window recorded before the stretch (0 while
    /// it is not yet full).
    fn stretch_arrival(&self, segs: &Segments, j: u64) -> u64 {
        let l = self.lookahead as u64;
        if j >= l {
            return segs.slot(j - l) + segs.cpa;
        }
        let m = self.completions.len() as u64;
        if m + j >= l {
            self.completions[(m + j - l) as usize]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(lookahead: usize) -> DdrController {
        DdrController::new(DdrConfig::ddr4_2400_kv260(), lookahead)
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let mut c = ctrl(8);
        let mut prev = c.access(0, false);
        for i in 1..64u64 {
            let t = c.access(i * 64, false);
            assert_eq!(t - prev, 4, "beat {i} should follow seamlessly");
            prev = t;
        }
        // The bank-group-interleaved mapping opens one bank per group for
        // this window: 4 misses, 60 hits.
        assert_eq!(c.stats().row_hits, 60);
        assert_eq!(c.stats().row_misses, 4);
    }

    #[test]
    fn first_access_pays_activate_plus_cas() {
        let c_cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = ctrl(1);
        let t = c.access(0, false);
        assert_eq!(
            t,
            (c_cfg.trcd + c_cfg.cl) as u64 + c_cfg.cycles_per_access()
        );
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = ctrl(1);
        let t0 = c.access(0, false);
        // Same bank (bank 0), different row: rows advance every
        // row_bytes × banks bytes.
        let conflict_addr = 8192 * 16;
        let t1 = c.access(conflict_addr, false);
        // Must wait at least tRAS from the first activate, then tRP + tRCD
        // + CL + transfer.
        assert!(t1 - t0 > 40, "conflict only took {} cycles", t1 - t0);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn sequential_crossing_rows_uses_bank_interleaving() {
        // Stream 4 full rows; activates of later banks overlap with data of
        // earlier ones, so efficiency stays high.
        let mut c = ctrl(8);
        let beats = 4 * 128u64;
        let start = 0;
        let mut end = 0;
        for i in 0..beats {
            end = c.access(start + i * 64, false);
        }
        let busy = end;
        let min_cycles = beats * 4;
        assert!(
            (busy as f64) < min_cycles as f64 * 1.15,
            "sequential stream took {busy} cycles vs minimum {min_cycles}"
        );
    }

    #[test]
    fn lookahead_hides_latency_of_scattered_reads() {
        let addrs: Vec<u64> = (0..512u64).map(|i| (i * 7919 * 64) % (1 << 28)).collect();
        let mut shallow = ctrl(1);
        let mut deep = ctrl(16);
        let mut end_s = 0;
        let mut end_d = 0;
        for &a in &addrs {
            end_s = shallow.access(a, false);
        }
        for &a in &addrs {
            end_d = deep.access(a, false);
        }
        assert!(
            end_d * 2 < end_s,
            "deep queue ({end_d}) should be at least 2x faster than shallow ({end_s})"
        );
    }

    #[test]
    fn refresh_fires_periodically() {
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = ctrl(8);
        // Stream enough data to cross several refresh intervals.
        let beats = 40_000u64;
        for i in 0..beats {
            c.access(i * 64, false);
        }
        let elapsed = c.now();
        let expected = elapsed / cfg.trefi as u64;
        let got = c.stats().refreshes;
        assert!(
            got >= expected.saturating_sub(1) && got <= expected + 1,
            "elapsed {elapsed} cycles should contain ~{expected} refreshes, got {got}"
        );
    }

    #[test]
    fn turnarounds_counted_on_direction_change() {
        let mut c = ctrl(4);
        c.access(0, false);
        c.access(64, true);
        c.access(128, false);
        assert_eq!(c.stats().turnarounds, 2);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().reads, 2);
    }

    #[test]
    fn completions_are_monotone() {
        let mut c = ctrl(4);
        let mut prev = 0;
        for i in 0..200u64 {
            let a = (i * 5237 * 64) % (1 << 26);
            let t = c.access(a, false);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn burst_helper_matches_manual_loop() {
        let mut a = ctrl(8);
        let mut b = ctrl(8);
        let end_a = a.burst(4096, 32, false);
        let mut end_b = 0;
        for i in 0..32u64 {
            end_b = b.access(4096 + i * 64, false);
        }
        assert_eq!(end_a, end_b);
    }

    /// Everything that decides when the controller's next access
    /// completes: bus time and direction, open banks' rows and activate
    /// times, activate history, per-group CAS times, the completion window
    /// and the next refresh.
    fn timing_state(c: &DdrController) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            c.bus_next,
            c.last_write,
            &c.banks,
            &c.recent_acts,
            &c.last_cas_per_group,
            &c.completions,
            c.next_refresh,
        )
    }

    /// Replays `(addr, beats, write)` bursts through a fast-path and a
    /// per-access controller, asserts bit-identical completion cycles,
    /// statistics and timing state at every burst boundary, and returns
    /// the fast-path controller.
    fn assert_fast_matches_slow(
        cfg: DdrConfig,
        lookahead: usize,
        bursts: &[(u64, u32, bool)],
    ) -> DdrController {
        let mut fast = DdrController::new(cfg.clone(), lookahead);
        let mut slow = DdrController::new(cfg, lookahead);
        slow.set_fast_path(false);
        for (i, &(addr, beats, write)) in bursts.iter().enumerate() {
            let ef = fast.burst(addr, beats, write);
            let es = slow.burst(addr, beats, write);
            assert_eq!(ef, es, "burst {i} completion diverged");
            assert_eq!(fast.stats(), slow.stats(), "burst {i} stats diverged");
            assert_eq!(
                timing_state(&fast),
                timing_state(&slow),
                "burst {i} timing state diverged"
            );
        }
        fast
    }

    #[test]
    fn fast_path_exact_on_long_sequential_stream() {
        // Long enough to cross many row windows and several refresh
        // epochs — the steady state the fast path is built for.
        assert_fast_matches_slow(
            DdrConfig::ddr4_2400_kv260(),
            32,
            &[(0, 65536, false), (65536 * 64, 32768, false)],
        );
    }

    #[test]
    fn fast_path_exact_on_read_write_turnarounds() {
        let mut bursts = Vec::new();
        for i in 0..64u64 {
            bursts.push((i * 65536, 512, false));
            bursts.push(((1 << 28) | (i * 65536), 64, true));
        }
        assert_fast_matches_slow(DdrConfig::ddr4_2400_kv260(), 32, &bursts);
    }

    #[test]
    fn fast_path_exact_on_misaligned_and_short_bursts() {
        assert_fast_matches_slow(
            DdrConfig::ddr4_2400_kv260(),
            32,
            &[
                (24, 300, false), // not beat-aligned
                (8192 * 3 + 64, 7, false),
                (8192 * 3 + 512, 1, true),
                (40, 2000, false),
            ],
        );
    }

    #[test]
    fn fast_path_exact_across_lookahead_depths() {
        for lookahead in [1usize, 2, 4, 8, 32, 64] {
            assert_fast_matches_slow(
                DdrConfig::ddr4_2400_kv260(),
                lookahead,
                &[(0, 4096, false), (1 << 26, 4096, true), (64, 4096, false)],
            );
        }
    }

    /// Activate pacing set just past one row window's bus time, so each
    /// window's activates slip behind the last one's and a refresh epoch's
    /// activate history rarely repeats an earlier epoch's.
    fn adversarial_memories() -> [DdrConfig; 3] {
        [
            // tFAW just past one KV260 row window's 512 bus cycles: each
            // window's activates slip 5 cycles behind the last one's.
            DdrConfig {
                tfaw: 517,
                ..DdrConfig::ddr4_2400_kv260()
            },
            // tRRD just past the 500 cycles between one window's last
            // opener and the next window's first.
            DdrConfig {
                trrd: 501,
                ..DdrConfig::ddr4_2400_kv260()
            },
            // LPDDR4 opens one bank per 256-cycle window, so tFAW spans
            // four windows; 1025 is one cycle past them.
            DdrConfig {
                tfaw: 1025,
                ..DdrConfig::lpddr4_2133_ultra96()
            },
        ]
    }

    #[test]
    fn fast_path_exact_on_alternative_memories() {
        let bursts = [(0, 8192, false), (1 << 24, 1024, true), (128, 8192, false)];
        for cfg in [
            DdrConfig::lpddr4_2133_ultra96(),
            DdrConfig::ddr4_2666_zcu102(),
            DdrConfig::lpddr5_orin_nano(),
            // tRRD (16) exceeds one access's 8 bus cycles: activate pacing
            // binds inside a window.
            DdrConfig::lpddr5_6400_embedded(),
            // tCCD_L (20) outlasts one rotation through the four bank
            // groups (16 bus cycles): same-group pacing binds every access.
            DdrConfig {
                tccd_l: 20,
                ..DdrConfig::ddr4_2400_kv260()
            },
            // Refresh epochs of about 22 accesses, shorter than the
            // lookahead: a segment cannot hold the next one's arrivals.
            DdrConfig {
                trefi: 400,
                ..DdrConfig::ddr4_2400_kv260()
            },
        ] {
            assert_fast_matches_slow(cfg, 32, &bursts);
        }
        for cfg in adversarial_memories() {
            for lookahead in [32, 64] {
                assert_fast_matches_slow(cfg.clone(), lookahead, &bursts);
            }
        }
    }

    /// Reads and writes that each span dozens of refresh epochs: aligned
    /// and misaligned starts, a turnaround between directions, a revisit
    /// of the first region (its windows open on conflicts) and each
    /// region streamed twice, so the second pass meets a warm memo.
    const MULTI_EPOCH_STREAM: [(u64, u32, bool); 6] = [
        (0, 150_000, false),
        ((1 << 28) | 24, 100_000, true),
        (64 * 37, 120_000, false),
        (1 << 27, 100_000, false),
        ((1 << 28) | 24, 100_000, true),
        (1 << 27, 100_000, false),
    ];

    /// Every memory preset.
    fn presets() -> [DdrConfig; 5] {
        [
            DdrConfig::ddr4_2400_kv260(),
            DdrConfig::lpddr4_2133_ultra96(),
            DdrConfig::ddr4_2666_zcu102(),
            DdrConfig::lpddr5_orin_nano(),
            DdrConfig::lpddr5_6400_embedded(),
        ]
    }

    #[test]
    fn fast_path_falls_back_to_per_access_at_lookahead_one_and_two() {
        // A stretch needs CL ≤ (lookahead − 1) × cycles per access; CL is
        // 17–40 cycles against 4–8 per access, so at depths 1 and 2 no
        // preset runs one and every access of a read goes through
        // `access()`, bit-identical with the fast path off.
        for (i, cfg) in presets().into_iter().enumerate() {
            for lookahead in [1, 2] {
                let c = assert_fast_matches_slow(cfg.clone(), lookahead, &[(0, 8192, false)]);
                let case = format!("preset {i} at lookahead {lookahead}");
                assert_eq!(c.per_access_steps, c.stats().accesses(), "{case}");
                assert_eq!(c.window_steps, 0, "{case}");
            }
        }
    }

    #[test]
    fn fast_path_exact_on_long_multi_epoch_streams() {
        let presets = presets();
        let short_epochs = DdrConfig {
            trefi: 400,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let n_presets = presets.len();
        let configs = presets
            .into_iter()
            .chain(adversarial_memories())
            .chain([short_epochs]);
        for (i, cfg) in configs.enumerate() {
            for lookahead in [1usize, 2, 8, 32, 64] {
                let c = assert_fast_matches_slow(cfg.clone(), lookahead, &MULTI_EPOCH_STREAM);
                // At datamover depth every preset streams bus-bound through
                // epochs longer than its lookahead, so an epoch whose key
                // an earlier one had is replayed.
                if i < n_presets && lookahead >= 32 {
                    assert!(
                        c.segment_replays > 0,
                        "preset {i} at lookahead {lookahead} replayed no refresh epoch"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_exact_on_multi_period_sequential_streams() {
        // A cold controller walks one period of a sequential stream's
        // refresh epochs, replays the next and jumps whole periods after
        // that, so each stream spans at least three periods: 64 epochs on
        // the KV260 and on KV260 timing with 2,000- and 2,400-cycle
        // refresh intervals (whose epochs open every bank), 32 on the
        // Ultra96, 512 on the ZCU102 (its epoch is 2,513¼ accesses, so its
        // keys repeat only when the quarter-cycle phase and the window
        // offset both do), 8 on the Orin and 4 on LPDDR5-6400.
        let short_epochs = |trefi| DdrConfig {
            trefi,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let [kv260, ultra96, zcu102, orin, lpddr5] = presets();
        for (i, (cfg, n)) in [
            (kv260.clone(), 1 << 19),
            (ultra96, 1 << 17),
            (zcu102, 4_000_000),
            (orin, 1 << 17),
            (lpddr5, 1 << 17),
            (short_epochs(2000), 1 << 17),
            (short_epochs(2400), 1 << 17),
        ]
        .into_iter()
        .enumerate()
        {
            let c = assert_fast_matches_slow(cfg, 32, &[(0, n, false), (1 << 30, n, true)]);
            assert!(c.jumped_epochs > 0, "config {i} jumped no refresh epoch");
        }
        // With tFAW 330 or 400, above tRFC (312) and below one row
        // window's 512 bus cycles, the first activates after a refresh can
        // wait on the history the epoch before handed on, so a jump must
        // move that history with it. A read from 1,536 bytes lands its
        // jump on a refresh where they wait (one from 0 does not) and ends
        // 61 accesses later, within one row window, so the banks those
        // activates opened are still open, with their activate times, when
        // the timing states are compared.
        for tfaw in [330, 400] {
            let cfg = DdrConfig {
                tfaw,
                ..kv260.clone()
            };
            let c = assert_fast_matches_slow(cfg, 32, &[(1536, 438_958, false)]);
            assert!(c.jumped_epochs > 0, "tFAW {tfaw} jumped no refresh epoch");
        }
    }

    #[test]
    fn fast_path_exact_when_a_refresh_falls_inside_the_first_lookahead() {
        // KV260 timing with 2,000-cycle refresh epochs: a segment's 422
        // accesses cover about three row windows, fewer than the four it
        // takes to reopen a bank, so its first activates are still its
        // banks' activate times when it ends. Two streams write the same
        // 407 accesses, then eleven tCCD_L-paced or sixteen streamed row
        // hits that take equally long, then read from the same window.
        // Each read's stretch meets a refresh within its 64-access
        // lookahead, and the segment after it has the same key on both
        // streams; but that segment's first activates wait on completions
        // from before the stretch, which differ. Priced from the memo the
        // first stream left, the second must still match the per-access
        // path.
        let cfg = DdrConfig {
            trefi: 2000,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let last_window = 4 * 8192;
        let writes = [(0, 4, false), (8192, 407, true)];
        let read = (last_window + 512, 485, false);
        let paced = (0..11).map(|i| (last_window + 256 * i, 1, true));
        let mut recorded = DdrController::new(cfg.clone(), 64);
        for (addr, beats, write) in writes.into_iter().chain(paced).chain([read]) {
            recorded.burst(addr, beats, write);
        }
        let mut fast = DdrController::new(cfg.clone(), 64);
        fast.memo = recorded.memo;
        let mut slow = DdrController::new(cfg, 64);
        slow.set_fast_path(false);
        for (addr, beats, write) in writes.into_iter().chain([(last_window, 16, true), read]) {
            assert_eq!(
                fast.burst(addr, beats, write),
                slow.burst(addr, beats, write)
            );
            assert_eq!(fast.stats(), slow.stats());
            assert_eq!(timing_state(&fast), timing_state(&slow));
        }
    }

    #[test]
    fn fast_path_exact_on_a_burst_starting_at_a_refresh() {
        // With tCCD_L = 20 no stretch may start on a refresh: the refresh
        // gap hides from the head check the same-group pacing that binds
        // once the stretch streams.
        for cfg in [
            DdrConfig::ddr4_2400_kv260(),
            DdrConfig {
                tccd_l: 20,
                ..DdrConfig::ddr4_2400_kv260()
            },
        ] {
            // The shortest read after which the next access is due a refresh.
            let mut probe = DdrController::new(cfg.clone(), 32);
            let mut n = 0u64;
            while probe.now() < probe.next_refresh {
                probe.access(n * 64, false);
                n += 1;
            }
            assert_eq!(probe.stats().refreshes, 0);
            assert_fast_matches_slow(cfg, 32, &[(0, n as u32, false), (n * 64, 4096, false)]);
        }
    }

    #[test]
    fn fast_path_exact_when_interleaved_with_single_accesses() {
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut fast = DdrController::new(cfg.clone(), 16);
        let mut slow = DdrController::new(cfg, 16);
        slow.set_fast_path(false);
        for round in 0..32u64 {
            let base = round * (1 << 20);
            assert_eq!(fast.burst(base, 2048, false), slow.burst(base, 2048, false));
            // Scattered accesses disturb the bank/completion state between
            // bursts, forcing fresh head checks on the next stretch.
            for i in 0..8u64 {
                let a = (base ^ (i * 7919 * 64)) % (1 << 27);
                assert_eq!(fast.access(a, i % 3 == 0), slow.access(a, i % 3 == 0));
            }
        }
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.now(), slow.now());
    }

    /// A 64 MiB sequential KV260 read: 8,192 row windows and 463
    /// refreshes.
    fn sequential_64_mib_read() -> DdrController {
        let mut c = ctrl(crate::MemorySystem::DEFAULT_LOOKAHEAD);
        c.burst(0, 1 << 20, false);
        let s = c.stats();
        assert_eq!(s.accesses(), 1 << 20);
        assert!(s.refreshes > 400, "only {} refreshes", s.refreshes);
        c
    }

    #[test]
    fn fast_path_takes_one_per_access_step_per_sequential_read() {
        // Only the first access, with no bus direction yet, goes through
        // `access()`; every refresh and window crossing after it stays in
        // one stretch.
        assert_eq!(sequential_64_mib_read().per_access_steps, 1);
    }

    #[test]
    fn fast_path_cold_64_mib_read_walks_at_most_1300_window_pieces() {
        // A cold memo walks each refresh epoch whose key it has not met.
        // A sequential read's epoch keys repeat with a period of 64
        // epochs, so most of its 463 epochs are replayed or jumped.
        let c = sequential_64_mib_read();
        assert!(
            c.window_steps <= 1300,
            "{} window pieces walked, {} refresh epochs replayed",
            c.window_steps,
            c.segment_replays
        );
    }

    /// The window pieces walked, refresh epochs replayed and epochs jumped
    /// by a second 64 MiB sequential read on the controller of the first.
    fn warm_64_mib_read() -> (u64, u64, u64) {
        let mut c = sequential_64_mib_read();
        let before = (c.window_steps, c.segment_replays, c.jumped_epochs);
        c.burst(0, 1 << 20, false);
        (
            c.window_steps - before.0,
            c.segment_replays - before.1,
            c.jumped_epochs - before.2,
        )
    }

    #[test]
    fn fast_path_warm_64_mib_read_replays_its_refresh_epochs() {
        // A second read on the same controller finds nearly every epoch
        // in the memo: it walks only its head and tail segments and the
        // few epochs whose key the first read did not meet, and replays or
        // jumps the rest.
        let (walked, replayed, jumped) = warm_64_mib_read();
        assert!(walked <= 32, "{walked} window pieces walked");
        assert!(
            replayed + jumped >= 460,
            "{replayed} refresh epochs replayed, {jumped} jumped"
        );
    }

    #[test]
    fn fast_path_warm_64_mib_read_replays_at_most_two_periods() {
        // The read's epoch keys repeat every 64 epochs from its first
        // replay. The chain replays one period and the epoch that repeats
        // its first, jumps whole periods, and replays fewer than one
        // period after the jump.
        let (_, replayed, jumped) = warm_64_mib_read();
        assert!(replayed <= 2 * 64, "{replayed} refresh epochs replayed");
        assert!(
            jumped > 0 && jumped % 64 == 0,
            "{jumped} refresh epochs jumped"
        );
    }

    #[test]
    fn fast_path_replays_and_jumps_epochs_that_leave_banks_unopened() {
        // A 1,000-cycle refresh interval's epoch spans about 170 accesses
        // and a 400-cycle one about 22, parts of at most three 128-access
        // row windows, so each opens at most twelve of the sixteen banks.
        // A replay writes no bank state, so their replays chain and jump
        // whole periods like those of epochs that open every bank.
        let short_epochs = |trefi| DdrConfig {
            trefi,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let c = assert_fast_matches_slow(short_epochs(1000), 32, &[(0, 1 << 19, false)]);
        assert!(c.jumped_epochs > 0, "no 1,000-cycle epoch jumped");
        let c = assert_fast_matches_slow(short_epochs(400), 8, &[(0, 1 << 16, false); 2]);
        assert!(c.segment_replays > 0, "no 400-cycle epoch replayed");
    }

    #[test]
    #[should_panic(expected = "lookahead must be at least 1")]
    fn zero_lookahead_rejected() {
        let _ = DdrController::new(DdrConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "banks (2) must be a positive multiple of bank_groups (4)")]
    fn fewer_banks_than_bank_groups_rejected() {
        // Bank group 2 would index past the two banks.
        let cfg = DdrConfig {
            banks: 2,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let _ = DdrController::new(cfg, 8);
    }

    #[test]
    #[should_panic(expected = "banks (6) must be a positive multiple of bank_groups (4)")]
    fn banks_not_a_multiple_of_bank_groups_rejected() {
        // One bank per group would be addressed and two never would.
        let cfg = DdrConfig {
            banks: 6,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let _ = DdrController::new(cfg, 8);
    }

    #[test]
    #[should_panic(expected = "trefi must be at least 1")]
    fn zero_refresh_interval_rejected() {
        let cfg = DdrConfig {
            trefi: 0,
            ..DdrConfig::default()
        };
        let _ = DdrController::new(cfg, 8);
    }

    #[test]
    #[should_panic(expected = "trfc must be shorter than trefi")]
    fn refresh_longer_than_its_interval_rejected() {
        // Each refresh would end at or past the next one's due time, so
        // the bus would never run again.
        let cfg = DdrConfig {
            trfc: 9360,
            ..DdrConfig::ddr4_2400_kv260()
        };
        let _ = DdrController::new(cfg, 8);
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Many short and medium bursts, or a few long ones that each span
        /// dozens of refresh epochs, so that later epochs replay.
        fn burst_streams() -> impl Strategy<Value = Vec<(u64, u32, bool)>> {
            let addr = || prop_oneof![0u64..(1 << 26), 0u64..(1 << 16)];
            prop_oneof![
                proptest::collection::vec(
                    (
                        addr(),
                        prop_oneof![1u32..3000, 1u32..60_000],
                        proptest::bool::ANY,
                    ),
                    1..30,
                ),
                proptest::collection::vec((addr(), 100_000u32..140_000, proptest::bool::ANY), 1..4,),
            ]
        }

        /// Every preset at the lookahead depths where each of them runs
        /// stretches (below 6 most presets price every access through
        /// `access()`, which would compare the per-access path with
        /// itself; `fast_path_falls_back_to_per_access_at_lookahead_one_and_two`
        /// pins that fallback), the adversarial pacing configs at the
        /// depths where stretches run long, KV260 timing with refresh
        /// intervals of 400 to 2,400 cycles (epochs of 22 to 522 accesses
        /// that open four to sixteen banks), and KV260 timing with tFAW
        /// between tRFC (312) and one row window's 512 bus cycles, where
        /// the first activates after a refresh can wait on the history the
        /// previous epoch handed on. The last two arms skip the depths
        /// below 6, where CL (17 cycles) outlasts the lookahead's bus time
        /// and no stretch runs. The tFAW arm also draws a read (start
        /// address, accesses past its first period jump) for [`cases`] to
        /// append: a jump hands its history on to the first activates after
        /// the refresh it lands on, and only a burst that ends within a row
        /// window of that refresh still holds their activate times when
        /// the timing states are compared.
        fn memories() -> impl Strategy<Value = (DdrConfig, usize, Option<(u64, u32)>)> {
            let [faw, rrd, lp4_faw] = adversarial_memories();
            let no_read = |(cfg, lookahead)| (cfg, lookahead, None);
            prop_oneof![
                (
                    prop_oneof![
                        Just(DdrConfig::ddr4_2400_kv260()),
                        Just(DdrConfig::lpddr4_2133_ultra96()),
                        Just(DdrConfig::ddr4_2666_zcu102()),
                        Just(DdrConfig::lpddr5_orin_nano()),
                        Just(DdrConfig::lpddr5_6400_embedded()),
                    ],
                    prop_oneof![Just(6usize), Just(8), Just(32), Just(64)],
                )
                    .prop_map(no_read),
                (
                    prop_oneof![Just(faw), Just(rrd), Just(lp4_faw)],
                    prop_oneof![Just(32usize), Just(64)],
                )
                    .prop_map(no_read),
                (
                    (400u32..2400).prop_map(|trefi| DdrConfig {
                        trefi,
                        ..DdrConfig::ddr4_2400_kv260()
                    }),
                    prop_oneof![Just(8usize), Just(32), Just(64)],
                )
                    .prop_map(no_read),
                (
                    (313u32..512).prop_map(|tfaw| DdrConfig {
                        tfaw,
                        ..DdrConfig::ddr4_2400_kv260()
                    }),
                    prop_oneof![Just(8usize), Just(32), Just(64)],
                    0u64..(1 << 16),
                    1u32..64,
                )
                    .prop_map(|(cfg, lookahead, addr, past)| (
                        cfg,
                        lookahead,
                        Some((addr, past))
                    )),
            ]
        }

        /// Longest read [`jump_landing`] tries: a sequential read on KV260
        /// timing repeats every 64 refresh epochs (144,768 accesses), walks
        /// one period, replays the next and jumps only once it runs past a
        /// third (about 439k accesses from a cold controller).
        const LONGEST_JUMP_READ: u32 = 600_000;

        /// The index of the access the first period jump of a read from
        /// `addr` lands on when the read follows `prefix`: one less than the
        /// shortest such read that jumps. `None` when a read of
        /// [`LONGEST_JUMP_READ`] accesses jumps no epoch (at lookahead 8 the
        /// KV260 timing never does).
        fn jump_landing(
            cfg: &DdrConfig,
            lookahead: usize,
            prefix: &[(u64, u32, bool)],
            addr: u64,
        ) -> Option<u32> {
            let jumps = |beats| {
                let mut c = DdrController::new(cfg.clone(), lookahead);
                for &(addr, beats, write) in prefix {
                    c.burst(addr, beats, write);
                }
                let before = c.jumped_epochs;
                c.burst(addr, beats, false);
                c.jumped_epochs > before
            };
            if !jumps(LONGEST_JUMP_READ) {
                return None;
            }
            let (mut lo, mut hi) = (0, LONGEST_JUMP_READ);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if jumps(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some(hi - 1)
        }

        /// One case of the differential property: a burst stream and a
        /// memory, drawn in that order, plus the tFAW arm's read appended
        /// to end its drawn count of accesses past its first period jump.
        fn cases() -> impl Strategy<Value = (DdrConfig, usize, Vec<(u64, u32, bool)>)> {
            (burst_streams(), memories()).prop_map(|(mut bursts, (cfg, lookahead, read))| {
                if let Some((addr, past)) = read {
                    if let Some(landing) = jump_landing(&cfg, lookahead, &bursts, addr) {
                        bursts.push((addr, landing + past, false));
                    }
                }
                (cfg, lookahead, bursts)
            })
        }

        #[test]
        fn fast_path_cases_walk_every_preset_and_jump_a_period() {
            // Every case `fast_path_identical_to_per_access_path` draws
            // from the preset arm must walk a window piece, or it compares
            // the per-access path with itself, and at least one case must
            // jump whole periods of replayed epochs. Each case is checked
            // as the property checks it.
            let name = concat!(module_path!(), "::fast_path_identical_to_per_access_path");
            let mut jumped = false;
            for case in 0..ProptestConfig::default().cases as u64 {
                let mut rng = proptest::TestRng::for_case(name, case);
                let (cfg, lookahead, bursts) = cases().generate(&mut rng);
                let preset = presets().contains(&cfg);
                let c = assert_fast_matches_slow(cfg, lookahead, &bursts);
                assert!(
                    !preset || c.window_steps > 0,
                    "preset case {case} at lookahead {lookahead} walked no window piece"
                );
                jumped |= c.jumped_epochs > 0;
            }
            assert!(jumped, "no period of replayed epochs jumped");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            /// `fast_path_identical_to_per_access_path` over 3,000 cases
            /// instead of 64.
            #[test]
            #[ignore = "deep differential run (~30 s); run with --ignored"]
            fn fast_path_identical_to_per_access_path_deep(
                (cfg, lookahead, bursts) in cases(),
            ) {
                assert_fast_matches_slow(cfg, lookahead, &bursts);
            }
        }

        proptest! {
            /// Completion times are strictly increasing for any access
            /// pattern (the controller is in-order).
            #[test]
            fn completions_monotone_for_any_pattern(
                addrs in proptest::collection::vec(0u64..(1 << 26), 1..200),
                writes in proptest::collection::vec(proptest::bool::ANY, 200),
                lookahead in 1usize..16,
            ) {
                let mut c = DdrController::new(DdrConfig::ddr4_2400_kv260(), lookahead);
                let mut prev = 0;
                for (i, &a) in addrs.iter().enumerate() {
                    let t = c.access(a & !63, writes[i]);
                    prop_assert!(t > prev, "access {i} completed at {t} <= {prev}");
                    prev = t;
                }
            }

            /// Every access is counted exactly once, and hit/miss/conflict
            /// partition the accesses.
            #[test]
            fn stats_conservation(
                addrs in proptest::collection::vec(0u64..(1 << 24), 1..300),
            ) {
                let mut c = DdrController::new(DdrConfig::ddr4_2400_kv260(), 4);
                for &a in &addrs {
                    c.access(a & !63, false);
                }
                let s = c.stats();
                prop_assert_eq!(s.accesses(), addrs.len() as u64);
                prop_assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, s.accesses());
            }

            /// The burst fast path is **bit-identical** to the per-access
            /// reference on arbitrary burst streams over every memory
            /// preset and lookahead depth, the adversarial pacing configs
            /// and short refresh intervals: completion cycles, statistics
            /// and timing state after every burst. Streams start mid-window, cross row
            /// windows, refresh epochs (bursts up to 60k accesses) and
            /// read↔write turnarounds, and revisit a small region so
            /// windows open on hits and conflicts too. This is the
            /// exactness invariant `bench/baseline.json` rests on.
            #[test]
            fn fast_path_identical_to_per_access_path(
                (cfg, lookahead, bursts) in cases(),
            ) {
                assert_fast_matches_slow(cfg, lookahead, &bursts);
            }

            /// The data bus can never move faster than its physical rate:
            /// total time >= accesses x cycles_per_access.
            #[test]
            fn bus_rate_is_a_hard_floor(
                addrs in proptest::collection::vec(0u64..(1 << 22), 2..200),
            ) {
                let cfg = DdrConfig::ddr4_2400_kv260();
                let floor = addrs.len() as u64 * cfg.cycles_per_access();
                let mut c = DdrController::new(cfg, 8);
                let mut end = 0;
                for &a in &addrs {
                    end = c.access(a & !63, false);
                }
                prop_assert!(end >= floor, "end {end} below bus floor {floor}");
            }
        }
    }

    #[test]
    fn same_bank_group_strides_pay_tccd_l() {
        // Stride of 256 B hits bank group 0 every time: CAS spacing is
        // tCCD_L (6) instead of the bus rate (4) → ~2/3 efficiency.
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = DdrController::new(cfg.clone(), 8);
        let n = 128u64;
        let mut end = 0;
        for i in 0..n {
            end = c.access(i * 256, false);
        }
        let min_bus = n * cfg.cycles_per_access();
        let expected = n * cfg.tccd_l as u64;
        assert!(
            end >= expected,
            "same-group stride finished in {end}, below the tCCD_L floor {expected}"
        );
        assert!(
            end > min_bus * 5 / 4,
            "stride should be slower than bus rate"
        );
    }

    #[test]
    fn sequential_stream_avoids_tccd_l_via_group_interleaving() {
        // Consecutive beats alternate bank groups, so tCCD_L never binds.
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = DdrController::new(cfg.clone(), 8);
        let n = 512u64;
        let mut end = 0;
        for i in 0..n {
            end = c.access(i * 64, false);
        }
        let min_bus = n * cfg.cycles_per_access();
        assert!(
            (end as f64) < min_bus as f64 * 1.15,
            "sequential stream took {end} vs bus floor {min_bus}"
        );
    }
}
