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

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bank {
    open_row: Option<u64>,
    /// Cycle the open row was activated (for tRAS).
    act_at: u64,
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
    banks: Vec<Bank>,
    /// First cycle the data bus is free.
    bus_next: u64,
    /// Last access direction (for turnaround accounting).
    last_write: Option<bool>,
    /// Times of the most recent activates (for tRRD/tFAW pacing).
    recent_acts: VecDeque<u64>,
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
    /// Calls of [`Self::access`] so far. Outside the telemetry snapshot:
    /// it measures how the simulator priced the accesses, not the device.
    per_access_steps: u64,
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
    /// Panics if `lookahead` is zero.
    pub fn new(cfg: DdrConfig, lookahead: usize) -> DdrController {
        DdrController::with_counters(cfg, lookahead, DdrCounters::detached())
    }

    /// Creates a controller publishing into the given telemetry handles
    /// (typically obtained from [`DdrCounters::register`]).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn with_counters(cfg: DdrConfig, lookahead: usize, counters: DdrCounters) -> DdrController {
        assert!(lookahead > 0, "lookahead must be at least 1");
        let banks = vec![Bank::default(); cfg.banks as usize];
        let next_refresh = cfg.trefi as u64;
        let last_cas_per_group = vec![0u64; cfg.bank_groups.max(1) as usize];
        let geo = Geometry::of(&cfg);
        DdrController {
            cfg,
            banks,
            bus_next: 0,
            last_write: None,
            recent_acts: VecDeque::with_capacity(4),
            last_cas_per_group,
            next_refresh,
            completions: VecDeque::with_capacity(lookahead + 1),
            lookahead,
            counters,
            fast_path: true,
            geo,
            per_access_steps: 0,
        }
    }

    /// Enables or disables the closed-form burst fast path (on by
    /// default). Disabling forces [`Self::burst`] through the per-access
    /// reference path; results are bit-identical either way — the toggle
    /// exists so differential tests can prove exactly that.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Whether the burst fast path is enabled.
    pub fn fast_path(&self) -> bool {
        self.fast_path
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
            for b in &mut self.banks {
                b.open_row = None;
            }
            let refresh_start = self.next_refresh.max(self.bus_next);
            self.bus_next = refresh_start + cfg.trfc as u64;
            self.next_refresh += cfg.trefi as u64;
            self.counters.refreshes.inc();
        }

        let (row, bank_idx, _col) = cfg.map_address(addr);
        let bank = bank_idx as usize;
        let open = self.row_open(bank, row, arrival);
        self.record_row_open(bank, row, open);
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
        let b = self.banks[bank];
        let pacing = {
            let rrd = self.recent_acts.back().map_or(0, |&t| t + cfg.trrd as u64);
            let faw = if self.recent_acts.len() >= 4 {
                self.recent_acts[self.recent_acts.len() - 4] + cfg.tfaw as u64
            } else {
                0
            };
            rrd.max(faw)
        };
        match b.open_row {
            Some(r) if r == row => RowOpen::Hit,
            Some(_) => {
                let t_pre = arrival.max(b.act_at + cfg.tras as u64);
                RowOpen::Conflict((t_pre + cfg.trp as u64).max(pacing))
            }
            None => RowOpen::Miss(arrival.max(pacing)),
        }
    }

    /// Counts `open` and, for an activate, opens `row` in `bank` and
    /// records the activate for pacing.
    fn record_row_open(&mut self, bank: usize, row: u64, open: RowOpen) {
        let t_act = match open {
            RowOpen::Hit => {
                self.counters.row_hits.inc();
                return;
            }
            RowOpen::Miss(t) => {
                self.counters.row_misses.inc();
                t
            }
            RowOpen::Conflict(t) => {
                self.counters.row_conflicts.inc();
                t
            }
        };
        self.banks[bank] = Bank {
            open_row: Some(row),
            act_at: t_act,
        };
        self.recent_acts.push_back(t_act);
        if self.recent_acts.len() > 4 {
            self.recent_acts.pop_front();
        }
    }

    /// Runs a whole burst (consecutive accesses) and returns the completion
    /// cycle of its last beat.
    ///
    /// With [`Self::fast_path`] enabled (the default) the burst is priced
    /// in *stretches*: runs of accesses whose data transfers all start the
    /// moment the bus frees, each advanced in one step. A stretch crosses
    /// row windows. The first `bank_groups` accesses of each window, which
    /// open its banks, are priced with [`Self::access`]'s own arithmetic;
    /// the window's remaining accesses are row hits, counted at once. A
    /// stretch ends only at the next refresh epoch, a change of bus
    /// direction, the end of the burst, or the first access that would
    /// wait for something other than the bus (an activate, the lookahead
    /// window, tCCD_L or CAS latency); that access goes through
    /// [`Self::access`]. The two paths produce **bit-identical** cycle
    /// counts, statistics, telemetry and controller state — see the
    /// differential tests and the `proptest` suite.
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
    /// access to [`Self::access`].
    ///
    /// Access `j` of a stretch transfers at bus time `bus0 + j·cpa` exactly
    /// when its CAS is ready `latency` cycles before that. Its request
    /// arrives when access `j - lookahead` completes; completions are at
    /// least `cpa` apart and the latest is `bus0`, so `latency ≤
    /// (lookahead - 1)·cpa` covers the arrival of every row hit. The first
    /// `bank_groups` accesses pace against CAS times issued before the
    /// stretch, checked one by one. One of them shares a group with the
    /// access that ended at `bus0`, so passing requires `tCCD_L ≤
    /// bank_groups·cpa`, which covers every later access, each pacing
    /// against the stretch's own access `bank_groups` earlier. Only the
    /// accesses that first touch a window's banks can wait on an activate;
    /// each is priced exactly.
    fn stretch(&mut self, addr: u64, max_n: u64, write: bool) -> u64 {
        let geo = self.geo;
        let cpa = geo.cpa;
        let bgc = geo.bgc;
        let l = self.lookahead as u64;
        let lat = if write { self.cfg.cwl } else { self.cfg.cl } as u64;
        let tccd_l = self.cfg.tccd_l as u64;
        let trcd = self.cfg.trcd as u64;
        let bus0 = self.bus_next;
        if self.last_write != Some(write)
            || cpa == 0
            || lat > (l - 1) * cpa
            || bus0 >= self.next_refresh
        {
            return 0;
        }
        // Access j must start strictly before the next refresh epoch.
        let mut n = max_n.min((self.next_refresh - bus0 - 1) / cpa + 1);

        // Walk the address map one row window at a time.
        let a0 = addr / geo.bpa;
        let w0 = a0 / geo.window;
        let mut offset = a0 % geo.window;
        let mut bank_in_group = w0 % geo.bpg;
        let mut row = w0 / geo.bpg;
        let mut bg = offset % bgc;
        let mut hits = 0u64;
        let mut j = 0u64;
        'walk: while j < n {
            let window_end = n.min(j + geo.window - offset);
            // The window's first `bank_groups` accesses of the stretch are
            // the first to touch each of its banks.
            let opened = window_end.min(j + bgc);
            while j < opened {
                let bank = (bg + bank_in_group * bgc) as usize;
                let arrival = self.stretch_arrival(bus0, j);
                let open = self.row_open(bank, row, arrival);
                let mut ready = open.cas_ready(arrival, trcd);
                if j < bgc {
                    ready = ready.max(self.last_cas_per_group[bg as usize] + tccd_l);
                }
                if ready + lat > bus0 + j * cpa {
                    n = j;
                    break 'walk;
                }
                self.record_row_open(bank, row, open);
                j += 1;
                bg += 1;
                if bg == bgc {
                    bg = 0;
                }
            }
            // The rest of the window hits the rows just opened.
            hits += window_end - j;
            j = window_end;
            offset = 0;
            bg = 0;
            bank_in_group += 1;
            if bank_in_group == geo.bpg {
                bank_in_group = 0;
                row += 1;
            }
        }
        if n == 0 {
            return 0;
        }

        self.bus_next = bus0 + n * cpa;
        self.counters.row_hits.add(hits);
        if write {
            self.counters.writes.add(n);
        } else {
            self.counters.reads.add(n);
        }
        // The last `bank_groups` accesses each touch a distinct group;
        // their effective CAS issue time is data_start - latency.
        let mut bg = (a0 + n - 1) % bgc;
        for j in 0..n.min(bgc) {
            let i = n - 1 - j;
            self.last_cas_per_group[bg as usize] = bus0 + i * cpa - lat;
            bg = if bg == 0 { bgc - 1 } else { bg - 1 };
        }
        // Completion window: keep the trailing `lookahead` completions.
        if n >= l {
            self.completions.clear();
        }
        let first = n.saturating_sub(l);
        self.completions
            .extend((first..n).map(|k| bus0 + (k + 1) * cpa));
        while self.completions.len() > self.lookahead {
            self.completions.pop_front();
        }
        n
    }

    /// When access `j` of a stretch starting at bus time `bus0` arrives:
    /// the completion `lookahead` accesses earlier, from the window
    /// recorded before the stretch (0 while it is not yet full) or, from
    /// `j = lookahead` on, from the stretch itself.
    fn stretch_arrival(&self, bus0: u64, j: u64) -> u64 {
        let l = self.lookahead as u64;
        if j >= l {
            return bus0 + (j + 1 - l) * self.geo.cpa;
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
    /// completes: bus time and direction, bank rows and activate times,
    /// activate history, per-group CAS times, the completion window and
    /// the next refresh.
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
    /// per-access controller and asserts bit-identical completion cycles,
    /// statistics and timing state at every burst boundary.
    fn assert_fast_matches_slow(cfg: DdrConfig, lookahead: usize, bursts: &[(u64, u32, bool)]) {
        let mut fast = DdrController::new(cfg.clone(), lookahead);
        let mut slow = DdrController::new(cfg, lookahead);
        slow.set_fast_path(false);
        assert!(fast.fast_path() && !slow.fast_path());
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

    #[test]
    fn fast_path_exact_on_alternative_memories() {
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
        ] {
            assert_fast_matches_slow(
                cfg,
                32,
                &[(0, 8192, false), (1 << 24, 1024, true), (128, 8192, false)],
            );
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

    #[test]
    fn fast_path_takes_one_per_access_step_per_refresh_epoch() {
        // A 64 MiB sequential read crosses 8,192 row windows but meets
        // only one hazard that changes its timing: refresh. The first
        // access (no bus direction yet) and the access after each refresh
        // go through `access()`; every window crossing stays in a stretch.
        let mut c = ctrl(crate::MemorySystem::DEFAULT_LOOKAHEAD);
        c.burst(0, 1 << 20, false);
        let s = c.stats();
        assert_eq!(s.accesses(), 1 << 20);
        assert!(s.refreshes > 400, "only {} refreshes", s.refreshes);
        assert!(
            c.per_access_steps <= s.refreshes + 1,
            "{} per-access steps for {} refresh epochs",
            c.per_access_steps,
            s.refreshes
        );
    }

    #[test]
    #[should_panic(expected = "lookahead must be at least 1")]
    fn zero_lookahead_rejected() {
        let _ = DdrController::new(DdrConfig::default(), 0);
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

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
            /// preset and lookahead depth: completion cycles, statistics
            /// and timing state after every burst. Streams start mid-window,
            /// cross row windows, refresh epochs (bursts up to 60k
            /// accesses) and read↔write turnarounds, and revisit a small
            /// region so windows open on hits and conflicts too. This is
            /// the exactness invariant `bench/baseline.json` rests on.
            #[test]
            fn fast_path_identical_to_per_access_path(
                bursts in proptest::collection::vec(
                    (
                        prop_oneof![0u64..(1 << 26), 0u64..(1 << 16)],
                        prop_oneof![1u32..3000, 1u32..60_000],
                        proptest::bool::ANY,
                    ),
                    1..30,
                ),
                cfg in prop_oneof![
                    Just(DdrConfig::ddr4_2400_kv260()),
                    Just(DdrConfig::lpddr4_2133_ultra96()),
                    Just(DdrConfig::ddr4_2666_zcu102()),
                    Just(DdrConfig::lpddr5_orin_nano()),
                    Just(DdrConfig::lpddr5_6400_embedded()),
                ],
                lookahead in prop_oneof![Just(1usize), Just(2), Just(8), Just(32), Just(64)],
            ) {
                let mut fast = DdrController::new(cfg.clone(), lookahead);
                let mut slow = DdrController::new(cfg, lookahead);
                slow.set_fast_path(false);
                for (i, &(addr, beats, write)) in bursts.iter().enumerate() {
                    let ef = fast.burst(addr, beats, write);
                    let es = slow.burst(addr, beats, write);
                    prop_assert_eq!(ef, es, "burst {} completion diverged", i);
                    prop_assert_eq!(
                        fast.stats(),
                        slow.stats(),
                        "burst {} stats diverged",
                        i
                    );
                    prop_assert_eq!(
                        timing_state(&fast),
                        timing_state(&slow),
                        "burst {} timing state diverged",
                        i
                    );
                }
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
