//! Overload control and per-app QoS isolation.
//!
//! Every shared resource in the simulator is an infinite queue by
//! default: under a GC storm requests accumulate unbounded wait time and
//! one write-heavy app can starve its co-runner. [`QosConfig`] turns on
//! the overload story end to end — finite ZnG channel queues
//! ([`zng_flash::FlashDevice::set_queue_depth`]) or a finite HybridGPU
//! submission queue ([`zng_ssd::SsdModule::set_queue_depth`]),
//! bounded-backoff retries at the warp scheduler, GC pacing credits
//! ([`zng_ftl::GcPacing`]) and a deterministic weighted fair-share gate
//! ([`FairShare`]).
//!
//! The default configuration ([`QosConfig::unbounded`]) disables every
//! mechanism and is bit-identical to the pre-QoS simulator.

use std::collections::BTreeMap;

use zng_types::{ids::AppId, Cycle, Error, Result};

/// Number of per-app fair-share weight slots (app ids 0..8). Multi-app
/// mixes in the paper run at most four co-runners.
pub const MAX_QOS_APPS: usize = 8;

/// Largest accepted [`QosConfig::backoff_base`]: the runner keeps one
/// retry slot per cycle of the base.
pub const MAX_BACKOFF_BASE: u64 = 65_536;

/// Overload-control policy, plumbed `SimConfig` → `Backend` → runner.
///
/// `QosConfig::default()` is [`QosConfig::unbounded`]: every bound off,
/// behaviour (and output) byte-identical to the unbounded simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// In-flight bound for the one queue each flash platform consults
    /// before a demand access: every flash channel controller on ZnG,
    /// the SSD module's submission queue on HybridGPU. The flash
    /// network's links and HybridGPU's flash channels are never bounded,
    /// and the other platforms have no bounded queue. `None` = infinite
    /// queues (no admission control anywhere).
    pub queue_depth: Option<usize>,
    /// How many backoff retries a rejected request may perform before the
    /// runner falls back to waiting for the rejecting queue's hinted
    /// `retry_at` (which is guaranteed to admit in the sequential model).
    pub retry_budget: u32,
    /// First backoff delay; doubles every retry (exponential backoff).
    pub backoff_base: Cycle,
    /// Ceiling on a single backoff delay.
    pub backoff_cap: Cycle,
    /// GC pacing: longest foreground stall one log-block merge may
    /// impose. `None` = block the victim for the whole merge.
    pub gc_stall_budget: Option<Cycle>,
    /// GC pacing credit: foreground events one merge may stall before
    /// the victim app is released early. Ignored without a stall budget.
    pub gc_credit_writes: u64,
    /// Per-app fair-share weights (index = app id; higher = more service
    /// per fairness window). Apps beyond [`MAX_QOS_APPS`] weigh 1.
    pub fair_weights: [u32; MAX_QOS_APPS],
    /// Fairness window: how far (in weighted serviced requests) one app
    /// may run ahead of the furthest-behind active app before the warp
    /// scheduler throttles it. 0 disables the fairness gate.
    pub fair_window: u64,
}

impl QosConfig {
    /// The default policy: everything unbounded, nothing tracked —
    /// byte-identical to the simulator without overload control.
    pub fn unbounded() -> QosConfig {
        QosConfig {
            queue_depth: None,
            retry_budget: 8,
            backoff_base: Cycle(64),
            backoff_cap: Cycle(4096),
            gc_stall_budget: None,
            gc_credit_writes: 0,
            fair_weights: [1; MAX_QOS_APPS],
            fair_window: 0,
        }
    }

    /// A sensible bounded policy: finite queues of `depth`, an 8-retry
    /// exponential backoff, a 64 K-cycle GC stall budget with 32 credit
    /// writes, and a 256-request fairness window with equal weights.
    pub fn bounded(depth: usize) -> QosConfig {
        QosConfig {
            queue_depth: Some(depth),
            gc_stall_budget: Some(Cycle(65_536)),
            gc_credit_writes: 32,
            fair_window: 256,
            ..QosConfig::unbounded()
        }
    }

    /// Whether every overload-control mechanism is off (the byte-identical
    /// default).
    pub fn is_unbounded(&self) -> bool {
        self.queue_depth.is_none() && self.gc_stall_budget.is_none() && self.fair_window == 0
    }

    /// The backoff delay before retry number `attempt` (0-based):
    /// `backoff_base * 2^attempt`, saturating at `backoff_cap`.
    pub fn backoff_delay(&self, attempt: u32) -> Cycle {
        let raw = self
            .backoff_base
            .raw()
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        Cycle(raw.min(self.backoff_cap.raw()))
    }

    /// The fair-share weight of `app` (1 beyond the weight table).
    pub fn weight_for(&self, app: AppId) -> u32 {
        self.fair_weights
            .get(app.index())
            .copied()
            .unwrap_or(1)
            .max(1)
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects a zero queue depth (an empty queue would already be full
    /// and could never admit), a zero backoff base (retries would never
    /// advance time), a base above [`MAX_BACKOFF_BASE`] and a cap below
    /// the base.
    pub fn validate(&self) -> Result<()> {
        if self.queue_depth == Some(0) {
            return Err(Error::invalid_config(
                "qos.queue_depth",
                "must be positive or no request is ever admitted",
            ));
        }
        if self.backoff_base == Cycle::ZERO {
            return Err(Error::invalid_config(
                "qos.backoff_base",
                "must be positive or retries cannot advance time",
            ));
        }
        if self.backoff_base.raw() > MAX_BACKOFF_BASE {
            return Err(Error::invalid_config(
                "qos.backoff_base",
                format!(
                    "{} exceeds the limit of {MAX_BACKOFF_BASE} cycles",
                    self.backoff_base.raw()
                ),
            ));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(Error::invalid_config(
                "qos.backoff_cap",
                "must be at least the backoff base",
            ));
        }
        Ok(())
    }
}

impl Default for QosConfig {
    fn default() -> QosConfig {
        QosConfig::unbounded()
    }
}

/// Deterministic weighted max-lag fairness tracker.
///
/// Each serviced request credits its app with `1 / weight` of weighted
/// progress (kept in integer arithmetic as `count * LCM-free` — we store
/// raw counts and compare `count_a * w_b` against `count_b * w_a` scaled,
/// avoiding floats for bit-determinism). An app is throttled when its
/// weighted progress exceeds the furthest-behind *active* app's by more
/// than the window, which bounds the service lag any app can accumulate
/// (starvation freedom).
///
/// A throttle decision remembers the furthest-behind app it compared
/// against as the throttled app's *witness*. Until the throttled app is
/// credited again, re-checking the gate against the witness alone is
/// enough: every app's progress only grows and the active set only
/// shrinks, so the furthest-behind progress never falls, and an app that
/// still leads its witness by more than the window still leads the
/// furthest-behind app by more. For the same reason the lag such a
/// re-check would observe cannot exceed the one already recorded. The
/// policy passed to [`FairShare::should_throttle`] must therefore stay
/// the same for the tracker's lifetime (the runner builds one tracker
/// per run).
#[derive(Debug, Clone, Default)]
pub struct FairShare {
    /// Requests serviced per app, indexed by app id; `None` for ids
    /// that are neither in the mix nor ever credited.
    served: Vec<Option<u64>>,
    /// Unfinished warps per app, indexed by app id; `None` once the app
    /// is no longer active.
    remaining: Vec<Option<u64>>,
    /// Apps that still have unfinished warps, ascending.
    active: Vec<u16>,
    /// Per app: the furthest-behind app of its last throttle decision,
    /// cleared when the app is credited or a decision lets it through.
    witness: Vec<Option<u16>>,
    /// Throttle decisions taken.
    throttles: u64,
    /// Largest weighted lead observed between any two active apps.
    max_lag: u64,
}

/// Whether an app with `served` requests at weight `w` leads an app with
/// `behind_served` at `behind_w` by more than `window` weighted
/// requests: `served * behind_w > (behind_served + window * behind_w) * w`,
/// saturating so that a huge window never wraps into a throttle.
fn leads_by_more_than(served: u64, w: u64, behind_served: u64, behind_w: u64, window: u64) -> bool {
    let lhs = served.saturating_mul(behind_w);
    let rhs = behind_served
        .saturating_mul(w)
        .saturating_add(window.saturating_mul(w).saturating_mul(behind_w));
    lhs > rhs
}

impl FairShare {
    /// Creates a tracker with `warps_per_app` unfinished warps per app.
    pub fn new(warps_per_app: &BTreeMap<u16, u64>) -> FairShare {
        let slots = warps_per_app.keys().last().map_or(0, |&a| a as usize + 1);
        let mut f = FairShare {
            served: vec![None; slots],
            remaining: vec![None; slots],
            active: warps_per_app.keys().copied().collect(),
            witness: vec![None; slots],
            throttles: 0,
            max_lag: 0,
        };
        for (&app, &warps) in warps_per_app {
            f.served[app as usize] = Some(0);
            f.remaining[app as usize] = Some(warps);
        }
        f
    }

    /// Credits one serviced request to `app`.
    pub fn record(&mut self, app: u16) {
        let i = app as usize;
        if i >= self.served.len() {
            self.served.resize(i + 1, None);
        }
        *self.served[i].get_or_insert(0) += 1;
        if let Some(w) = self.witness.get_mut(i) {
            *w = None;
        }
    }

    /// Marks one of `app`'s warps as finished; an app with no unfinished
    /// warps no longer participates in fairness comparisons.
    pub fn warp_done(&mut self, app: u16) {
        if let Some(Some(n)) = self.remaining.get_mut(app as usize) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.remaining[app as usize] = None;
                self.active.retain(|&a| a != app);
            }
        }
    }

    /// Requests serviced by `app` so far.
    fn served_by(&self, app: u16) -> u64 {
        self.served
            .get(app as usize)
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    /// Whether `app` still has unfinished warps.
    fn is_active(&self, app: u16) -> bool {
        matches!(self.remaining.get(app as usize), Some(Some(_)))
    }

    /// Whether `app` should be throttled at this point: its weighted
    /// progress leads the furthest-behind active app by more than
    /// `window`. Weighted progress of app `a` is `served[a] / weight[a]`,
    /// compared in integer arithmetic. Counts a throttle when true.
    pub fn should_throttle(&mut self, app: u16, cfg: &QosConfig, window: u64) -> bool {
        if self.still_closed(app, cfg, window) {
            self.throttles += 1;
            return true;
        }
        if self.active.len() < 2 || !self.is_active(app) {
            return false;
        }
        let my_served = self.served_by(app);
        let my_w = cfg.weight_for(AppId(app)) as u64;
        // The furthest-behind active competitor's weighted progress.
        let mut behind: Option<(u16, u64, u64)> = None; // (app, served, weight)
        for &other in &self.active {
            if other == app {
                continue;
            }
            let s = self.served_by(other);
            let w = cfg.weight_for(AppId(other)) as u64;
            let is_behind = match behind {
                None => true,
                // s/w < bs/bw  <=>  s*bw < bs*w
                Some((_, bs, bw)) => s * bw < bs * w,
            };
            if is_behind {
                behind = Some((other, s, w));
            }
        }
        let Some((other, bs, bw)) = behind else {
            return false;
        };
        // lead = my_served/my_w - bs/bw, in whole requests of my weight:
        // throttle when my weighted progress exceeds theirs by more than
        // `window` weighted requests.
        let lag = my_served
            .saturating_mul(bw)
            .saturating_sub(bs.saturating_mul(my_w))
            / (my_w * bw).max(1);
        self.max_lag = self.max_lag.max(lag);
        let throttle = leads_by_more_than(my_served, my_w, bs, bw, window);
        self.witness[app as usize] = throttle.then_some(other);
        self.throttles += u64::from(throttle);
        throttle
    }

    /// Whether `app`'s last throttle decision still stands: its witness
    /// is still active and `app` still leads it by more than `window`.
    /// O(1), and counts nothing. When true,
    /// [`FairShare::should_throttle`] would throttle `app` and leave
    /// [`FairShare::max_lag`] unchanged; when false (no decision since
    /// `app` was last credited, or a stale witness), only a full
    /// evaluation can tell.
    pub fn still_closed(&self, app: u16, cfg: &QosConfig, window: u64) -> bool {
        let Some(&Some(other)) = self.witness.get(app as usize) else {
            return false;
        };
        self.is_active(app)
            && self.is_active(other)
            && leads_by_more_than(
                self.served_by(app),
                cfg.weight_for(AppId(app)) as u64,
                self.served_by(other),
                cfg.weight_for(AppId(other)) as u64,
                window,
            )
    }

    /// Counts `n` throttle decisions taken in bulk, each for an app that
    /// [`FairShare::still_closed`] vouched for.
    pub fn add_throttles(&mut self, n: u64) {
        self.throttles += n;
    }

    /// Throttle decisions taken so far.
    pub fn throttles(&self) -> u64 {
        self.throttles
    }

    /// Largest weighted service lead observed between the throttle
    /// candidate and the furthest-behind active app.
    pub fn max_lag(&self) -> u64 {
        self.max_lag
    }

    /// Requests serviced per app: every app in the mix, plus any other
    /// app credited through [`FairShare::record`].
    pub fn served(&self) -> BTreeMap<u16, u64> {
        (0u16..)
            .zip(&self.served)
            .filter_map(|(app, n)| n.map(|n| (app, n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded_and_valid() {
        let q = QosConfig::default();
        assert!(q.is_unbounded());
        q.validate().unwrap();
    }

    #[test]
    fn bounded_preset_turns_everything_on() {
        let q = QosConfig::bounded(16);
        assert!(!q.is_unbounded());
        assert_eq!(q.queue_depth, Some(16));
        assert!(q.gc_stall_budget.is_some());
        assert!(q.fair_window > 0);
        q.validate().unwrap();
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let q = QosConfig::unbounded();
        assert_eq!(q.backoff_delay(0), Cycle(64));
        assert_eq!(q.backoff_delay(1), Cycle(128));
        assert_eq!(q.backoff_delay(3), Cycle(512));
        assert_eq!(q.backoff_delay(10), Cycle(4096), "capped");
        assert_eq!(q.backoff_delay(200), Cycle(4096), "shift overflow capped");
    }

    #[test]
    fn validation_rejects_degenerate_backoff() {
        let mut q = QosConfig::unbounded();
        q.backoff_base = Cycle::ZERO;
        assert!(q.validate().is_err());
        let mut q = QosConfig::unbounded();
        q.backoff_cap = Cycle(1);
        assert!(q.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_zero_queue_depth() {
        QosConfig::bounded(1).validate().unwrap();
        match QosConfig::bounded(0).validate() {
            Err(Error::InvalidConfig { what, .. }) => assert_eq!(what, "qos.queue_depth"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validation_bounds_the_backoff_base() {
        let mut q = QosConfig::bounded(16);
        q.backoff_base = Cycle(MAX_BACKOFF_BASE);
        q.backoff_cap = Cycle(MAX_BACKOFF_BASE);
        q.validate().unwrap();
        q.backoff_base = Cycle(MAX_BACKOFF_BASE + 1);
        q.backoff_cap = Cycle(u64::MAX);
        match q.validate() {
            Err(Error::InvalidConfig { what, why }) => {
                assert_eq!(what, "qos.backoff_base");
                assert!(why.contains("65537") && why.contains("65536"), "{why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn huge_window_never_wraps_into_a_throttle() {
        let cfg = QosConfig::bounded(8);
        let warps: BTreeMap<u16, u64> = [(0, 1), (1, 1)].into_iter().collect();
        let mut f = FairShare::new(&warps);
        // Equal service: the laggard is the other app, which is exactly
        // level, so neither may be throttled however the sum rounds.
        for _ in 0..3 {
            f.record(0);
            f.record(1);
        }
        assert!(!f.should_throttle(0, &cfg, u64::MAX));
        assert!(!f.should_throttle(1, &cfg, u64::MAX));
        assert_eq!(f.throttles(), 0);
    }

    #[test]
    fn fair_share_throttles_the_leader_only() {
        let cfg = QosConfig::bounded(8);
        let warps: BTreeMap<u16, u64> = [(0, 4), (1, 4)].into_iter().collect();
        let mut f = FairShare::new(&warps);
        for _ in 0..300 {
            f.record(0);
        }
        f.record(1);
        assert!(f.should_throttle(0, &cfg, 256), "app 0 leads by > window");
        assert!(
            !f.should_throttle(1, &cfg, 256),
            "the laggard never throttles"
        );
        assert_eq!(f.throttles(), 1);
        assert!(f.max_lag() >= 256);
    }

    #[test]
    fn fair_share_ignores_finished_apps() {
        let cfg = QosConfig::bounded(8);
        let warps: BTreeMap<u16, u64> = [(0, 1), (1, 1)].into_iter().collect();
        let mut f = FairShare::new(&warps);
        for _ in 0..1000 {
            f.record(0);
        }
        // App 1 finished: no active competitor, no throttling.
        f.warp_done(1);
        assert!(!f.should_throttle(0, &cfg, 256));
    }

    #[test]
    fn fair_share_respects_weights() {
        let mut cfg = QosConfig::bounded(8);
        cfg.fair_weights[0] = 4; // app 0 is entitled to 4x service
        let warps: BTreeMap<u16, u64> = [(0, 4), (1, 4)].into_iter().collect();
        let mut f = FairShare::new(&warps);
        for _ in 0..900 {
            f.record(0);
        }
        for _ in 0..100 {
            f.record(1);
        }
        // Weighted progress: 900/4 = 225 vs 100/1 = 100; lead 125 < 256.
        assert!(!f.should_throttle(0, &cfg, 256));
        for _ in 0..700 {
            f.record(0);
        }
        // 1600/4 = 400 vs 100: lead 300 > 256.
        assert!(f.should_throttle(0, &cfg, 256));
    }

    /// The ordered-map tracker the dense one replaced, kept as the
    /// reference model for `dense_fair_share_matches_ordered_map_model`.
    #[derive(Default)]
    struct MapFairShare {
        served: BTreeMap<u16, u64>,
        active: BTreeMap<u16, u64>,
        throttles: u64,
        max_lag: u64,
    }

    impl MapFairShare {
        fn should_throttle(&mut self, app: u16, cfg: &QosConfig, window: u64) -> bool {
            if self.active.len() < 2 || !self.active.contains_key(&app) {
                return false;
            }
            let my_served = self.served.get(&app).copied().unwrap_or(0);
            let my_w = cfg.weight_for(AppId(app)) as u64;
            let mut behind: Option<(u64, u64)> = None;
            for &other in self.active.keys().filter(|&&a| a != app) {
                let s = self.served.get(&other).copied().unwrap_or(0);
                let w = cfg.weight_for(AppId(other)) as u64;
                if behind.is_none_or(|(bs, bw)| s * bw < bs * w) {
                    behind = Some((s, w));
                }
            }
            let Some((bs, bw)) = behind else { return false };
            let lead_lhs = my_served.saturating_mul(bw);
            let lead_rhs = bs.saturating_mul(my_w) + window.saturating_mul(my_w).saturating_mul(bw);
            let lag = lead_lhs.saturating_sub(bs.saturating_mul(my_w)) / (my_w * bw).max(1);
            self.max_lag = self.max_lag.max(lag);
            self.throttles += u64::from(lead_lhs > lead_rhs);
            lead_lhs > lead_rhs
        }
    }

    proptest::proptest! {
        /// Arbitrary record / warp-done / throttle interleavings over
        /// mixes with gaps in their app ids, zero-warp apps and credits
        /// to apps outside the mix give the same decisions, counters and
        /// per-app service as the ordered-map model.
        #[test]
        fn dense_fair_share_matches_ordered_map_model(
            mix in proptest::collection::vec((0u16..12, 0u64..4), 1..6),
            ops in proptest::collection::vec((0u8..3, 0u16..14, 0u64..64), 1..400),
        ) {
            let mut cfg = QosConfig::bounded(8);
            cfg.fair_weights = [1, 3, 1, 2, 1, 1, 5, 1];
            let warps: BTreeMap<u16, u64> = mix.into_iter().collect();
            let mut dense = FairShare::new(&warps);
            let mut map = MapFairShare {
                served: warps.keys().map(|&a| (a, 0)).collect(),
                active: warps.clone(),
                ..MapFairShare::default()
            };
            for &(op, app, window) in &ops {
                match op {
                    0 => {
                        dense.record(app);
                        *map.served.entry(app).or_insert(0) += 1;
                    }
                    1 => {
                        dense.warp_done(app);
                        if let Some(n) = map.active.get_mut(&app) {
                            *n = n.saturating_sub(1);
                            if *n == 0 {
                                map.active.remove(&app);
                            }
                        }
                    }
                    _ => proptest::prop_assert_eq!(
                        dense.should_throttle(app, &cfg, window),
                        map.should_throttle(app, &cfg, window)
                    ),
                }
            }
            proptest::prop_assert_eq!(dense.throttles(), map.throttles);
            proptest::prop_assert_eq!(dense.max_lag(), map.max_lag);
            proptest::prop_assert_eq!(dense.served(), map.served);
        }
    }

    proptest::proptest! {
        /// The witness shortcut never changes a decision or a counter.
        /// Over random weights, mixes and record / warp-done / throttle
        /// sequences at a fixed window, the tracker's decisions, throttle
        /// count and largest lag match the ordered-map model (which
        /// evaluates every competitor on every call) after every step.
        /// Whenever `still_closed` vouches for an app, a full evaluation
        /// on a clone with its witnesses dropped throttles the app too
        /// and leaves the clone's largest lag where it was.
        #[test]
        fn witness_matches_full_evaluation(
            weights in proptest::collection::vec(1u32..6, 8..9),
            mix in proptest::collection::vec((0u16..5, 1u64..4), 2..6),
            window in 0u64..12,
            ops in proptest::collection::vec((0u8..6, 0u16..5), 1..500),
        ) {
            let mut cfg = QosConfig::bounded(8);
            cfg.fair_weights.copy_from_slice(&weights);
            let warps: BTreeMap<u16, u64> = mix.into_iter().collect();
            let mut fast = FairShare::new(&warps);
            let mut map = MapFairShare {
                served: warps.keys().map(|&a| (a, 0)).collect(),
                active: warps.clone(),
                ..MapFairShare::default()
            };
            for &(op, app) in &ops {
                match op {
                    // Credits are rarer than decisions, so apps run into
                    // the gate and stay there for a while.
                    0 => {
                        fast.record(app);
                        *map.served.entry(app).or_insert(0) += 1;
                    }
                    1 => {
                        fast.warp_done(app);
                        if let Some(n) = map.active.get_mut(&app) {
                            *n = n.saturating_sub(1);
                            if *n == 0 {
                                map.active.remove(&app);
                            }
                        }
                    }
                    _ => {
                        if fast.still_closed(app, &cfg, window) {
                            let mut full = fast.clone();
                            full.witness.fill(None);
                            proptest::prop_assert!(full.should_throttle(app, &cfg, window));
                            proptest::prop_assert_eq!(full.max_lag(), fast.max_lag());
                        }
                        proptest::prop_assert_eq!(
                            fast.should_throttle(app, &cfg, window),
                            map.should_throttle(app, &cfg, window)
                        );
                    }
                }
                proptest::prop_assert_eq!(fast.throttles(), map.throttles);
                proptest::prop_assert_eq!(fast.max_lag(), map.max_lag);
            }
        }
    }
}
