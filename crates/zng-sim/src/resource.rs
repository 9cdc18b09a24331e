//! Occupancy-based contention models.
//!
//! Shared hardware is modelled as a small pool of servers. A request
//! *reserves* a server for its service time; the reservation's end is the
//! request's departure time. Back-to-back reservations serialize, which is
//! exactly the queueing behaviour that makes, e.g., HybridGPU's single
//! request dispatcher or a 1 B ONFI bus a bottleneck.

use zng_types::Cycle;

/// A pool of identical servers with reservation semantics.
///
/// # Examples
///
/// A single-ported resource serializes:
///
/// ```
/// use zng_sim::Resource;
/// use zng_types::Cycle;
///
/// let mut r = Resource::new(1);
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
/// // Arrives at t=0 but the server is busy until 10.
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(20));
/// ```
///
/// A dual-ported resource overlaps two requests:
///
/// ```
/// use zng_sim::Resource;
/// use zng_types::Cycle;
///
/// let mut r = Resource::new(2);
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(20));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    /// Next-free time per server.
    servers: Vec<Cycle>,
}

impl Resource {
    /// Creates a resource with `ports` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Resource {
        assert!(ports > 0, "a resource needs at least one server");
        Resource {
            servers: vec![Cycle::ZERO; ports],
        }
    }

    /// Reserves the earliest-free server starting no earlier than `now` for
    /// `service` cycles and returns the completion time.
    pub fn acquire(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let slot = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("resource has at least one server");
        let start = now.max(self.servers[slot]);
        let end = start + service;
        self.servers[slot] = end;
        end
    }

    /// The earliest time any server becomes free.
    pub fn earliest_free(&self) -> Cycle {
        self.servers
            .iter()
            .copied()
            .min()
            .expect("resource has at least one server")
    }
}

/// A bandwidth-limited, fixed-latency transfer pipe (a bus, a NoC link,
/// a PCIe lane set, a flash channel).
///
/// Occupancy is `bytes / bytes_per_cycle`; the propagation `latency` is
/// pipelined (it delays the data but does not occupy the pipe).
///
/// # Examples
///
/// ```
/// use zng_sim::Link;
/// use zng_types::Cycle;
///
/// // An 8 B/cycle mesh link with 4-cycle hop latency.
/// let mut l = Link::new(8.0, Cycle(4));
/// // A 4 KB page occupies the link for 512 cycles, arriving at 516.
/// assert_eq!(l.transfer(Cycle(0), 4096), Cycle(516));
/// // The next page queues behind the first occupancy.
/// assert_eq!(l.transfer(Cycle(0), 4096), Cycle(1028));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    pipe: Resource,
    bytes_per_cycle: f64,
    latency: Cycle,
    bytes_moved: u64,
}

impl Link {
    /// Creates a link moving `bytes_per_cycle` with per-transfer `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(bytes_per_cycle: f64, latency: Cycle) -> Link {
        assert!(
            bytes_per_cycle > 0.0,
            "link bandwidth must be positive, got {bytes_per_cycle}"
        );
        Link {
            pipe: Resource::new(1),
            bytes_per_cycle,
            latency,
            bytes_moved: 0,
        }
    }

    /// Reserves the pipe for `bytes` starting no earlier than `now`;
    /// returns the time the last byte arrives.
    pub fn transfer(&mut self, now: Cycle, bytes: usize) -> Cycle {
        let occupancy = Cycle((bytes as f64 / self.bytes_per_cycle).ceil() as u64);
        self.bytes_moved += bytes as u64;
        self.pipe.acquire(now, occupancy) + self.latency
    }

    /// Total bytes pushed through this link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// The link's configured bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }
}

/// A finite admission queue tracking in-flight requests by departure time.
///
/// Unlike [`Resource`], an `AdmissionQueue` does not model service — the
/// caller computes completion times through whatever pipeline it guards
/// (a flash channel controller, an SSD dispatcher) and reports them back
/// via [`AdmissionQueue::note_inflight`]. The queue only decides whether a
/// new request may enter, bounding the in-flight population.
///
/// With no depth configured (the default), [`AdmissionQueue::try_admit`]
/// always succeeds and performs no tracking, so unbounded mode costs
/// nothing and perturbs nothing.
#[derive(Debug, Default, Clone)]
pub struct AdmissionQueue {
    depth: Option<usize>,
    inflight: Vec<Cycle>,
    admitted: u64,
    rejected: u64,
    max_occupancy: u64,
}

impl AdmissionQueue {
    /// Creates an unbounded (no-op) queue.
    pub fn new() -> AdmissionQueue {
        AdmissionQueue::default()
    }

    /// Sets the in-flight bound (`None` = unbounded). Clearing the bound
    /// also drops tracked in-flight entries.
    pub fn set_depth(&mut self, depth: Option<usize>) {
        self.depth = depth;
        if depth.is_none() {
            self.inflight.clear();
        }
    }

    /// Asks to admit one request at `now`. On `Err(retry_at)` the queue is
    /// full; retrying at `retry_at` is guaranteed to succeed if no other
    /// request is admitted in between.
    pub fn try_admit(&mut self, now: Cycle) -> Result<(), Cycle> {
        let Some(depth) = self.depth else {
            return Ok(());
        };
        self.inflight.retain(|&done| done > now);
        if self.inflight.len() >= depth {
            self.rejected += 1;
            let soonest = self
                .inflight
                .iter()
                .copied()
                .min()
                .expect("a full queue has in-flight entries");
            return Err(soonest.max(now + Cycle(1)));
        }
        self.admitted += 1;
        self.max_occupancy = self.max_occupancy.max(self.inflight.len() as u64 + 1);
        Ok(())
    }

    /// Reports the completion time of the request most recently admitted.
    /// No-op in unbounded mode.
    pub fn note_inflight(&mut self, done: Cycle) {
        if self.depth.is_some() {
            self.inflight.push(done);
        }
    }

    /// Requests currently tracked as in flight at `now`.
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.inflight.iter().filter(|&&done| done > now).count()
    }

    /// Requests admitted so far (bounded mode only).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Largest in-flight population ever admitted to.
    pub fn max_occupancy(&self) -> u64 {
        self.max_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let mut r = Resource::new(1);
        let a = r.acquire(Cycle(0), Cycle(5));
        let b = r.acquire(Cycle(2), Cycle(5));
        assert_eq!(a, Cycle(5));
        assert_eq!(b, Cycle(10)); // queued behind a
    }

    #[test]
    fn idle_gap_is_not_reserved() {
        let mut r = Resource::new(1);
        r.acquire(Cycle(0), Cycle(5));
        // Arrives after the first job finished: starts immediately.
        assert_eq!(r.acquire(Cycle(100), Cycle(5)), Cycle(105));
    }

    #[test]
    fn multi_port_overlaps() {
        let mut r = Resource::new(3);
        for _ in 0..3 {
            assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
        }
        assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(20));
        assert_eq!(r.earliest_free(), Cycle(10));
    }

    #[test]
    fn link_bandwidth_math() {
        // 1 B/cycle ONFI-like bus: a 4 KB page takes 4096 cycles.
        let mut bus = Link::new(1.0, Cycle::ZERO);
        assert_eq!(bus.transfer(Cycle(0), 4096), Cycle(4096));
        assert_eq!(bus.bytes_moved(), 4096);
        // An 8 B/cycle link is 8x faster.
        let mut mesh = Link::new(8.0, Cycle::ZERO);
        assert_eq!(mesh.transfer(Cycle(0), 4096), Cycle(512));
    }

    #[test]
    fn link_latency_is_pipelined() {
        let mut l = Link::new(128.0, Cycle(10));
        let first = l.transfer(Cycle(0), 128); // occupancy 1, arrive 11
        let second = l.transfer(Cycle(0), 128); // starts at 1, arrive 12
        assert_eq!(first, Cycle(11));
        assert_eq!(second, Cycle(12));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_ports_rejected() {
        let _ = Resource::new(0);
    }

    #[test]
    fn zero_service_time_reservations() {
        let mut r = Resource::new(1);
        // A zero-cycle reservation departs when it starts and holds nothing.
        assert_eq!(r.acquire(Cycle(5), Cycle::ZERO), Cycle(5));
        assert_eq!(r.acquire(Cycle(5), Cycle(10)), Cycle(15));
    }

    #[test]
    fn admission_queue_unbounded_is_a_noop() {
        let mut q = AdmissionQueue::new();
        for _ in 0..100 {
            assert_eq!(q.try_admit(Cycle(0)), Ok(()));
            q.note_inflight(Cycle(1_000_000));
        }
        assert_eq!(q.in_flight(Cycle(0)), 0, "no tracking without a bound");
        assert_eq!(q.admitted(), 0);
        assert_eq!(q.rejected(), 0);
    }

    #[test]
    fn admission_queue_enforces_depth() {
        let mut q = AdmissionQueue::new();
        q.set_depth(Some(2));
        assert_eq!(q.try_admit(Cycle(0)), Ok(()));
        q.note_inflight(Cycle(50));
        assert_eq!(q.try_admit(Cycle(0)), Ok(()));
        q.note_inflight(Cycle(80));
        assert_eq!(q.try_admit(Cycle(0)), Err(Cycle(50)));
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.in_flight(Cycle(0)), 2);
        // At the hinted time the earliest departure has left.
        assert_eq!(q.try_admit(Cycle(50)), Ok(()));
        assert_eq!(q.max_occupancy(), 2);
        assert_eq!(q.admitted(), 3);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0.0, Cycle::ZERO);
    }
}
