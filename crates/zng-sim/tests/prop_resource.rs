//! The server pool against a linear scan: `Resource` must return the
//! same completion time from every `acquire` and the same
//! `earliest_free` after it as a `Vec` of per-server free times that
//! reserves the first earliest-free server, for pools of 1, 2, 3 and 32
//! servers (the MMU's page-table walker) and for arrivals both in and
//! out of time order.

use proptest::prelude::*;
use zng_sim::Resource;
use zng_types::Cycle;

/// The linear-scan pool: one free time per server.
struct Reference {
    servers: Vec<Cycle>,
}

impl Reference {
    fn acquire(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let slot = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("at least one server");
        let end = now.max(self.servers[slot]) + service;
        self.servers[slot] = end;
        end
    }

    fn earliest_free(&self) -> Cycle {
        self.servers
            .iter()
            .copied()
            .min()
            .expect("at least one server")
    }
}

proptest! {
    /// Each step is `(advance, service, back)`: the arrival moves forward
    /// by `advance`, or back by it when `back` is drawn, and the service
    /// time mixes zero, short and long reservations.
    #[test]
    fn resource_matches_the_linear_scan(
        ports in 0u8..4,
        steps in prop::collection::vec((0u64..50, 0u64..400, 0u8..8), 1..500),
    ) {
        let ports = [1, 2, 3, 32][ports as usize];
        let mut pool = Resource::new(ports);
        let mut reference = Reference { servers: vec![Cycle::ZERO; ports] };
        let mut now = Cycle(500);
        for (advance, service, back) in steps {
            now = if back == 0 {
                Cycle(now.raw().saturating_sub(advance))
            } else {
                now + Cycle(advance)
            };
            let service = Cycle(if back == 1 { 0 } else { service });
            prop_assert_eq!(pool.acquire(now, service), reference.acquire(now, service));
            prop_assert_eq!(pool.earliest_free(), reference.earliest_free());
        }
    }
}
