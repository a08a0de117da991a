//! Open-loop client arrival processes in virtual time.
//!
//! A workload generator is *open-loop* when arrivals are driven by the
//! clients' own clocks, independent of how fast the service completes
//! requests — the regime under which failover cost is visible as queued
//! and expired requests rather than as a politely slowed-down load. This
//! module generates such schedules deterministically: every client draws
//! its inter-arrival gaps (and its request payloads) from its **own**
//! [`crate::rng::SmallRng`], seeded from the scenario seed and
//! the client index, so
//!
//! * the merged schedule is a pure function of `(spec, seed)` — byte-equal
//!   across runs and hosts, and
//! * client `c`'s stream never depends on how many other clients exist or
//!   on the order streams are sampled in (no shared RNG state to race on
//!   or to perturb — the same per-identity seeding discipline the timer
//!   models use).

use crate::rng::SmallRng;

/// One generated request arrival: when, who, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival<P> {
    /// Arrival time in virtual ticks.
    pub at: u64,
    /// Index of the issuing client.
    pub client: u64,
    /// The request payload the client drew.
    pub payload: P,
}

/// An open-loop arrival spec: `clients` independent sources, each issuing
/// requests with uniform inter-arrival gaps of mean `mean_interarrival`
/// ticks, from `start` (exclusive of ramp-in jitter) until `stop`.
///
/// # Examples
///
/// ```
/// use omega_sim::arrivals::OpenLoop;
///
/// let spec = OpenLoop {
///     clients: 3,
///     mean_interarrival: 100,
///     start: 1_000,
///     stop: 2_000,
/// };
/// let a = spec.generate(42, |client, _rng| client);
/// let b = spec.generate(42, |client, _rng| client);
/// assert_eq!(a, b, "schedules are pure functions of (spec, seed)");
/// assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// Number of independent clients.
    pub clients: u64,
    /// Mean gap between one client's consecutive requests, in ticks
    /// (gaps are uniform on `[1, 2·mean − 1]`; a mean of 1 is exact).
    pub mean_interarrival: u64,
    /// First tick of the arrival window.
    pub start: u64,
    /// End of the arrival window (exclusive): no arrivals at or past it.
    pub stop: u64,
}

impl OpenLoop {
    /// The RNG seed for one client's stream — the same derivation the
    /// scenario spec uses for per-process timer jitter, so a workload and
    /// a timer model sharing a scenario seed still draw from disjoint,
    /// identity-separated streams.
    #[must_use]
    pub fn client_seed(seed: u64, client: u64) -> u64 {
        seed.wrapping_mul(0x0100_0000_01b3)
            .wrapping_add(client.wrapping_mul(2) + 1)
    }

    /// Generates the merged, time-sorted schedule. `payload` is called
    /// once per arrival with the issuing client and that client's own
    /// generator (so payload draws stay inside the per-client stream).
    ///
    /// Ties in arrival time are ordered by client index — a deterministic
    /// merge, not an artifact of sampling order. A client's arrivals are at
    /// least one tick apart, so no two arrivals share `(at, client)`: the
    /// key is unique, and the unstable sort returns the one order a stable
    /// sort would.
    pub fn generate<P>(
        &self,
        seed: u64,
        mut payload: impl FnMut(u64, &mut SmallRng) -> P,
    ) -> Vec<Arrival<P>> {
        let mean = self.mean_interarrival.max(1);
        // A client sends about `window / mean + ½` requests (its ramp-in
        // gap averages half a mean). Reserving at least half a request per
        // client more than that makes the schedule one allocation at scale,
        // not a chain of doublings whose freed runs fragment the heap.
        let per_client = self.stop.saturating_sub(self.start).div_ceil(mean) + 1;
        let expected = self.clients.saturating_mul(per_client);
        let mut schedule = Vec::with_capacity(usize::try_from(expected).unwrap_or(0));
        for client in 0..self.clients {
            let mut rng = SmallRng::seed_from_u64(Self::client_seed(seed, client));
            // Ramp in over one mean gap so the sources do not thunder in
            // lock-step at `start`.
            let mut at = self.start + rng.gen_range(1..=mean) - 1;
            while at < self.stop {
                let payload = payload(client, &mut rng);
                schedule.push(Arrival {
                    at,
                    client,
                    payload,
                });
                at = at.saturating_add(rng.gen_range(1..=2 * mean - 1));
            }
        }
        schedule.sort_unstable_by_key(|a| (a.at, a.client));
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(clients: u64) -> OpenLoop {
        OpenLoop {
            clients,
            mean_interarrival: 50,
            start: 100,
            stop: 5_000,
        }
    }

    #[test]
    fn deterministic_per_seed_and_sorted() {
        let a = spec(8).generate(7, |c, rng| (c, rng.gen_range(0..=9)));
        let b = spec(8).generate(7, |c, rng| (c, rng.gen_range(0..=9)));
        let c = spec(8).generate(8, |c, rng| (c, rng.gen_range(0..=9)));
        assert_eq!(a, b);
        assert_ne!(a, c, "a different seed reshapes the schedule");
        assert!(a
            .windows(2)
            .all(|w| (w[0].at, w[0].client) <= (w[1].at, w[1].client)));
        assert!(a.iter().all(|r| (100..5_000).contains(&r.at)));
    }

    #[test]
    fn the_unstable_merge_is_the_stable_one() {
        // Mean gaps of 1–3 ticks over many clients: most ticks carry
        // arrivals from several clients, so the key's client half decides.
        for (clients, mean) in [(1, 1), (2, 1), (7, 2), (40, 3), (300, 2)] {
            let spec = OpenLoop {
                clients,
                mean_interarrival: mean,
                start: 10,
                stop: 400,
            };
            for seed in 0..8 {
                let schedule = spec.generate(seed, |c, rng| (c, rng.next_u64()));
                let label = format!("{clients} clients, mean {mean}, seed {seed}");
                // Strictly increasing: the sort key is unique.
                let keys: Vec<(u64, u64)> = schedule.iter().map(|a| (a.at, a.client)).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "{label}");
                // Generation order is client-major, each client's arrivals
                // in time order; a stable sort of it is the schedule.
                let mut generated = schedule.clone();
                generated.sort_by_key(|a| a.client);
                generated.sort_by_key(|a| (a.at, a.client));
                assert_eq!(schedule, generated, "{label}");
                let shared_ticks = keys.windows(2).filter(|w| w[0].0 == w[1].0).count();
                assert!(clients == 1 || shared_ticks > 0, "{label}: no tick shared");
            }
        }
    }

    #[test]
    fn a_service_sized_schedule_is_one_allocation() {
        // 2 000 clients over 388 000 ticks at 200 and at 30 requests per
        // 1 000 ticks: the reservation holds every arrival, so the vector
        // never grew past it.
        for mean in [10_000, 66_666] {
            let spec = OpenLoop {
                clients: 2_000,
                mean_interarrival: mean,
                start: 2_000,
                stop: 390_000,
            };
            let reserved = 2_000 * (388_000_u64.div_ceil(mean) + 1) as usize;
            for seed in 0..3 {
                let schedule = spec.generate(seed, |_, _| ());
                assert!(schedule.len() <= reserved, "mean {mean}, seed {seed}");
                assert_eq!(schedule.capacity(), reserved, "mean {mean}, seed {seed}");
            }
        }
    }

    #[test]
    fn client_streams_are_independent_of_the_population() {
        // The regression the per-client seeding exists for: adding clients
        // must not shift anyone else's stream (a shared RNG would).
        let small = spec(3).generate(42, |c, rng| (c, rng.next_u64()));
        let large = spec(9).generate(42, |c, rng| (c, rng.next_u64()));
        for client in 0..3 {
            let of = |s: &[Arrival<(u64, u64)>]| {
                s.iter()
                    .filter(|a| a.client == client)
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                of(&small),
                of(&large),
                "client {client}'s stream depends only on its own seed"
            );
        }
    }

    #[test]
    fn mean_gap_is_roughly_the_spec_mean() {
        let one = OpenLoop {
            clients: 1,
            mean_interarrival: 50,
            start: 0,
            stop: 500_000,
        };
        let schedule = one.generate(3, |_, _| ());
        let gaps: Vec<u64> = schedule.windows(2).map(|w| w[1].at - w[0].at).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((35.0..=65.0).contains(&mean), "observed mean {mean}");
        assert!(gaps.iter().all(|&g| (1..=99).contains(&g)));
    }

    #[test]
    fn degenerate_specs_stay_sane() {
        let empty = OpenLoop {
            clients: 0,
            mean_interarrival: 10,
            start: 0,
            stop: 100,
        };
        assert!(empty.generate(1, |_, _| ()).is_empty());
        let closed = OpenLoop {
            clients: 4,
            mean_interarrival: 10,
            start: 100,
            stop: 100,
        };
        assert!(closed.generate(1, |_, _| ()).is_empty());
        let unit_mean = OpenLoop {
            clients: 1,
            mean_interarrival: 1,
            start: 0,
            stop: 10,
        };
        let schedule = unit_mean.generate(1, |_, _| ());
        assert_eq!(schedule.len(), 10, "mean 1 ticks every tick");
    }
}
