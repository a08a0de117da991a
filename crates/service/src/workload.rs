//! Declarative open-loop workloads: who asks what, when, and how long
//! they wait.
//!
//! The arrival *process* lives in `omega_sim::arrivals` (per-client seeded
//! streams merged deterministically); this module layers the KV request
//! mix on top — get/put ratio, key population, and the client-side
//! deadline that turns slow requests into *stalled* ones. All randomness
//! flows through each client's own [`SmallRng`](omega_sim::rng::SmallRng)
//! stream, so adding clients or reordering generation never perturbs an
//! existing client's requests.
//!
//! A generated [`Schedule`] keeps what varies per request — arrival,
//! client, operation — in 24 B, and the workload's two offsets, the
//! client `deadline` and the router's `stall_bound`, once beside them.
//! The ledger derives each request's deadline and fail-fast tick as
//! `arrival + offset`; since the offsets are constant per workload, both
//! tick sequences are as sorted as the arrivals, and each sweep is a
//! single cursor.

use std::ops::Deref;

use omega_sim::arrivals::OpenLoop;

use crate::ledger::MAX_TICK;

/// What one request asks of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Read a key (served by the leader from its replica, no log slot).
    Get {
        /// Key index into the workload's key population.
        key: u32,
    },
    /// Write a key (replicated through a log slot before acknowledgment).
    Put {
        /// Key index into the workload's key population.
        key: u32,
    },
}

/// One generated request: immutable facts fixed at generation time. Its
/// deadline and fail-fast ticks are the [`Schedule`]'s offsets added to
/// `arrival`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMeta {
    /// Arrival tick.
    pub arrival: u64,
    /// Index of the issuing client.
    pub client: u32,
    /// The operation.
    pub kind: RequestKind,
}

/// A time-sorted request schedule and the two offsets every request of
/// its workload shares. It reads as the slice of its requests.
///
/// # Examples
///
/// ```
/// use omega_service::{RequestKind, RequestMeta, Schedule};
///
/// let requests = (0..3)
///     .map(|i| RequestMeta {
///         arrival: 10 * i,
///         client: 0,
///         kind: RequestKind::Get { key: 1 },
///     })
///     .collect();
/// let schedule = Schedule::new(requests, 500, None);
/// assert_eq!(schedule.len(), 3);
/// assert_eq!(schedule[2].arrival, 20);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    requests: Vec<RequestMeta>,
    /// Client patience: a request unresolved `deadline` ticks after its
    /// arrival counts as stalled.
    pub(crate) deadline: u64,
    /// Router-side fail-fast bound, in ticks after arrival, if any.
    pub(crate) stall_bound: Option<u64>,
}

impl Schedule {
    /// A schedule of `requests` whose clients give up `deadline` ticks
    /// after arrival and whose router fails them fast `stall_bound` ticks
    /// after arrival, when set.
    ///
    /// # Panics
    ///
    /// If the arrivals are not time-sorted, or if an offset added to the
    /// last arrival passes the largest tick a request state can record
    /// (2⁶² − 1); the message names the offset.
    #[must_use]
    pub fn new(requests: Vec<RequestMeta>, deadline: u64, stall_bound: Option<u64>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "schedule: arrivals must be time-sorted"
        );
        let last = requests.last().map_or(0, |r| r.arrival);
        let fits = |offset: u64| last.checked_add(offset).is_some_and(|t| t <= MAX_TICK);
        assert!(
            fits(deadline),
            "deadline: {deadline} ticks after arrival {last} passes the largest recordable tick {MAX_TICK}"
        );
        if let Some(bound) = stall_bound {
            assert!(
                fits(bound),
                "stall_bound: {bound} ticks after arrival {last} passes the largest recordable tick {MAX_TICK}"
            );
        }
        Schedule {
            requests,
            deadline,
            stall_bound,
        }
    }

    /// The tick at which `request`'s client gives up waiting.
    pub(crate) fn deadline_at(&self, request: &RequestMeta) -> u64 {
        request.arrival + self.deadline
    }

    /// The tick at which the router fails `request` fast, when the
    /// workload sets a bound.
    pub(crate) fn fail_fast_at(&self, request: &RequestMeta) -> Option<u64> {
        self.stall_bound.map(|bound| request.arrival + bound)
    }
}

impl Deref for Schedule {
    type Target = [RequestMeta];

    fn deref(&self) -> &[RequestMeta] {
        &self.requests
    }
}

/// An open-loop KV workload: `clients` independent sources issuing
/// get/put requests at a configured rate, each request carrying a fixed
/// client-side deadline.
///
/// # Examples
///
/// ```
/// use omega_service::WorkloadSpec;
///
/// let spec = WorkloadSpec {
///     clients: 100,
///     mean_interarrival: 5_000,
///     put_pct: 10,
///     key_space: 16,
///     deadline: 2_000,
///     stall_bound: None,
///     start: 1_000,
///     stop: 10_000,
/// };
/// let a = spec.generate(7);
/// let b = spec.generate(7);
/// assert_eq!(a, b, "workloads are pure functions of (spec, seed)");
/// assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Number of independent clients (at most `u32::MAX`).
    pub clients: u64,
    /// Mean gap between one client's consecutive requests, in ticks.
    pub mean_interarrival: u64,
    /// Percentage of requests that are puts (0–100); the rest are gets.
    pub put_pct: u32,
    /// Number of distinct keys, drawn uniformly (at most `u32::MAX`).
    pub key_space: u64,
    /// Client patience: a request unresolved `deadline` ticks after its
    /// arrival counts as stalled. Constant per workload and held once, on
    /// the [`Schedule`], so requests stay deadline-sorted and the stall
    /// sweep is a single cursor.
    pub deadline: u64,
    /// Router-side fail-fast bound: a request still unresolved
    /// `stall_bound` ticks after its arrival is terminated `Rejected` by
    /// the sweep instead of hanging to the client deadline. `None`
    /// disables the bound. Constant per workload and held once, on the
    /// [`Schedule`] (like `deadline`), so bound ticks stay sorted and the
    /// fail-fast sweep is a single cursor.
    pub stall_bound: Option<u64>,
    /// First tick of the arrival window.
    pub start: u64,
    /// End of the arrival window (exclusive).
    pub stop: u64,
}

impl WorkloadSpec {
    /// Generates the merged, time-sorted request schedule for `seed`.
    ///
    /// # Panics
    ///
    /// With a one-line message naming the field, if `clients` or
    /// `key_space` exceeds `u32::MAX` (a request stores both narrowed), or
    /// if `deadline` or `stall_bound` would carry a request's tick past
    /// the largest one its state can record (see [`Schedule::new`]).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Schedule {
        let narrow = |field: &str, value: u64| {
            assert!(
                value <= u64::from(u32::MAX),
                "{field}: {value} exceeds u32::MAX, the widest a request stores"
            );
        };
        narrow("clients", self.clients);
        narrow("key_space", self.key_space);
        let open = OpenLoop {
            clients: self.clients,
            mean_interarrival: self.mean_interarrival,
            start: self.start,
            stop: self.stop,
        };
        let keys = self.key_space.max(1);
        let put_pct = u64::from(self.put_pct.min(100));
        // Draws stay in u64, as every schedule was drawn; the key stored
        // is narrowed below `key_space`, which fits u32 (checked above).
        let requests = open
            .generate(seed, |_, rng| {
                let key = rng.gen_range(0..=keys - 1) as u32;
                let put = rng.gen_range(1..=100) <= put_pct;
                if put {
                    RequestKind::Put { key }
                } else {
                    RequestKind::Get { key }
                }
            })
            .into_iter()
            .map(|a| RequestMeta {
                arrival: a.at,
                // `client < clients`, which fits u32 (checked above).
                client: a.client as u32,
                kind: a.payload,
            })
            .collect();
        Schedule::new(requests, self.deadline, self.stall_bound)
    }

    /// The store key name for a key index — one canonical spelling, so
    /// every layer (submission, replay, inspection) agrees on it.
    #[must_use]
    pub fn key_name(key: u64) -> String {
        format!("k{key:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            clients: 200,
            mean_interarrival: 10_000,
            put_pct: 20,
            key_space: 8,
            deadline: 3_000,
            stall_bound: None,
            start: 500,
            stop: 20_000,
        }
    }

    #[test]
    fn mix_and_bounds_follow_the_spec() {
        let requests = spec().generate(11);
        assert!(!requests.is_empty());
        assert_eq!(requests.deadline, 3_000, "the deadline is held once");
        let puts = requests
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::Put { .. }))
            .count();
        let ratio = puts as f64 / requests.len() as f64;
        assert!((0.12..=0.28).contains(&ratio), "put ratio {ratio}");
        for r in requests.iter() {
            assert!((500..20_000).contains(&r.arrival));
            assert_eq!(requests.deadline_at(r), r.arrival + 3_000);
            assert!(r.client < 200);
            let (RequestKind::Get { key } | RequestKind::Put { key }) = r.kind;
            assert!(key < 8);
        }
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "schedule is time-sorted (hence deadline-sorted)"
        );
    }

    #[test]
    fn stall_bound_stamps_fail_fast_ticks() {
        let bounded = WorkloadSpec {
            stall_bound: Some(1_500),
            ..spec()
        };
        let requests = bounded.generate(11);
        assert!(!requests.is_empty());
        for r in requests.iter() {
            assert_eq!(requests.fail_fast_at(r), Some(r.arrival + 1_500));
        }
        let unbounded = spec().generate(11);
        assert!(
            unbounded
                .iter()
                .all(|r| unbounded.fail_fast_at(r).is_none()),
            "no bound, no fail-fast tick"
        );
        assert_eq!(
            &*requests, &*unbounded,
            "the bound changes no request, only the schedule's offset"
        );
    }

    #[test]
    fn a_request_is_24_bytes() {
        assert_eq!(std::mem::size_of::<RequestMeta>(), 24);
    }

    #[test]
    #[should_panic(expected = "key_space:")]
    fn a_key_space_wider_than_u32_is_refused() {
        let _ = WorkloadSpec {
            key_space: u64::from(u32::MAX) + 1,
            ..spec()
        }
        .generate(11);
    }

    #[test]
    #[should_panic(expected = "clients:")]
    fn a_population_wider_than_u32_is_refused() {
        let _ = WorkloadSpec {
            clients: u64::from(u32::MAX) + 1,
            ..spec()
        }
        .generate(11);
    }

    #[test]
    #[should_panic(expected = "deadline:")]
    fn a_deadline_past_the_recordable_ticks_is_refused() {
        let _ = WorkloadSpec {
            deadline: MAX_TICK - 1_000,
            ..spec()
        }
        .generate(11);
    }

    #[test]
    #[should_panic(expected = "stall_bound:")]
    fn a_stall_bound_past_the_recordable_ticks_is_refused() {
        let _ = WorkloadSpec {
            stall_bound: Some(MAX_TICK - 1_000),
            ..spec()
        }
        .generate(11);
    }

    #[test]
    fn the_widest_fields_and_offsets_that_fit_are_admitted() {
        let schedule = WorkloadSpec {
            clients: 2,
            key_space: u64::from(u32::MAX),
            ..spec()
        }
        .generate(11);
        let last = schedule.last().expect("two clients send").arrival;
        let fitted = Schedule::new(schedule.to_vec(), MAX_TICK - last, Some(MAX_TICK - last));
        assert_eq!(fitted.deadline_at(&fitted[fitted.len() - 1]), MAX_TICK);
    }

    #[test]
    fn different_seeds_reshape_the_workload() {
        assert_ne!(spec().generate(1), spec().generate(2));
    }

    #[test]
    fn key_names_are_stable() {
        assert_eq!(WorkloadSpec::key_name(7), "k007");
        assert_eq!(WorkloadSpec::key_name(123), "k123");
    }
}
