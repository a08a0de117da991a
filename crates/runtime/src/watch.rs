//! Leader-change notifications: the Ω oracle as a subscribable service.
//!
//! Downstream systems rarely poll `leader()` in a loop — they want to know
//! *when leadership changes* (to fail over a primary, re-route clients,
//! fence the old leader). [`LeaderWatch`] runs a small observer thread over
//! a [`Cluster`] and delivers [`LeaderEvent`]s to any number of
//! subscribers.
//!
//! Events are deliberately *edge-triggered and conflated per subscriber
//! queue*: Ω's contract allows arbitrary flapping before stabilization, so
//! consumers must treat every event as "current belief", not as truth.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use omega_registers::sync::Mutex;
use omega_registers::ProcessId;

use crate::cluster::Cluster;

/// A leadership change observed on a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderEvent {
    /// The previous agreed leader, if there was one.
    pub previous: Option<ProcessId>,
    /// The new agreed leader, or `None` if agreement dissolved.
    pub current: Option<ProcessId>,
}

struct Subscriber {
    queue: Arc<Mutex<Vec<LeaderEvent>>>,
}

/// Observes a cluster and notifies subscribers of leadership changes.
///
/// "The leader" is [`Cluster::agreed_leader`]: the identity that *all*
/// correct nodes currently report; while they disagree, the watch reports
/// `None`.
pub struct LeaderWatch {
    subscribers: Arc<Mutex<Vec<Subscriber>>>,
    current: Arc<Mutex<Option<ProcessId>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl LeaderWatch {
    /// Starts observing `cluster`, polling its cached estimates every
    /// `poll` interval.
    #[must_use]
    pub fn start(cluster: Arc<Cluster>, poll: Duration) -> Self {
        let subscribers: Arc<Mutex<Vec<Subscriber>>> = Arc::new(Mutex::new(Vec::new()));
        let current: Arc<Mutex<Option<ProcessId>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));

        let thread = {
            let subscribers = Arc::clone(&subscribers);
            let current = Arc::clone(&current);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("leader-watch".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let agreed = cluster.agreed_leader();
                        let mut held = current.lock();
                        if *held != agreed {
                            let event = LeaderEvent {
                                previous: *held,
                                current: agreed,
                            };
                            *held = agreed;
                            drop(held);
                            for sub in subscribers.lock().iter() {
                                sub.queue.lock().push(event);
                            }
                        } else {
                            drop(held);
                        }
                        std::thread::sleep(poll);
                    }
                })
                .expect("spawn leader-watch thread")
        };
        LeaderWatch {
            subscribers,
            current,
            stop,
            thread: Some(thread),
        }
    }

    /// The watch's current view of the agreed leader.
    #[must_use]
    pub fn current(&self) -> Option<ProcessId> {
        *self.current.lock()
    }

    /// Subscribes to future leadership changes.
    #[must_use]
    pub fn subscribe(&self) -> LeaderEvents {
        let queue = Arc::new(Mutex::new(Vec::new()));
        self.subscribers.lock().push(Subscriber {
            queue: Arc::clone(&queue),
        });
        LeaderEvents { queue }
    }

    /// Blocks until the watch reports an agreed leader, up to `timeout`.
    #[must_use]
    pub fn await_leader(&self, timeout: Duration) -> Option<ProcessId> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(leader) = self.current() {
                return Some(leader);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops the observer thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LeaderWatch {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for LeaderWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderWatch")
            .field("current", &self.current())
            .field("subscribers", &self.subscribers.lock().len())
            .finish()
    }
}

/// A subscriber's stream of leadership events.
#[derive(Debug)]
pub struct LeaderEvents {
    queue: Arc<Mutex<Vec<LeaderEvent>>>,
}

impl LeaderEvents {
    /// Drains and returns all events delivered since the last call.
    #[must_use]
    pub fn drain(&self) -> Vec<LeaderEvent> {
        std::mem::take(&mut *self.queue.lock())
    }

    /// Blocks until an event whose `current` satisfies `pred` arrives, up
    /// to `timeout`; returns it (earlier events are consumed too).
    #[must_use]
    pub fn await_event(
        &self,
        timeout: Duration,
        pred: impl Fn(&LeaderEvent) -> bool,
    ) -> Option<LeaderEvent> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            for event in self.drain() {
                if pred(&event) {
                    return Some(event);
                }
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use omega_core::OmegaVariant;

    fn fast() -> NodeConfig {
        NodeConfig {
            step_interval: Duration::from_micros(200),
            tick: Duration::from_micros(300),
        }
    }

    #[test]
    fn watch_reports_election_and_failover() {
        let cluster = Arc::new(Cluster::start(OmegaVariant::Alg1, 3, fast()));
        let mut watch = LeaderWatch::start(Arc::clone(&cluster), Duration::from_millis(1));
        let events = watch.subscribe();

        let first = watch
            .await_leader(Duration::from_secs(10))
            .expect("watch sees the election");
        assert!(cluster.correct().contains(first));

        // The subscriber saw the rise of the first leader.
        let rise = events
            .await_event(Duration::from_secs(2), |e| e.current == Some(first))
            .expect("election event delivered");
        assert_eq!(rise.current, Some(first));

        // Crash it: the subscriber must observe a change away from `first`.
        cluster.crash(first);
        let fall = events
            .await_event(Duration::from_secs(10), |e| {
                e.previous == Some(first) && e.current != Some(first)
            })
            .expect("failover event delivered");
        assert_ne!(fall.current, Some(first));

        // And eventually a new agreed leader.
        let second = events
            .await_event(Duration::from_secs(10), |e| {
                e.current.is_some() && e.current != Some(first)
            })
            .map(|e| e.current.unwrap())
            .or_else(|| watch.await_leader(Duration::from_secs(10)));
        let second = second.expect("new leader observed");
        assert_ne!(second, first);

        watch.shutdown();
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("cluster still referenced"),
        }
    }

    #[test]
    fn multiple_subscribers_get_the_same_events() {
        let cluster = Arc::new(Cluster::start(OmegaVariant::Alg1, 2, fast()));
        let watch = LeaderWatch::start(Arc::clone(&cluster), Duration::from_millis(1));
        let a = watch.subscribe();
        let b = watch.subscribe();
        let leader = watch.await_leader(Duration::from_secs(10)).expect("elects");
        let ea = a.await_event(Duration::from_secs(2), |e| e.current == Some(leader));
        let eb = b.await_event(Duration::from_secs(2), |e| e.current == Some(leader));
        assert_eq!(ea, eb);
        drop(watch);
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("cluster still referenced"),
        }
    }

    #[test]
    fn debug_format() {
        let cluster = Arc::new(Cluster::start(OmegaVariant::Alg1, 2, fast()));
        let watch = LeaderWatch::start(Arc::clone(&cluster), Duration::from_millis(1));
        let _sub = watch.subscribe();
        let out = format!("{watch:?}");
        assert!(out.contains("subscribers: 1"));
        drop(watch);
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("cluster still referenced"),
        }
    }
}
