//! The backend interface: anything that can realize a [`Scenario`].

use crate::{Outcome, Scenario};

/// A backend that can execute a [`Scenario`] and report a comparable
/// [`Outcome`].
///
/// Two implementations ship today — [`SimDriver`](crate::SimDriver)
/// (deterministic virtual time, adversarial schedules) and
/// [`WallDriver`](crate::WallDriver) (wall-clock time on OS threads, on OS
/// threads over disk-block registers with injected SAN latency, or on the
/// cooperative deadline-wheel runtime that scales past `n = 16`) — and the
/// trait is the seam further backends plug into; a further wall-clock
/// substrate is one more arm of [`WallDriver::launch`](crate::WallDriver::launch).
pub trait Driver {
    /// Short backend name recorded in every [`Outcome`].
    fn name(&self) -> &'static str;

    /// Executes the scenario to completion.
    fn run(&self, scenario: &Scenario) -> Outcome;
}
