//! The six workloads. Each drives only the crates' public functions, from
//! one generator thread, and returns what it observed.

pub mod coop;
pub mod elect;
pub mod serve;

use crate::harness::{Ctx, Measured};
use crate::spans::Recorder;

/// Runs the workload called `name`, or `None` if there is none.
pub fn run(name: &str, ctx: &Ctx, recorder: &mut Recorder) -> Option<Measured> {
    Some(match name {
        "elect-small" => elect::run(elect::Kind::Small, ctx, recorder),
        "elect-wide" => elect::run(elect::Kind::Wide, ctx, recorder),
        "elect-churn" => elect::run(elect::Kind::Churn, ctx, recorder),
        "serve-writes" => serve::run(serve::Kind::Writes, ctx, recorder),
        "serve-failover" => serve::run(serve::Kind::Failover, ctx, recorder),
        "coop-failover" => coop::run(ctx, recorder),
        _ => return None,
    })
}
