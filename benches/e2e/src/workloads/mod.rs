//! The four workloads. Each is one `Workload` impl under the shared driver.

pub mod gen;
pub mod infer;
pub mod train;
