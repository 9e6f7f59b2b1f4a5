//! One benchmark for the real path: KDC → `Publisher` → reactor broker
//! on loopback → `ReactorClient` → decrypt, with a per-layer budget.
//!
//! See `benchmark/README.md` for the metric and workload tables.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod json;
pub mod live;
pub mod micro;
pub mod oracle;
pub mod pin;
pub mod procfs;
pub mod run;
pub mod staged;
pub mod stats;
pub mod suite;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
