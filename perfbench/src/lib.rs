//! A closed-loop benchmark of the `scq-serve` line protocol.
//!
//! Two clients drive a live front end — in-process local shards, or a
//! router over a 2-shard WAL cluster on loopback — with seeded request
//! streams, every answer is checked against an unsharded oracle, and a
//! separate traced run attributes each request's time to the layers it
//! passed through. `README.md` describes the workloads and metrics.

pub mod deploy;
pub mod gen;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod trace;
