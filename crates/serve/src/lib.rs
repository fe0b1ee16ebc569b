//! `rrm_serve`: a sharded multi-tenant query service over rank-regret
//! [`Session`]s — the ROADMAP's "millions of users" story made
//! measurable.
//!
//! Hand-rolled on `std` only (the container has no crates.io): a TCP
//! front end speaking newline-delimited JSON, a tenant registry where
//! each named dataset owns one prepared-state-sharing [`Session`],
//! admission control (per-tenant in-flight limits + a global queue cap,
//! rejections immediate and structured), wall-clock deadlines counted
//! from admission, and per-tenant observability (counters +
//! log-bucketed latency histograms) served by a `stats` request and
//! dumped at shutdown.
//!
//! A deadline never changes what is solved: the wire's `samples` and
//! `approx` alone fix the frame. For the anytime (cuttable) HD solvers
//! `deadline_ms` becomes the solve's [`Budget`] time limit, less the
//! queue wait, beside an optional `gap` target — the first limit reached
//! stops the solve, and a blown deadline yields a best-so-far incumbent
//! with a certified gap (`"partial": true`) instead of an error. Other
//! algorithms that age out in the queue answer `deadline_exceeded`.
//!
//! ```no_run
//! use rrm_serve::{Client, ServerConfig, ServerHandle, SyntheticKind, TenantSpec};
//!
//! let specs = [TenantSpec::synthetic("movies", SyntheticKind::Independent, 1000, 4, 42)];
//! let server = ServerHandle::start(ServerConfig::default(), &specs).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client
//!     .call(r#"{"op":"minimize","tenant":"movies","param":5,"deadline_ms":100,"id":1}"#)
//!     .unwrap();
//! assert_eq!(reply.get("status").and_then(|s| s.as_str()), Some("ok"));
//! let stats = server.shutdown();
//! println!("{}", stats.render());
//! ```
//!
//! The wire schema and error codes live in [`protocol`]; the determinism
//! contract over the wire (served responses bit-identical to in-process
//! runs of [`effective_request`]) is exercised by `repro serve` in the
//! bench crate.
//!
//! [`Session`]: rank_regret::Session
//! [`Budget`]: rank_regret::Budget

pub mod client;
pub mod json;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;

pub use client::Client;
pub use json::Json;
pub use protocol::{error_response, ok_response, parse_request, ErrorKind, Op, WireRequest};
pub use registry::{DataSource, Registry, SyntheticKind, Tenant, TenantSpec};
pub use server::{effective_request, Calibration, ServerConfig, ServerHandle, MAX_LINE_BYTES};
pub use stats::{LogHistogram, TenantCounters};
