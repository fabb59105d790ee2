//! UQL serving layer for the uniform index.
//!
//! Four pieces, each its own module:
//!
//! - [`proto`] — the length-prefixed binary wire protocol (frame format,
//!   defensive decoding, typed error codes).
//! - [`admission`] — a counting gate bounding in-flight queries; excess
//!   load is shed with a typed `Overloaded` error before touching the
//!   engine.
//! - [`cache`] — the prepared-plan cache keyed on normalized UQL text.
//! - [`server`] / [`client`] — a blocking TCP server running each request
//!   on its connection's thread, at most `workers` of them executing on
//!   the served [`uindex::DatabaseReader`] at once, and the reference
//!   client.
//! - [`retry`] — client-side fault survival: bounded, deterministic
//!   retry/backoff and a reconnecting client that re-prepares statements
//!   before any `Execute` retry.
//! - [`stats`] / [`slowlog`] — live introspection: the rolling-window
//!   sampler state behind the `Stats` frame and the worst-N slow-query
//!   log behind `Trace` (see DESIGN.md §14).
//!
//! The design contract threaded through all of it: responses are built
//! from [`uindex::EntryKey::encode`] bytes, so any in-process execution
//! of the same query over the same data is byte-comparable to what a
//! client receives — the differential-oracle hook the test battery and
//! load generator rely on.

pub mod admission;
pub mod cache;
pub mod client;
pub mod proto;
pub mod retry;
pub mod server;
pub mod slowlog;
pub mod stats;

pub use admission::{AdmissionGate, Permit};
pub use cache::{normalize, PlanCache};
pub use client::{Client, QueryReply, ServeError};
pub use proto::{DoneInfo, ErrorCode, Frame, ProtoError, RowBatchWriter, WireRow};
pub use retry::{RetryClient, RetryPolicy, Stmt};
pub use server::{ServeOptions, ServeReport, Server};
pub use slowlog::{SlowLog, SlowQueryEntry};
