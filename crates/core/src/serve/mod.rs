//! The sharded resident fleet service behind the `ssdserve` binary.
//!
//! Layered bottom-up (DESIGN.md has the full architecture chapter):
//!
//! - [`protocol`] — length-prefixed JSON frames, request decoding, typed
//!   [`protocol::ProtocolError`]s.
//! - [`shard`] — per-worker resident state ([`shard::ShardState`]) and
//!   the union [`shard::PassPlan`] a request batch compiles into, with
//!   exact (not approximate) cross-shard merge semantics.
//! - [`service`] — [`service::FleetService`]: two streaming load passes
//!   (train, deal), then request batches answered with one shard
//!   broadcast each.
//! - [`server`] — the per-connection frame loop and the cross-client
//!   coalescing [`server::Dispatcher`].
//!
//! The whole stack inherits the workspace determinism contract: response
//! bytes are identical for any shard count, queue depth, and client
//! interleaving (`tests/serve.rs`).

pub mod protocol;
pub mod server;
pub mod service;
pub mod shard;

pub use protocol::{read_frame, write_frame, ProtocolError, Request};
pub use server::{serve_connection, Dispatcher, Responder};
pub use service::{train_scorer, FleetService, ScorerSpec, ServeConfig, ServeError, TrainedScorer};
