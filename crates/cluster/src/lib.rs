//! # phom-cluster
//!
//! Cross-process scale-out for the `phom-service` layer: the repo's
//! answer to "one process will never be the endgame".
//!
//! * [`codec`] — a length-prefixed, versioned binary codec for the full
//!   [`phom_service::Request`] / [`phom_service::Response`] /
//!   [`phom_service::ServiceError`] envelope over the `bytes` seam, with
//!   a configurable frame cap and budget-checked decoding (a corrupt or
//!   hostile frame yields a typed [`codec::CodecError`], never a panic).
//! * [`transport`] — one [`transport::Transport`] trait with two
//!   implementations: real TCP with per-connection read/write timeouts,
//!   and an in-process channel hub so every router/worker test runs
//!   hermetically (and can inject disconnects deterministically).
//! * [`worker`] — the worker process mode behind `phom worker --listen`:
//!   a [`phom_service::Service`] hosted behind a socket accept loop, one
//!   framed request/response exchange at a time per connection.
//! * [`router`] — the front-end: holds the in-process registry's
//!   [`phom_service::ShardMap`] for each graph and runs its shards on the
//!   workers, so queries route and merge, and updates route, through the
//!   same code as a single-process `Service` (routed answers are
//!   bit-identical); it keeps read replicas hydrated from service
//!   snapshots — with heartbeat failure detection, retry/backoff, and
//!   replica promotion on primary death.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod router;
pub mod transport;
pub mod worker;

pub use codec::{CodecError, FrameConfig, WireMessage, WIRE_MAGIC, WIRE_VERSION};
pub use router::{Router, RouterConfig, RouterError, RouterStats};
pub use transport::{
    ChannelHub, ChannelTransport, Connection, Listener, TcpTransport, Transport, TransportTimeouts,
};
pub use worker::{WorkerOptions, WorkerServer};
