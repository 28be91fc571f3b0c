//! `exea-serve`: a fault-tolerant alignment serving daemon.
//!
//! The offline pipeline (train → explain → verify → repair) answers "is
//! this alignment right, and why" in bulk. This crate puts the same
//! pipeline behind a long-lived daemon: models and candidate indexes are
//! loaded once ([`Engine`]), concurrent queries arrive over unix sockets or
//! TCP in a small length-prefixed binary protocol ([`protocol`]), and an
//! admission-batching layer ([`queue`]) funnels them through the
//! order-preserving batch pipeline so batched serving stays bit-identical
//! to sequential.
//!
//! The interesting part is what happens when things go wrong:
//!
//! - **Deadlines** — every request carries one; cooperative checkpoints
//!   between pipeline stages abandon expired work with a typed
//!   [`protocol::Response::DeadlineExceeded`].
//! - **Backpressure** — the admission queue is bounded; past capacity the
//!   daemon answers [`protocol::Response::Overloaded`] with a retry hint
//!   instead of buffering without bound.
//! - **Graceful degradation** — under load, predict requests step down a
//!   configured ladder (exact live LSM scan → partial IVF probing → SQ8
//!   quantized scan), and every response is tagged with the tier that
//!   served it.
//! - **Panic isolation** — a panicking request becomes a typed
//!   [`protocol::Response::Internal`]; the daemon keeps serving.
//! - **Graceful shutdown** — in-flight work drains under a deadline;
//!   whatever remains is answered [`protocol::Response::ShuttingDown`].
//! - **Deterministic chaos** — [`fault::FaultPlan`] injects I/O errors,
//!   slow reads, torn frames and handler panics on a fixed schedule, so
//!   the chaos suite can assert the daemon *always* answers or rejects
//!   with a typed error — never hangs, never corrupts, never panics.
//!
//! The client side ([`client`]) speaks the same protocol and layers retry
//! with exponential backoff and deterministic jitter over it, honouring
//! the server's `retry_after` hints.

#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod fault;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ClientError, RetryClient, RetryPolicy};
pub use engine::{Engine, EngineConfig, InsertAck, MutateError, RemoveAck};
pub use fault::{ConnFaults, FaultPlan, FaultyStream};
pub use protocol::{Request, RequestFrame, Response, ResponseFrame, StatsReply, Tier};
pub use queue::{Admission, Batch, PushError};
pub use server::{Deadline, DrainReport, Endpoint, Server, ServerConfig, ServerHandle};

/// Startup-time failures of the daemon (serving-time failures are typed
/// protocol responses instead — the daemon does not die on request errors).
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration (bad endpoint list, empty corpus, thread
    /// spawn failure, …).
    Config(String),
    /// An endpoint could not be bound.
    Bind {
        /// The address or socket path that failed.
        endpoint: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(message) => write!(f, "invalid serve configuration: {message}"),
            ServeError::Bind { endpoint, source } => {
                write!(f, "cannot bind {endpoint}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(_) => None,
            ServeError::Bind { source, .. } => Some(source),
        }
    }
}
