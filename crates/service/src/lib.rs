//! `rlb-serve`: the resident linkage service.
//!
//! Where every other binary in the workspace is batch (build task → measure
//! → exit), this crate keeps a linkage engine alive: records arrive in
//! ingest batches, blocking and assessment queries run against everything
//! ingested so far, and the incremental structures (shared token
//! dictionary, extended task views, embedding index) guarantee the answers
//! are byte-identical to a from-scratch batch rebuild — see [`engine`] for
//! the twin policy and [`protocol`] for the JSONL wire format the
//! `rlb-serve` binary speaks on stdin or TCP.
//!
//! State splits in two. Engine state (records, views, index, the stored
//! similarity rows) lives behind one `RwLock` and nowhere else: `ingest`
//! serializes through the write lock, `link`/`assess`/`stats` read
//! concurrently. Session state (trace numbering, the `metrics` window) is
//! owned by the connection as a [`Session`] and needs no lock. One request
//! loop serves every transport; [`transport`] puts a std-only TCP listener
//! in front of the engine (`RLB_SERVE_ADDR`), multiplexing N concurrent
//! JSONL sessions with per-session `{run}/s{id}/{seq}` traces, idle
//! timeouts and graceful error degradation.

pub mod engine;
pub mod protocol;
pub mod transport;

pub use engine::{Engine, IngestBatch, IngestPair, IngestStats, Split};
pub use protocol::{ServeSummary, Session, DEFAULT_K, DEFAULT_LINK_LIMIT};
pub use transport::{env_usize_once, serve_tcp, TcpSummary, TransportConfig};
