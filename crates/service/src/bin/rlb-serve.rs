//! The resident linkage service binary: JSONL requests on stdin, JSONL
//! responses on stdout, one object per line (see `rlb_serve::protocol`) —
//! or, when `RLB_SERVE_ADDR` is set, a TCP listener multiplexing
//! concurrent JSONL sessions over the same engine (see
//! `rlb_serve::transport`).
//!
//! ```text
//! echo '{"op":"stats"}' | rlb-serve
//! RLB_SERVE_ADDR=127.0.0.1:0 rlb-serve   # prints {"listening":"<addr>"}
//! ```
//!
//! Environment:
//! - `RLB_SERVE_ADDR` — TCP bind address; unset/empty keeps stdin mode;
//! - `RLB_SERVE_SESSIONS` — concurrent-session cap in TCP mode (default 8);
//! - `RLB_SERVE_TIMEOUT_MS` — per-session idle/read timeout (default 30000);
//! - `RLB_SERVE_MAX_LINE` — per-request line cap in bytes (default 4 MiB);
//! - `RLB_SERVE_METRICS` — where to write the `RUN_METRICS.json` artifact
//!   on exit (default `RUN_METRICS.json`; empty string disables it);
//! - plus the observability variables `rlb_obs::init` reads (`RLB_LOG`,
//!   `RLB_OBS_FILE`, `RLB_THREADS`).
//!
//! Invalid numeric values warn once and fall back to their defaults (the
//! `RLB_THREADS` validation policy); they are never silently swallowed.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::RwLock;

fn main() -> ExitCode {
    rlb_obs::init();
    let started = std::time::Instant::now();
    let config = rlb_serve::TransportConfig::from_env();
    let engine = RwLock::new(rlb_serve::Engine::new("serve"));
    let addr = std::env::var("RLB_SERVE_ADDR")
        .ok()
        .filter(|a| !a.trim().is_empty());
    let result = match addr {
        Some(addr) => serve_tcp(&engine, addr.trim(), &config),
        None => {
            let mut session = rlb_serve::Session::stdin();
            session
                .serve(
                    &engine,
                    std::io::stdin().lock(),
                    std::io::stdout().lock(),
                    config.max_line_bytes,
                    &AtomicBool::new(false),
                )
                .map(|()| {
                    let summary = session.summary();
                    (summary.requests, summary.errors, summary.shut_down)
                })
        }
    };
    let metrics_path =
        std::env::var("RLB_SERVE_METRICS").unwrap_or_else(|_| "RUN_METRICS.json".into());
    if !metrics_path.is_empty() {
        if let Err(e) = rlb_obs::write_run_metrics(&metrics_path, started.elapsed()) {
            rlb_obs::warn!("failed to write {metrics_path}: {e}");
        }
    }
    match result {
        Ok((requests, errors, shut_down)) => {
            rlb_obs::info!(
                "served {requests} requests ({errors} errors), {}",
                if shut_down {
                    "shut down"
                } else {
                    "input closed"
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            rlb_obs::warn!("serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// TCP mode: bind, announce the resolved address on stdout as one JSON line
/// (`{"listening":"127.0.0.1:4100"}` — with port 0 the kernel picks, so
/// scripted clients parse this line to find the server), then serve until a
/// `shutdown` request.
fn serve_tcp(
    engine: &RwLock<rlb_serve::Engine>,
    addr: &str,
    config: &rlb_serve::TransportConfig,
) -> std::io::Result<(u64, u64, bool)> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "{{\"listening\":\"{local}\"}}")?;
        stdout.flush()?;
    }
    rlb_obs::info!(
        "listening on {local} (max {} sessions, {}ms idle timeout)",
        config.max_sessions,
        config.timeout_ms
    );
    let summary = rlb_serve::serve_tcp(engine, listener, config)?;
    rlb_obs::info!(
        "{} sessions served ({} rejected at the cap)",
        summary.sessions,
        summary.rejected
    );
    Ok((summary.requests, summary.errors, summary.shut_down))
}
