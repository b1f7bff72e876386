//! Per-session `metrics` windows over TCP: two sessions on one engine
//! interleave `metrics` calls (A, B, A). Counters are process-wide, but
//! each window runs from the *same session's* previous `metrics` call, so
//! one session's call must never shrink another session's window.
//!
//! This file holds a single test so no other test in the process moves the
//! global counters between the calls it compares.

use rlb_serve::{serve_tcp, Engine, TransportConfig};
use rlb_util::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::RwLock;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn call(&mut self, line: &str) -> Value {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        let reply = Value::parse(reply.trim()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply:?}");
        reply
    }
}

/// `(name, total, delta)` for every counter in a `metrics` reply.
fn counters(reply: &Value) -> Vec<(String, f64, f64)> {
    let Some(Value::Obj(fields)) = reply.get("counters") else {
        panic!("metrics reply without counters: {reply:?}");
    };
    fields
        .iter()
        .map(|(name, c)| {
            let field = |f: &str| c.get(f).and_then(Value::as_f64).unwrap();
            (name.clone(), field("total"), field("delta"))
        })
        .collect()
}

fn delta_of(reply: &Value, name: &str) -> f64 {
    counters(reply)
        .into_iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("no {name} counter in {reply:?}"))
        .2
}

#[test]
fn interleaved_sessions_get_independent_metrics_windows() {
    let engine = std::sync::Arc::new(RwLock::new(Engine::new("windows")));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = TransportConfig {
        max_sessions: 4,
        timeout_ms: 10_000,
        max_line_bytes: 4096,
    };
    let server = std::thread::spawn({
        let engine = std::sync::Arc::clone(&engine);
        move || serve_tcp(&engine, listener, &config).unwrap()
    });

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.call(r#"{"op":"stats"}"#);
    b.call(r#"{"op":"stats"}"#);

    let _a_first = a.call(r#"{"op":"metrics"}"#);
    let b_first = b.call(r#"{"op":"metrics"}"#);
    let a_second = a.call(r#"{"op":"metrics"}"#);

    // B has never called `metrics`: its window is all-time, even though A
    // called `metrics` just before.
    let b_counters = counters(&b_first);
    assert!(!b_counters.is_empty());
    for (name, total, delta) in &b_counters {
        assert_eq!(delta, total, "{name}: B's first window must be all-time");
    }
    // A's window runs from A's own first call: it holds that call and B's
    // call in between (both counted after their snapshots were taken).
    assert_eq!(delta_of(&a_second, "serve.metrics"), 2.0, "{a_second:?}");
    assert_eq!(delta_of(&a_second, "serve.stats"), 0.0, "{a_second:?}");

    a.call(r#"{"op":"shutdown"}"#);
    let summary = server.join().unwrap();
    assert_eq!(summary.sessions, 2);
    assert!(summary.shut_down);
}
