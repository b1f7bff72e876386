//! `serve-mixed`: the `rlb-serve` binary over loopback TCP, driven in a
//! closed loop by two sessions.
//!
//! The server first receives a base store (a generated Ds2-sized task:
//! 1,400 + 3,200 records and 4,200 labelled pairs; the right side is past
//! the IVF training threshold of 2,000 records, so ANN search is trained).
//! Then the two sessions run in rounds. In each round a writer session
//! appends one small ingest batch, followed by an `assess` and a few exact
//! `link`s, while a reader session sends exact `link`s, `link`s with
//! `nprobe` and one `assess`. Each session sends its next request only
//! after the previous reply, and the next round starts when both have
//! their last reply of this one.

use crate::outcome::{median, peak_rss_mb, percentile, Outcome};
use rlb_core::{LabeledPair, MatchingTask};
use rlb_data::PairRef;
use rlb_serve::{Engine, IngestBatch, IngestPair, Split};
use rlb_synth::{established_profiles, generate_task, BenchmarkProfile};
use rlb_util::json::Value;
use rlb_util::{FxHashMap, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The profile the base store and the ingest batches are generated from.
pub const BASE_PROFILE: &str = "Ds2";
/// XORed into the base seed to generate the task the writer's batches come
/// from, so they hold records the base store does not.
const BATCH_SALT: u64 = 0xBA7C_4ED5;
/// Neighbours per query of every `link`.
const K: usize = 5;
/// Lists probed by an ANN `link`: the index's default probe count.
const NPROBE: usize = 16;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Worker threads per request (`RLB_THREADS` of the server and of the
/// traced replay). The two sessions keep at most two requests in flight,
/// so the load stays at two busy threads.
pub const SERVER_THREADS: usize = 1;
/// A reply slower than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// What one round of the two sessions sends, and how many rounds a run
/// makes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rounds of a traced run.
    pub traced_rounds: usize,
    /// Most rounds of an untraced run, which otherwise runs for
    /// `--seconds`: one ingest batch is generated per round.
    pub max_rounds: usize,
    /// Labelled pairs per ingest batch (with the records they reference).
    pub pairs_per_batch: usize,
    /// Exact links of the writer per round, after its ingest and `assess`.
    pub writer_links: usize,
    /// Exact links of the reader per round, before its ANN links and its
    /// `assess`.
    pub reader_links: usize,
    /// ANN links of the reader per round.
    pub reader_ann: usize,
}

/// One round is 1 ingest, 2 assesses, 10 exact and 2 ANN links, about 3–4
/// s on the 2-core host. The traced run's 10 rounds give every percentile
/// it reports but the ingest median at least ten samples beyond it (assess
/// p50, link p90, ANN link p50). The links are split so that the two
/// sessions take about as long, and both cores stay busy until a round
/// ends.
pub const SHAPE: Shape = Shape {
    traced_rounds: 10,
    max_rounds: 40,
    pairs_per_batch: 20,
    writer_links: 5,
    reader_links: 5,
    reader_ann: 2,
};

/// The Ds2 profile with `seed` XORed into its generator seed.
pub fn base_profile(seed: u64) -> BenchmarkProfile {
    let mut p = established_profiles()
        .into_iter()
        .find(|p| p.id == BASE_PROFILE)
        .expect("Ds2 is an established profile");
    p.seed ^= seed;
    p
}

/// One request kind of the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The writer's `i`-th ingest batch.
    Ingest(usize),
    /// `assess`.
    Assess,
    /// Exact `link`.
    Link,
    /// `link` with `nprobe`.
    AnnLink,
}

/// The generated inputs and the two sessions' requests.
pub struct Script {
    /// The base store, ingested in one batch before timing.
    pub base: IngestBatch,
    /// The writer's batches, one per round.
    pub batches: Vec<IngestBatch>,
    /// The request counts.
    pub shape: Shape,
}

impl Script {
    /// Generates the base store from `profile` and the ingest batches from
    /// a second task of the same profile.
    pub fn new(profile: &BenchmarkProfile, shape: Shape) -> Script {
        let base_task = generate_task(profile);
        let mut extra_profile = profile.clone();
        extra_profile.seed ^= BATCH_SALT;
        let extra = generate_task(&extra_profile);
        let base = IngestBatch {
            attributes: Some(base_task.left.attributes.clone()),
            left: values(&base_task.left.records),
            right: values(&base_task.right.records),
            pairs: labelled(&base_task)
                .map(|(lp, split)| ingest_pair(lp, lp.pair, split))
                .collect(),
        };
        // Batch pairs keep their generated split; the records they
        // reference are appended on first use, after everything stored.
        let mut next = (base_task.left.len() as u32, base_task.right.len() as u32);
        let (mut left_ids, mut right_ids) = (FxHashMap::default(), FxHashMap::default());
        let mut extra_pairs = labelled(&extra);
        let rounds = shape.max_rounds.max(shape.traced_rounds);
        let mut batches = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut batch = IngestBatch::default();
            for (lp, split) in extra_pairs.by_ref().take(shape.pairs_per_batch) {
                let left = *left_ids.entry(lp.pair.left).or_insert_with(|| {
                    batch
                        .left
                        .push(extra.left.record(lp.pair.left).values.clone());
                    next.0 += 1;
                    next.0 - 1
                });
                let right = *right_ids.entry(lp.pair.right).or_insert_with(|| {
                    batch
                        .right
                        .push(extra.right.record(lp.pair.right).values.clone());
                    next.1 += 1;
                    next.1 - 1
                });
                batch
                    .pairs
                    .push(ingest_pair(lp, PairRef::new(left, right), split));
            }
            batches.push(batch);
        }
        Script {
            base,
            batches,
            shape,
        }
    }

    /// The writer's requests in round `round`.
    pub fn writer_round(&self, round: usize) -> Vec<Op> {
        [Op::Ingest(round), Op::Assess]
            .into_iter()
            .chain(std::iter::repeat_n(Op::Link, self.shape.writer_links))
            .collect()
    }

    /// The reader's requests in every round.
    pub fn reader_round(&self) -> Vec<Op> {
        std::iter::repeat_n(Op::Link, self.shape.reader_links)
            .chain(std::iter::repeat_n(Op::AnnLink, self.shape.reader_ann))
            .chain([Op::Assess])
            .collect()
    }

    /// The wire request for `op`.
    pub fn request(&self, op: Op) -> String {
        match op {
            Op::Ingest(i) => ingest_request(&self.batches[i]),
            Op::Assess => r#"{"op":"assess"}"#.to_string(),
            Op::Link => format!(r#"{{"op":"link","k":{K}}}"#),
            Op::AnnLink => format!(r#"{{"op":"link","k":{K},"nprobe":{NPROBE}}}"#),
        }
    }

    /// The first `rounds` rounds as one sequence, each the writer's
    /// requests then the reader's: the order the traced run replays on one
    /// thread.
    fn interleaved(&self, rounds: usize) -> Vec<Op> {
        (0..rounds)
            .flat_map(|round| {
                let mut ops = self.writer_round(round);
                ops.extend(self.reader_round());
                ops
            })
            .collect()
    }
}

fn values(records: &[rlb_data::Record]) -> Vec<Vec<String>> {
    records.iter().map(|r| r.values.clone()).collect()
}

fn labelled(task: &MatchingTask) -> impl Iterator<Item = (LabeledPair, Split)> + '_ {
    task.train
        .iter()
        .map(|lp| (*lp, Split::Train))
        .chain(task.val.iter().map(|lp| (*lp, Split::Val)))
        .chain(task.test.iter().map(|lp| (*lp, Split::Test)))
}

fn ingest_pair(lp: LabeledPair, pair: PairRef, split: Split) -> IngestPair {
    IngestPair {
        left: pair.left,
        right: pair.right,
        is_match: lp.is_match,
        split,
    }
}

fn ingest_request(batch: &IngestBatch) -> String {
    let records = |rows: &[Vec<String>]| {
        Value::Arr(
            rows.iter()
                .map(|r| Value::Arr(r.iter().map(|v| Value::Str(v.clone())).collect()))
                .collect(),
        )
    };
    let split = |s: Split| match s {
        Split::Train => "train",
        Split::Val => "val",
        Split::Test => "test",
    };
    let pairs = batch
        .pairs
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("left".into(), Value::Num(f64::from(p.left))),
                ("right".into(), Value::Num(f64::from(p.right))),
                ("match".into(), Value::Bool(p.is_match)),
                ("split".into(), Value::Str(split(p.split).into())),
            ])
        })
        .collect();
    let mut fields = vec![("op".into(), Value::Str("ingest".into()))];
    if let Some(attrs) = &batch.attributes {
        fields.push((
            "attributes".into(),
            Value::Arr(attrs.iter().map(|a| Value::Str(a.clone())).collect()),
        ));
    }
    fields.push(("left".into(), records(&batch.left)));
    fields.push(("right".into(), records(&batch.right)));
    fields.push(("pairs".into(), Value::Arr(pairs)));
    Value::Obj(fields).to_json_string()
}

/// Where the server runs.
#[derive(Debug, Clone, Copy)]
pub enum Launch<'a> {
    /// The `rlb-serve` binary, as a child process (the benchmark).
    Binary(&'a Path),
    /// `rlb_serve::serve_tcp` on a thread of this process (the self-tests,
    /// which have no binary to start).
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

/// A running server.
struct Server {
    addr: SocketAddr,
    child: Option<(Child, BufReader<ChildStdout>)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(launch: Launch) -> Result<Server, String> {
        match launch {
            Launch::Binary(bin) => {
                let mut child = Command::new(bin)
                    .env("RLB_SERVE_ADDR", "127.0.0.1:0")
                    .env("RLB_SERVE_METRICS", "")
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
                let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
                let mut line = String::new();
                let addr = stdout
                    .read_line(&mut line)
                    .ok()
                    .and_then(|_| Value::parse(line.trim()).ok())
                    .and_then(|v| v.get("listening")?.as_str()?.parse().ok());
                match addr {
                    Some(addr) => Ok(Server {
                        addr,
                        child: Some((child, stdout)),
                        thread: None,
                    }),
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(format!("rlb-serve announced no address: {line:?}"))
                    }
                }
            }
            Launch::InProcess => {
                let listener = std::net::TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| format!("cannot bind: {e}"))?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                let thread = std::thread::spawn(move || {
                    let engine = std::sync::RwLock::new(Engine::new("serve"));
                    let config = rlb_serve::TransportConfig::from_env();
                    if let Err(e) = rlb_serve::serve_tcp(&engine, listener, &config) {
                        eprintln!("in-process server failed: {e}");
                    }
                });
                Ok(Server {
                    addr,
                    child: None,
                    thread: Some(thread),
                })
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        let pid = self.child.as_ref().map(|(c, _)| c.id());
        peak_rss_mb(pid).unwrap_or(f64::NAN)
    }

    /// Sends `shutdown` and waits until the server has ended.
    fn stop(mut self) -> Result<(), String> {
        let sent = Session::connect(self.addr).and_then(|mut s| s.call(r#"{"op":"shutdown"}"#));
        if let Some((mut child, _)) = self.child.take() {
            if sent.is_err() {
                let _ = child.kill();
            }
            let status = child.wait().map_err(|e| e.to_string())?;
            if !status.success() && sent.is_ok() {
                return Err(format!("rlb-serve exited with {status}"));
            }
        }
        // Without a delivered shutdown the in-process server never returns;
        // its thread is left to end with the process.
        if let (Some(thread), Ok(_)) = (self.thread.take(), &sent) {
            thread
                .join()
                .map_err(|_| "server thread panicked".to_string())?;
        }
        sent.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking the JSONL protocol.
struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(addr: SocketAddr) -> Result<Session, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Session {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and returns its `ok:true` reply; an `ok:false`
    /// reply, a broken connection or a timeout is an `Err`.
    fn call(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Err("connection closed".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("reply: {e}")),
        }
        let reply = Value::parse(line.trim()).map_err(|e| format!("bad reply: {e}"))?;
        match reply.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(reply),
            _ => Err(format!("error reply: {}", line.trim())),
        }
    }
}

/// Client-observed latencies by request kind, in milliseconds.
#[derive(Debug, Default)]
struct Latencies {
    ingest: Vec<f64>,
    assess: Vec<f64>,
    link: Vec<f64>,
    ann_link: Vec<f64>,
}

impl Latencies {
    fn push(&mut self, op: Op, ms: f64) {
        match op {
            Op::Ingest(_) => self.ingest.push(ms),
            Op::Assess => self.assess.push(ms),
            Op::Link => self.link.push(ms),
            Op::AnnLink => self.ann_link.push(ms),
        }
    }

    fn merge(&mut self, other: Latencies) {
        self.ingest.extend(other.ingest);
        self.assess.extend(other.assess);
        self.link.extend(other.link);
        self.ann_link.extend(other.ann_link);
    }
}

/// How many rounds the closed loop makes.
#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    /// Exactly this many (at most the script's batches).
    Exactly(usize),
    /// Rounds until this many seconds have passed: at least one, at most
    /// the script's batches.
    For(f64),
}

/// What the closed loop measured.
struct Loop {
    /// Each round's time, from its start until both sessions had their
    /// last reply, in seconds.
    rounds: Vec<f64>,
    /// All rounds, first request to last reply, in seconds.
    total_s: f64,
    /// Latencies of the requests that succeeded.
    latencies: Latencies,
    /// One line per failed request.
    errors: Vec<String>,
}

/// Runs the writer and the reader session, each on its own connection and
/// thread, round by round. Within a round each session keeps one request in
/// flight; the next round starts when both have their last reply.
fn closed_loop(addr: SocketAddr, script: &Script, rounds: Rounds) -> Loop {
    let barrier = Barrier::new(2);
    let more = AtomicBool::new(true);
    // Start of the loop, start of the current round, the rounds' times.
    let clock = Mutex::new((Instant::now(), Instant::now(), Vec::new()));
    let session = |writer: bool| {
        let mut lat = Latencies::default();
        let mut errors = Vec::new();
        let mut session = Session::connect(addr);
        if barrier.wait().is_leader() {
            let now = Instant::now();
            *clock.lock().expect("round clock") = (now, now, Vec::new());
        }
        barrier.wait();
        let mut round = 0;
        while more.load(Ordering::SeqCst) {
            let ops = if writer {
                script.writer_round(round)
            } else {
                script.reader_round()
            };
            for op in ops {
                let request = script.request(op);
                let t = Instant::now();
                let reply = match &mut session {
                    Ok(session) => session.call(&request),
                    // Every request of a session that could not connect
                    // fails; the session still keeps to the rounds.
                    Err(e) => Err(e.clone()),
                };
                match reply {
                    Ok(_) => lat.push(op, t.elapsed().as_secs_f64() * 1e3),
                    Err(e) => errors.push(format!("{op:?}: {e}")),
                }
            }
            round += 1;
            if barrier.wait().is_leader() {
                let mut c = clock.lock().expect("round clock");
                let now = Instant::now();
                let secs = now.duration_since(c.1).as_secs_f64();
                c.2.push(secs);
                c.1 = now;
                let done = match rounds {
                    Rounds::Exactly(n) => round >= n,
                    Rounds::For(s) => now.duration_since(c.0).as_secs_f64() >= s,
                };
                more.store(!done && round < script.batches.len(), Ordering::SeqCst);
            }
            barrier.wait();
        }
        (lat, errors)
    };
    let (writer, reader) = std::thread::scope(|s| {
        let w = s.spawn(|| session(true));
        let r = s.spawn(|| session(false));
        (
            w.join().expect("writer session"),
            r.join().expect("reader session"),
        )
    });
    let (start, end, rounds) = clock.into_inner().expect("round clock");
    let mut out = Loop {
        rounds,
        total_s: end.duration_since(start).as_secs_f64(),
        latencies: Latencies::default(),
        errors: Vec::new(),
    };
    for (lat, errors) in [writer, reader] {
        out.latencies.merge(lat);
        out.errors.extend(errors);
    }
    out
}

/// Starts a server and loads the base store: ingest, then the first
/// `assess`, which scores every base pair.
fn start_loaded(launch: Launch, base_line: &str) -> Result<Server, String> {
    let server = Server::start(launch)?;
    let mut s = Session::connect(server.addr)?;
    s.call(base_line)?;
    s.call(r#"{"op":"assess"}"#)?;
    Ok(server)
}

/// `serve-mixed`. Untraced: set-up (server start + base ingest + first
/// assess) [`SETUP_REPS`] times, the two sessions' closed loop for
/// `seconds`, then the output checks; `wall_s` is the median round.
/// Traced: one set-up, [`Shape::traced_rounds`] rounds for the client-side
/// percentiles and waits, then the same rounds replayed through direct
/// [`Engine`] calls on one thread for the per-layer times.
pub fn serve_mixed(
    profile: &BenchmarkProfile,
    shape: Shape,
    launch: Launch,
    trace: bool,
    seconds: f64,
) -> Outcome {
    let mut o = Outcome::default();
    let script = Script::new(profile, shape);
    let base_line = ingest_request(&script.base);
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        if let Some(previous) = server.take() {
            if let Err(e) = Server::stop(previous) {
                o.problems.push(format!("stopping a set-up server: {e}"));
            }
        }
        let t = Instant::now();
        match start_loaded(launch, &base_line) {
            Ok(s) => server = Some(s),
            Err(e) => {
                o.problems.push(format!("set-up failed: {e}"));
                return o;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let metrics_before = trace.then(|| counters(server.addr));

    let rounds = if trace {
        Rounds::Exactly(shape.traced_rounds)
    } else {
        Rounds::For(seconds)
    };
    let run = closed_loop(server.addr, &script, rounds);
    eprintln!("{}", crate::pipeline::pass_times("rounds", &run.rounds));
    let client = &run.latencies;
    for e in &run.errors {
        o.attempt(false);
        o.problems.push(e.clone());
    }
    let succeeded =
        client.ingest.len() + client.assess.len() + client.link.len() + client.ann_link.len();
    for _ in 0..succeeded {
        o.attempt(true);
    }
    let peak_rss = server.peak_rss_mb();

    // Final state, read back for the checks.
    let finals = Session::connect(server.addr).and_then(|mut s| {
        let assess = s.call(r#"{"op":"assess"}"#)?;
        let link = s.call(&format!(r#"{{"op":"link","k":{K},"limit":1000000000}}"#))?;
        Ok((assess, link))
    });
    let metrics_after = trace.then(|| counters(server.addr));
    if let Err(e) = server.stop() {
        o.problems.push(format!("shutdown: {e}"));
    }

    // The same records, ingested into an engine here: the twin the final
    // replies are checked against, and (traced) the replayed engine.
    let mut engine = Engine::new("serve");
    if let Err(e) = engine.ingest(script.base.clone()) {
        o.problems.push(format!("local base ingest: {e}"));
        return o;
    }
    let rounds_run = run.rounds.len();
    if trace {
        let _ = engine.assess();
        replay(&mut o, &mut engine, &script, rounds_run);
    } else {
        for batch in &script.batches[..rounds_run] {
            if let Err(e) = engine.ingest(batch.clone()) {
                o.problems.push(format!("local ingest: {e}"));
            }
        }
    }
    match finals {
        Ok((assess, link)) => check_finals(&mut o, &engine, &assess, &link),
        Err(e) => o.problems.push(format!("reading the final state: {e}")),
    }

    if trace {
        let requests = script.interleaved(rounds_run).len() as f64;
        o.set("serve.requests_per_s", requests / run.total_s);
        o.set("serve.ingest_p50_ms", median(&client.ingest));
        o.set("serve.assess_p50_ms", median(&client.assess));
        o.set("serve.link_p50_ms", median(&client.link));
        o.set("serve.link_p90_ms", percentile(&client.link, 90.0));
        o.set("serve.ann_link_p50_ms", median(&client.ann_link));
        let direct_assess = o.get("engine.assess_ms").unwrap_or(0.0);
        let direct_link = o.get("engine.link_ms").unwrap_or(0.0);
        o.set(
            "serve.assess_wait_ms",
            median(&client.assess) - direct_assess,
        );
        o.set("serve.link_wait_ms", median(&client.link) - direct_link);
        if let (Some(Ok(before)), Some(Ok(after))) = (metrics_before, metrics_after) {
            let delta = |name: &str| {
                after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
            };
            let (cached, computed) = (delta("serve.assess_cached"), delta("serve.assess_computed"));
            o.set(
                "engine.assess_cached_share",
                cached / (cached + computed).max(1.0),
            );
        } else {
            o.problems.push("the metrics op failed".into());
        }
    } else {
        o.set("setup_s", median(&setup_s));
        o.set("wall_s", median(&run.rounds));
        o.set("peak_rss_mb", peak_rss);
    }
    o
}

/// Counter totals from the `metrics` op.
fn counters(addr: SocketAddr) -> Result<FxHashMap<String, f64>, String> {
    let reply = Session::connect(addr)?.call(r#"{"op":"metrics"}"#)?;
    let Some(Value::Obj(fields)) = reply.get("counters") else {
        return Err("metrics reply has no counters".into());
    };
    Ok(fields
        .iter()
        .filter_map(|(name, c)| Some((name.clone(), c.get("total")?.as_f64()?)))
        .collect())
}

/// Replays the first `rounds` rounds through direct [`Engine`] calls on one
/// thread, timing each. A reader `assess` is skipped: in this order it follows the
/// writer's `assess` with only links between, so it would repeat that call
/// on the same store for about two more seconds. Every writer `assess` is
/// split into its two layers, each
/// timed by its own call: `cs_js` over the pairs that assess re-scored
/// (the ones the similarity cache did not hold yet), and `compute_cs_js`
/// over the `[CS, JS]` rows of every pair. Ends with the ANN-vs-exact
/// top-10 overlap on the final store.
fn replay(o: &mut Outcome, engine: &mut Engine, script: &Script, rounds: usize) {
    let mut direct = Latencies::default();
    let (mut scoring, mut complexity) = (Vec::new(), Vec::new());
    // The rows the engine's similarity cache holds, mirrored here.
    let mut rows: FxHashMap<PairRef, [f64; 2]> = FxHashMap::default();
    score_missing(engine, &mut rows);
    let ops = script.interleaved(rounds);
    for (i, &op) in ops.iter().enumerate() {
        let writer_assess = op == Op::Assess && i > 0 && matches!(ops[i - 1], Op::Ingest(_));
        if op == Op::Assess && !writer_assess {
            continue;
        }
        let batch = match op {
            Op::Ingest(b) => Some(script.batches[b].clone()),
            _ => None,
        };
        let t = Instant::now();
        let ok = match (op, batch) {
            (_, Some(batch)) => engine.ingest(batch).is_ok(),
            (Op::Assess, _) => engine.assess().is_ok(),
            (Op::AnnLink, _) => !std::hint::black_box(engine.link_ann(K, Some(NPROBE)))
                .ranked
                .is_empty(),
            _ => !std::hint::black_box(engine.link(K)).ranked.is_empty(),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        o.check(ok, || format!("direct {op:?} failed"));
        direct.push(op, ms);
        if writer_assess {
            scoring.push(score_missing(engine, &mut rows));
            complexity.push(complexity_ms(engine, &rows));
        }
    }
    o.set("engine.ingest_ms", median(&direct.ingest));
    o.set("engine.assess_ms", median(&direct.assess));
    o.set("engine.assess_scoring_ms", median(&scoring));
    o.set("engine.assess_complexity_ms", median(&complexity));
    o.set("engine.link_ms", median(&direct.link));
    o.set("engine.ann_link_ms", median(&direct.ann_link));

    let exact = engine.link(10);
    let ann = engine.link_ann(10, Some(NPROBE));
    let (mut hits, mut total) = (0usize, 0usize);
    for (e, a) in exact.ranked.iter().zip(&ann.ranked) {
        let e: Vec<u32> = e.iter().take(10).copied().collect();
        hits += a.iter().take(10).filter(|id| e.contains(id)).count();
        total += e.len();
    }
    o.set("blocking.ann_recall10", hits as f64 / total.max(1) as f64);
}

/// `cs_js` over the engine's pairs that `rows` does not hold yet, as
/// `Engine::assess` scores them; adds the rows and returns the time in ms.
fn score_missing(engine: &Engine, rows: &mut FxHashMap<PairRef, [f64; 2]>) -> f64 {
    let Some(views) = engine.views() else {
        return 0.0;
    };
    let missing: Vec<LabeledPair> = engine
        .task()
        .all_pairs()
        .filter(|lp| !rows.contains_key(&lp.pair))
        .copied()
        .collect();
    let t = Instant::now();
    let scored = rlb_util::par::par_map(&missing, |lp| views.cs_js(lp.pair));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    rows.extend(missing.iter().map(|lp| lp.pair).zip(scored));
    ms
}

/// `compute_cs_js` over the `[CS, JS]` rows of the engine's pairs, timed
/// alone.
fn complexity_ms(engine: &Engine, rows: &FxHashMap<PairRef, [f64; 2]>) -> f64 {
    let pairs: Vec<LabeledPair> = engine.task().all_pairs().copied().collect();
    let scores: Vec<[f64; 2]> = pairs.iter().map(|lp| rows[&lp.pair]).collect();
    let labels: Vec<bool> = pairs.iter().map(|lp| lp.is_match).collect();
    let cfg = rlb_complexity::ComplexityConfig::from_env();
    let t = Instant::now();
    let report = rlb_complexity::compute_cs_js(&scores, &labels, &cfg);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(report.is_ok());
    ms
}

/// The server's final `assess` and full `link` must equal the batch
/// rebuilds over the same records, `assess_rebuilt` and `link_rebuilt`.
pub fn check_finals(o: &mut Outcome, engine: &Engine, assess: &Value, link: &Value) {
    match engine.assess_rebuilt() {
        Ok(rebuilt) => {
            let served = assess.get("assessment").map(Value::to_json_string);
            o.check(served == Some(rebuilt.to_json().to_json_string()), || {
                "final served assess differs from assess_rebuilt".into()
            });
        }
        Err(e) => o.problems.push(format!("assess_rebuilt failed: {e}")),
    }
    let rebuilt: Vec<Value> = engine
        .link_rebuilt(K)
        .candidates(K)
        .iter()
        .map(|p| {
            Value::Arr(vec![
                Value::Num(f64::from(p.left)),
                Value::Num(f64::from(p.right)),
            ])
        })
        .collect();
    o.check(
        link.get("pairs").and_then(Value::as_arr) == Some(rebuilt.as_slice()),
        || "final served link differs from link_rebuilt".into(),
    );
}
