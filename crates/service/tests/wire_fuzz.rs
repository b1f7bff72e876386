//! Deterministic wire fuzzer for the JSONL protocol.
//!
//! Seeded `rlb_util::rng` mutations of valid requests — truncation, deep
//! nesting, huge and non-finite numbers, invalid UTF-8, wrong arities,
//! duplicate and out-of-range pair ids — are fed through the request loop
//! (`Session::serve`) one line at a time, each followed by a `stats` and an
//! `assess` probe. Every input line must get exactly one structured
//! `{"ok":…}` line back, and every rejected request must leave the engine
//! state that `stats` and `assess` report byte-identical. The iteration
//! count is fixed, so a run is reproducible and fast.

use rlb_serve::{Engine, Session};
use rlb_util::json::{Value, MAX_DEPTH};
use rlb_util::{FxHashSet, Prng};
use std::sync::atomic::AtomicBool;
use std::sync::RwLock;

const ITERATIONS: usize = 400;
const SEED: u64 = 0xF022_11E5;
const MAX_LINE: usize = 1 << 16;

const WORDS: [&str; 12] = [
    "acme", "widget", "pro", "zen", "speaker", "ultra", "kordia", "laptop", "", "x-9", "ünï", "42",
];

/// Numbers that stress the numeric fields: out of every integer range,
/// non-finite after parsing, fractional, negative, or not JSON at all.
const HOSTILE_NUMBERS: [&str; 12] = [
    "1e999",
    "-1e999",
    "1e308",
    "18446744073709551616",
    "4294967296",
    "1e-400",
    "-0",
    "-1",
    "0.5",
    "NaN",
    "Infinity",
    "00",
];

/// Fixed hostile lines run before the random ones: numbers past every
/// integer range in each numeric field, nesting either side of the depth
/// limit, and well-formed JSON that is not a request object.
fn edge_lines() -> Vec<String> {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let mut lines: Vec<String> = [
        r#"{"op":"link","k":1e308}"#,
        r#"{"op":"link","k":18446744073709551616,"nprobe":1e308}"#,
        r#"{"op":"link","k":4294967296,"limit":1e308}"#,
        r#"{"op":"link","k":1e999}"#,
        r#"{"op":"ingest","pairs":[{"left":1e308,"right":0,"match":true}]}"#,
        r#"{"op":"ingest","pairs":[{"left":0,"right":4294967295,"match":true}]}"#,
        r#"{"op":"ingest","left":"acme"}"#,
        r#"{"op":"ingest","attributes":["a","b"]}"#,
        r#"{"op":null}"#,
        "{}",
        "[]",
        "null",
        r#""assess""#,
    ]
    .map(str::to_owned)
    .to_vec();
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 10_000] {
        lines.push(nest(depth));
        lines.push(format!(r#"{{"op":"ingest","left":{}}}"#, nest(depth)));
    }
    lines
}

/// Runs `input` through one request loop and returns the response lines.
fn run(engine: &RwLock<Engine>, session: &mut Session, input: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    session
        .serve(engine, input, &mut out, MAX_LINE, &AtomicBool::new(false))
        .expect("in-memory I/O cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

fn record(rng: &mut Prng) -> String {
    let words: Vec<&str> = (0..rng.range(1, 4)).map(|_| *rng.choose(&WORDS)).collect();
    format!("[{}]", Value::Str(words.join(" ")).to_json_string())
}

/// A valid-looking `ingest`: a few new records and pairs. Some pairs reuse
/// a stored pair, repeat one inside the batch, or point past the records.
fn ingest(rng: &mut Prng, engine: &Engine) -> String {
    let (left, right) = (engine.task().left.len(), engine.task().right.len());
    let new_left = rng.range(0, 3);
    let new_right = rng.range(0, 3);
    let stored: Vec<(u32, u32)> = engine
        .task()
        .all_pairs()
        .map(|lp| (lp.pair.left, lp.pair.right))
        .collect();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for _ in 0..rng.range(0, 4) {
        let (l, r) = (
            rng.index(left + new_left) as u32,
            rng.index(right + new_right) as u32,
        );
        match rng.index(10) {
            0 if !stored.is_empty() => pairs.push(*rng.choose(&stored)),
            1 if !pairs.is_empty() => pairs.push(pairs[0]),
            2 => pairs.push((l, (right + new_right + rng.range(0, 1000)) as u32)),
            _ => pairs.push((l, r)),
        }
    }
    let side = |rng: &mut Prng, n: usize| -> String {
        let recs: Vec<String> = (0..n).map(|_| record(rng)).collect();
        recs.join(",")
    };
    let pairs: Vec<String> = pairs
        .iter()
        .map(|(l, r)| {
            let split = *rng.choose(&["train", "val", "test"]);
            let is_match = rng.chance(0.4);
            format!(r#"{{"left":{l},"right":{r},"match":{is_match},"split":"{split}"}}"#)
        })
        .collect();
    format!(
        r#"{{"op":"ingest","left":[{}],"right":[{}],"pairs":[{}]}}"#,
        side(rng, new_left),
        side(rng, new_right),
        pairs.join(",")
    )
}

fn valid_request(rng: &mut Prng, engine: &Engine) -> String {
    match rng.index(6) {
        0 | 1 => ingest(rng, engine),
        2 => format!(
            r#"{{"op":"link","k":{},"limit":{}}}"#,
            rng.range(1, 6),
            rng.range(1, 20)
        ),
        3 => format!(
            r#"{{"op":"link","k":{},"nprobe":{}}}"#,
            rng.range(1, 6),
            rng.range(1, 9)
        ),
        4 => r#"{"op":"assess"}"#.to_string(),
        _ => rng
            .choose(&[r#"{"op":"stats"}"#, r#"{"op":"metrics"}"#])
            .to_string(),
    }
}

/// Byte ranges of the unsigned integer literals in `line`.
fn numbers(line: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < line.len() {
        if line[i].is_ascii_digit() && (i == 0 || !line[i - 1].is_ascii_alphanumeric()) {
            let start = i;
            while i < line.len() && line[i].is_ascii_digit() {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

fn replace_first(line: &mut Vec<u8>, from: &str, to: &str) -> bool {
    let text = String::from_utf8_lossy(line).into_owned();
    match text.find(from) {
        Some(at) if !text.contains('\u{FFFD}') => {
            line.splice(at..at + from.len(), to.bytes());
            true
        }
        _ => false,
    }
}

/// Applies one random mutation in place. Never inserts a newline, and the
/// line never becomes blank, so it stays exactly one request line.
fn mutate(rng: &mut Prng, line: &mut Vec<u8>) {
    match rng.index(7) {
        // Truncation.
        0 => line.truncate(rng.range(1, line.len().max(2))),
        // Deep nesting: array brackets around the whole request.
        1 => {
            let depth = rng.range(1, 200);
            let mut nested = vec![b'['; depth];
            nested.append(line);
            nested.resize(nested.len() + depth, b']');
            *line = nested;
        }
        // Huge, non-finite or otherwise hostile numbers.
        2 => {
            let spans = numbers(line);
            if !spans.is_empty() {
                let (start, end) = *rng.choose(&spans);
                line.splice(start..end, rng.choose(&HOSTILE_NUMBERS).bytes());
            }
        }
        // Invalid UTF-8.
        3 => {
            let at = rng.index(line.len() + 1);
            line.insert(at, 0x80 + rng.index(0x80) as u8);
        }
        // Wrong arities: a record value too many, a record that is not an
        // array, a pair without its label, an array where an object goes.
        4 => {
            let edits = [
                ("[[\"", "[[\"extra\",\""),
                ("[[\"", "[\""),
                (",\"match\":true", ""),
                (",\"match\":false", ""),
                ("{\"left\":", "[{\"left\":"),
                ("\"pairs\":[", "\"pairs\":[1,"),
                ("\"k\":", "\"k\":[1],\"x\":"),
            ];
            let (from, to) = *rng.choose(&edits);
            replace_first(line, from, to);
        }
        // A printable byte flipped into something else printable.
        5 => {
            let at = rng.index(line.len());
            line[at] = 0x21 + rng.index(0x5E) as u8;
        }
        // A duplicated field.
        _ => {
            replace_first(line, "{\"op\":", "{\"op\":\"stats\",\"op\":");
        }
    }
}

/// The engine state the wire reports: `stats` records and ANN blocks plus
/// the `assess` payload (or its error). Counters and histograms are left
/// out: they are process-wide and advance on every request.
fn state(stats: &Value, assess: &Value) -> String {
    let assessed = assess
        .get("assessment")
        .or_else(|| assess.get("error"))
        .expect("assess answers with a payload or an error");
    format!(
        "{}|{}|{}",
        stats
            .get("records")
            .expect("records block")
            .to_json_string(),
        stats.get("ann").expect("ann block").to_json_string(),
        assessed.to_json_string()
    )
}

#[test]
fn mutated_requests_get_one_structured_line_and_rejections_change_nothing() {
    let engine = RwLock::new(Engine::new("fuzz"));
    let mut session = Session::stdin();
    let mut rng = Prng::seed_from_u64(SEED);
    let base = concat!(
        r#"{"op":"ingest","attributes":["name"],"#,
        r#""left":[["acme widget pro"],["zen speaker ultra"],["kordia laptop"],["misc item"]],"#,
        r#""right":[["acme wdget pro"],["zen speakers"],["kordia laptops"],["unrelated junk"]],"#,
        r#""pairs":[{"left":0,"right":0,"match":true,"split":"train"},"#,
        r#"{"left":1,"right":1,"match":true,"split":"train"},"#,
        r#"{"left":2,"right":2,"match":true,"split":"val"},"#,
        r#"{"left":0,"right":3,"match":false,"split":"train"},"#,
        r#"{"left":3,"right":1,"match":false,"split":"test"},"#,
        r#"{"left":2,"right":3,"match":false,"split":"test"}]}"#,
        "\n",
        r#"{"op":"stats"}"#,
        "\n",
        r#"{"op":"assess"}"#,
        "\n",
    );
    let seeded = run(&engine, &mut session, base.as_bytes());
    assert!(
        seeded.iter().all(|l| l.starts_with(r#"{"ok":true"#)),
        "{seeded:?}"
    );
    let parse = |l: &String| Value::parse(l).expect("response parses");
    let mut before = state(&parse(&seeded[1]), &parse(&seeded[2]));

    let (mut accepted, mut rejected, mut seen) = (0usize, 0usize, FxHashSet::default());
    let edges = edge_lines();
    for i in 0..edges.len() + ITERATIONS {
        let line = match edges.get(i) {
            Some(edge) => edge.clone().into_bytes(),
            None => {
                let mut line = valid_request(&mut rng, &engine.read().unwrap()).into_bytes();
                for _ in 0..rng.range(0, 3) {
                    mutate(&mut rng, &mut line);
                }
                line
            }
        };
        let mut input = line.clone();
        input.extend_from_slice(b"\n{\"op\":\"stats\"}\n{\"op\":\"assess\"}\n");
        let replies = run(&engine, &mut session, &input);
        let shown = String::from_utf8_lossy(&line);
        assert_eq!(replies.len(), 3, "iteration {i}: {shown} -> {replies:?}");
        for reply in &replies {
            assert!(
                reply.starts_with(r#"{"ok":true"#) || reply.starts_with(r#"{"ok":false"#),
                "iteration {i}: unstructured reply {reply:?} to {shown}"
            );
        }
        let replies: Vec<Value> = replies.iter().map(parse).collect();
        assert_eq!(replies[1].get("ok"), Some(&Value::Bool(true)), "stats");
        let after = state(&replies[1], &replies[2]);
        if replies[0].get("ok") == Some(&Value::Bool(true)) {
            accepted += 1;
        } else {
            rejected += 1;
            assert_eq!(
                after, before,
                "iteration {i}: rejected {shown} changed state"
            );
        }
        seen.insert(after.clone());
        before = after;
    }
    // The mix is deterministic; these floors only guard against a generator
    // change that stops exercising one side.
    assert!(
        accepted >= 50 && rejected >= 100,
        "{accepted} ok, {rejected} rejected"
    );
    assert!(seen.len() >= 10, "valid ingests grew the store");

    // Whatever got through, the stored rows still match a rebuild.
    let engine = engine.into_inner().unwrap();
    assert_eq!(
        rlb_util::json::to_string(&engine.assess().unwrap()),
        rlb_util::json::to_string(&engine.assess_rebuilt().unwrap())
    );
}
