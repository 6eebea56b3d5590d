//! End-to-end observability smoke test: drives `rr fault` and
//! `rr harden` with `--trace-out` / `--metrics` / `--quiet` through the
//! in-process CLI entry point and validates every emitted artifact —
//! each JSONL trace line and the metrics JSON document — for schema
//! version, field presence, and field types, plus the accounting
//! identity that the campaign span durations sum to ≈ the wall time on
//! a single-threaded run.

use std::collections::BTreeMap;
use std::fs;

// ---------------------------------------------------------------------
// A minimal JSON parser — the validators below must not trust the
// producer's own serialization helpers, so the test parses from scratch.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escaped =
                        *self.bytes.get(self.at).ok_or_else(|| "unterminated escape".to_owned())?;
                    self.at += 1;
                    match escaped {
                        b'"' | b'\\' | b'/' => out.push(escaped as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_owned())?;
                            self.at += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(&b) => {
                    self.at += 1;
                    out.push(b as char);
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.at)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Schema validators
// ---------------------------------------------------------------------

const SPAN_KINDS: [&str; 6] =
    ["record", "snapshot", "restore", "inject", "classify", "bucket_sweep"];
const COUNTERS: [&str; 24] = [
    "plans_executed",
    "cache_hits",
    "cache_misses",
    "invalidated_fingerprint",
    "invalidated_budget",
    "invalidated_layout",
    "invalidated_dirty",
    "checkpoint_restores",
    "cow_clones",
    "bucket_sweeps",
    "bucket_plans",
    "blocks_decoded",
    "block_steps",
    "interp_steps",
    "block_invalidations",
    "blocks_compiled",
    "uop_steps",
    "flag_materializations",
    "blocks_redecoded",
    "blocks_optimized",
    "plans_pruned_static",
    "audit_failures",
    "plans_converged",
    "steps_converged",
];
const GAUGES: [&str; 3] = ["plans_total", "retained_snapshot_bytes", "checkpoints"];

fn obj<'j>(value: &'j Json, what: &str) -> &'j BTreeMap<String, Json> {
    match value {
        Json::Obj(map) => map,
        other => panic!("{what} must be an object, got {other:?}"),
    }
}

fn num(map: &BTreeMap<String, Json>, key: &str) -> f64 {
    match map.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("field `{key}` must be a number, got {other:?}"),
    }
}

fn text<'j>(map: &'j BTreeMap<String, Json>, key: &str) -> &'j str {
    match map.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("field `{key}` must be a string, got {other:?}"),
    }
}

/// Validates every line of a `--trace-out` stream and returns the event
/// count per span kind.
fn validate_trace(path: &str) -> BTreeMap<String, u64> {
    let body = fs::read_to_string(path).expect("trace file exists");
    assert!(!body.is_empty(), "trace stream must not be empty");
    let mut per_kind = BTreeMap::new();
    for (index, line) in body.lines().enumerate() {
        let event = Parser::parse(line).unwrap_or_else(|e| panic!("line {index}: {e}: {line}"));
        let event = obj(&event, "trace event");
        assert_eq!(text(event, "schema"), "rr-trace-v1", "line {index}");
        assert_eq!(text(event, "event"), "span", "line {index}");
        assert_eq!(num(event, "seq") as u64, index as u64, "seq must be dense");
        let span = text(event, "span");
        assert!(SPAN_KINDS.contains(&span), "line {index}: unknown span `{span}`");
        assert!(num(event, "t_ns") >= 0.0, "line {index}");
        assert!(num(event, "dur_ns") >= 0.0, "line {index}");
        *per_kind.entry(span.to_owned()).or_insert(0) += 1;
    }
    per_kind
}

/// Validates a `--metrics` document (field presence and types) and
/// returns the parsed top-level object.
fn validate_metrics(path: &str) -> BTreeMap<String, Json> {
    let body = fs::read_to_string(path).expect("metrics file exists");
    let root = Parser::parse(&body).unwrap_or_else(|e| panic!("metrics: {e}: {body}"));
    let root = obj(&root, "metrics document");
    assert_eq!(text(root, "schema"), "rr-metrics-v1");
    assert!(num(root, "wall_ns") > 0.0, "wall clock must have advanced");
    let _ = num(root, "plans_per_sec");
    let _ = num(root, "reuse_percent");
    for counter in COUNTERS {
        assert!(num(root, counter) >= 0.0, "counter `{counter}`");
    }
    for gauge in GAUGES {
        assert!(num(root, gauge) >= 0.0, "gauge `{gauge}`");
    }
    match root.get("successes_by_order") {
        Some(Json::Arr(orders)) => {
            assert_eq!(orders.len(), 8, "one slot per tracked order");
            assert!(orders.iter().all(|v| matches!(v, Json::Num(n) if *n >= 0.0)));
        }
        other => panic!("successes_by_order must be an array, got {other:?}"),
    }
    let spans = obj(root.get("spans").expect("spans object"), "spans");
    assert_eq!(spans.len(), SPAN_KINDS.len(), "exactly the known span kinds");
    for kind in SPAN_KINDS {
        let stats = obj(spans.get(kind).unwrap_or_else(|| panic!("span `{kind}`")), kind);
        assert!(num(stats, "count") >= 0.0, "span `{kind}`");
        assert!(num(stats, "total_ns") >= 0.0, "span `{kind}`");
    }
    root.clone()
}

fn span_stat(root: &BTreeMap<String, Json>, kind: &str, field: &str) -> f64 {
    let spans = obj(root.get("spans").expect("spans object"), "spans");
    num(obj(spans.get(kind).expect("span kind"), kind), field)
}

// ---------------------------------------------------------------------
// The smoke tests
// ---------------------------------------------------------------------

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("rr-telemetry-smoke");
    let _ = fs::create_dir_all(&dir);
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn fault_trace_and_metrics_are_schema_valid() {
    let exe = tmp("pincheck.rfx");
    rr_cli::dispatch(&sv(&["workload", "pincheck", "-o", &exe])).expect("workload builds");

    let trace = tmp("fault.jsonl");
    let metrics = tmp("fault-metrics.json");
    // Single-threaded so the span-sum identity below is exact: with one
    // worker, record/restore/inject/classify partition the campaign work
    // and their durations sum to ≈ the whole run's wall time.
    let out = rr_cli::dispatch(&sv(&[
        "fault",
        &exe,
        "--good",
        "7391",
        "--bad",
        "7291",
        "--threads",
        "1",
        "--trace-out",
        &trace,
        "--metrics",
        &metrics,
        "--quiet",
    ]))
    .expect("fault campaign runs");
    assert!(out.is_empty(), "--quiet must suppress the report body, got: {out}");

    let per_kind = validate_trace(&trace);
    let root = validate_metrics(&metrics);

    // The trace stream and the metrics snapshot come from the same
    // telemetry handle: per-kind event counts must agree exactly.
    for kind in SPAN_KINDS {
        let streamed = per_kind.get(kind).copied().unwrap_or(0);
        assert_eq!(
            span_stat(&root, kind, "count") as u64,
            streamed,
            "span `{kind}` count diverged between trace and metrics"
        );
    }

    assert!(num(&root, "plans_executed") > 0.0, "campaign must evaluate plans");
    assert!(num(&root, "plans_per_sec") > 0.0);
    assert!(num(&root, "checkpoints") > 0.0, "checkpointed engine retains checkpoints");
    assert!(num(&root, "retained_snapshot_bytes") > 0.0);

    // The default exec tier is the uop tier: the campaign must have
    // decoded the text into blocks and run steps through their micro-op
    // bodies, and lazy flags must have materialized at observable points.
    assert!(num(&root, "blocks_decoded") > 0.0, "uop tier must decode the text into blocks");
    assert!(num(&root, "uop_steps") > 0.0, "micro-op bodies must execute");
    assert!(num(&root, "flag_materializations") > 0.0, "exits materialize pending flags");

    // These stay in the schema only because the end-to-end benchmark
    // reads them; nothing increments them.
    for stale in ["block_steps", "blocks_compiled", "blocks_optimized"] {
        assert_eq!(num(&root, stale), 0.0, "{stale} always reads 0");
    }

    // Span-sum identity: the non-overlapping campaign spans cover most
    // of the wall time and never exceed it.
    let wall = num(&root, "wall_ns");
    let covered: f64 = ["record", "restore", "inject", "classify"]
        .iter()
        .map(|k| span_stat(&root, k, "total_ns"))
        .sum();
    assert!(
        covered >= 0.3 * wall && covered <= 1.05 * wall,
        "span durations must sum to ≈ wall time, got {covered} of {wall} ns"
    );
}

#[test]
fn harden_telemetry_reports_per_iteration_and_quiet_suppresses() {
    let exe = tmp("harden-pincheck.rfx");
    rr_cli::dispatch(&sv(&["workload", "pincheck", "-o", &exe])).expect("workload builds");

    let trace = tmp("harden.jsonl");
    let metrics = tmp("harden-metrics.json");
    let hardened = tmp("pincheck.hardened.rfx");
    let out = rr_cli::dispatch(&sv(&[
        "harden",
        &exe,
        "--good",
        "7391",
        "--bad",
        "7291",
        "--threads",
        "1",
        "-o",
        &hardened,
        "--trace-out",
        &trace,
        "--metrics",
        &metrics,
    ]))
    .expect("hardening runs");
    assert!(out.contains("telemetry 0: "), "per-iteration telemetry line expected: {out}");
    assert!(out.contains("plans/s"), "{out}");
    assert!(out.contains("fixed point: "), "{out}");

    validate_trace(&trace);
    let root = validate_metrics(&metrics);
    assert!(num(&root, "plans_executed") > 0.0);
    // The loop's campaigns all run inside the campaign spans; their sum
    // never exceeds wall (patching/reassembly time sits outside them).
    let wall = num(&root, "wall_ns");
    let covered: f64 = ["record", "restore", "inject", "classify"]
        .iter()
        .map(|k| span_stat(&root, k, "total_ns"))
        .sum();
    assert!(covered > 0.0 && covered <= 1.05 * wall, "got {covered} of {wall} ns");

    // The same invocation with --quiet keeps the artifacts but drops the
    // report body.
    let quiet = rr_cli::dispatch(&sv(&[
        "harden",
        &exe,
        "--good",
        "7391",
        "--bad",
        "7291",
        "--threads",
        "1",
        "-o",
        &hardened,
        "--trace-out",
        &trace,
        "--metrics",
        &metrics,
        "--quiet",
    ]))
    .expect("hardening runs");
    assert!(quiet.is_empty(), "--quiet must suppress the report body, got: {quiet}");
    validate_trace(&trace);
    validate_metrics(&metrics);
}

/// The bootloader workload's inputs are binary (not representable as
/// CLI arguments), so the acceptance scenario — hardening the
/// bootloader with a trace stream, progress reporter, and metrics
/// snapshot attached — runs through the library API instead: the same
/// telemetry handle the CLI wires up, validated with the same schema
/// checks.
#[test]
fn harden_bootloader_via_api_produces_schema_valid_telemetry() {
    use rr_telemetry::{JsonlRecorder, ProgressRecorder, Recorder, Telemetry};

    let workload = rr_workloads::bootloader();
    let exe = workload.build().expect("bootloader assembles");

    let trace = tmp("bootloader.jsonl");
    let metrics = tmp("bootloader-metrics.json");
    let sinks: Vec<std::sync::Arc<dyn Recorder>> = vec![
        std::sync::Arc::new(JsonlRecorder::create(&trace).expect("trace file opens")),
        std::sync::Arc::new(ProgressRecorder::stderr()),
    ];
    let telemetry = Telemetry::with_sinks(sinks);
    let config = rr_patch::HardenConfig {
        telemetry: telemetry.clone(),
        parallel: false,
        ..rr_patch::HardenConfig::default()
    };
    let driver = rr_patch::FaulterPatcher::new(config);
    let outcome = driver
        .harden(&exe, &workload.good_input, &workload.bad_input, &rr_fault::InstructionSkip)
        .expect("bootloader hardens");
    assert!(!outcome.iteration_metrics.is_empty(), "per-iteration metrics expected");
    telemetry.flush();
    let snapshot = driver.metrics().expect("telemetry is enabled");
    fs::write(&metrics, snapshot.to_json()).expect("metrics file writes");

    let per_kind = validate_trace(&trace);
    let root = validate_metrics(&metrics);
    for kind in SPAN_KINDS {
        let streamed = per_kind.get(kind).copied().unwrap_or(0);
        assert_eq!(span_stat(&root, kind, "count") as u64, streamed, "span `{kind}`");
    }
    assert!(num(&root, "plans_executed") > 0.0);
    let wall = num(&root, "wall_ns");
    let covered: f64 = ["record", "restore", "inject", "classify"]
        .iter()
        .map(|k| span_stat(&root, k, "total_ns"))
        .sum();
    assert!(covered > 0.0 && covered <= 1.05 * wall, "got {covered} of {wall} ns");
}
