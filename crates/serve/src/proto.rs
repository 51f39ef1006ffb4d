//! The serve wire protocol: line-delimited JSON requests and responses.
//!
//! One request per input line, one JSON object per output line. Responses
//! are rendered through [`crate::json::render`], so key order is sorted
//! and byte-stable; together with the session layer's barrier-drained
//! event stream this makes a transcript a pure function of the request
//! script (the `flh serve` CI gate byte-diffs transcripts across
//! `FLH_THREADS` widths).
//!
//! Requests (fields beyond `op` shown with their defaults):
//!
//! ```text
//! {"op":"submit","circuit":"s298",            // or "bench":"...","name":"x"
//!  "kind":"campaign",                         // or "eval"
//!  "styles":"all",                            // or ["arbitrary","broadside","skewed"]
//!  "pairs":256,"seed":7,"dft":null}           // campaign knobs
//! {"op":"submit","circuit":"s298","kind":"eval",
//!  "styles":"all",                            // or ["plain","enhanced","mux","flh"]
//!  "vectors":100}                             // power-vector count
//! {"op":"status"}
//! {"op":"cancel","job":"job-2"}
//! {"op":"stats"}                              // or {"op":"stats","full":true}
//! {"op":"wait"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses: `accepted`, `rejected` (queue back-pressure), `cancel`,
//! `status` (the full session ledger: submitted/completed/rejected/
//! cancelled/in_flight), the streamed job events (`started` — carrying
//! the compiled-circuit cache verdict — `batch`, `progress`, `done`,
//! `failed`, `cancelled`), `idle` (a `wait` barrier drained), `stats`,
//! `bye` (shutdown summary with cache totals), and `{"error":...}` for
//! malformed input — never a panic.
//!
//! The `progress` event streams campaign coverage after every batch:
//! `{"event":"progress","job":...,"done":d,"batches":b,"style":...,
//! "detected":...,"faults":...,"coverage_pct":...,"pairs_done":...,
//! "pairs_total":...}`, plus `pairs_per_s`/`eta_ms` only when the server
//! opted into wall-clock timings (`flh serve --timings`) — default
//! transcripts stay clock-free and byte-diffable.
//!
//! The `stats` reply carries the session ledger, cache totals and — when
//! the flh-obs recorder is installed — the full deterministic metrics
//! document (counters, histograms, gauges, time series) under
//! `"metrics"`; it is byte-identical at any `FLH_THREADS` width at the
//! same protocol step. `{"op":"stats","full":true}` additionally attaches
//! the **nondeterministic** section (span timings, worker stats,
//! scheduling counters, sampled queue depths) and the per-job wall/exec
//! latency ledger — never diffed, never deterministic.

use flh_core::{DftStyle, EvalConfig};

use crate::cache::CacheStats;
use crate::job::{
    parse_application_styles, parse_dft_style, BatchPayload, JobEvent, JobId, JobKind, JobSpec,
};
use crate::json::{parse_json, render, Json};
use crate::session::{JobLatency, SessionStats, SessionSummary};
use crate::source::CircuitSource;

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Enqueue a job.
    Submit(JobSpec),
    /// Report the session ledger.
    Status,
    /// Report live telemetry: the ledger, cache totals and the
    /// deterministic metrics document; `full` adds the nondeterministic
    /// section and the wall-clock latency ledger.
    Stats {
        /// Include the nondeterministic section.
        full: bool,
    },
    /// Mark a job for cancellation.
    Cancel(JobId),
    /// Barrier: run and stream everything accepted so far.
    Wait,
    /// Drain and end the session.
    Shutdown,
}

/// Most pattern pairs one campaign submission may ask for. Campaign
/// memory does not grow with `pairs` (the pair stream is simulated one
/// window at a time), but run time does: the bound keeps one request
/// from holding the session's executor indefinitely.
pub const MAX_PAIRS: usize = 1 << 20;

/// Most random vectors one `eval` submission may ask for, for the same
/// reason.
pub const MAX_EVAL_VECTORS: usize = 1 << 16;

const ALL_DFT_STYLES: [DftStyle; 4] = [
    DftStyle::PlainScan,
    DftStyle::EnhancedScan,
    DftStyle::MuxHold,
    DftStyle::Flh,
];

fn dft_wire_name(style: DftStyle) -> &'static str {
    match style {
        DftStyle::PlainScan => "plain",
        DftStyle::EnhancedScan => "enhanced",
        DftStyle::MuxHold => "mux",
        DftStyle::Flh => "flh",
    }
}

pub(crate) fn application_wire_name(style: flh_atpg::ApplicationStyle) -> &'static str {
    match style {
        flh_atpg::ApplicationStyle::ArbitraryTwoPattern => "arbitrary",
        flh_atpg::ApplicationStyle::Broadside => "broadside",
        flh_atpg::ApplicationStyle::SkewedLoad => "skewed",
    }
}

fn field_u64(
    map: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<Option<u64>, String> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.0e15 => {
            Ok(Some(*n as u64))
        }
        Some(other) => Err(format!(
            "{key} must be a non-negative integer, got {other:?}"
        )),
    }
}

/// A `u64` request field as a `usize`, rejected above `max`.
fn field_at_most(
    map: &std::collections::BTreeMap<String, Json>,
    key: &str,
    max: usize,
) -> Result<Option<usize>, String> {
    match field_u64(map, key)? {
        Some(v) if v > max as u64 => Err(format!("{key} must be at most {max}, got {v}")),
        v => Ok(v.map(|v| v as usize)),
    }
}

fn style_list(map: &std::collections::BTreeMap<String, Json>) -> Result<Option<String>, String> {
    match map.get("styles") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::String(s)) => Ok(Some(s.clone())),
        Some(Json::Array(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                names.push(
                    item.as_str()
                        .ok_or_else(|| format!("styles entries must be strings, got {item:?}"))?
                        .to_string(),
                );
            }
            Ok(Some(names.join(",")))
        }
        Some(other) => Err(format!("styles must be a string or array, got {other:?}")),
    }
}

fn parse_submit(map: &std::collections::BTreeMap<String, Json>) -> Result<Request, String> {
    let source = match (map.get("circuit"), map.get("bench")) {
        (Some(circuit), None) => {
            let spec = circuit
                .as_str()
                .ok_or_else(|| "circuit must be a string".to_string())?;
            CircuitSource::named(spec)?
        }
        (None, Some(bench)) => {
            let text = bench
                .as_str()
                .ok_or_else(|| "bench must be a string".to_string())?;
            let name = match map.get("name") {
                None => "design",
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| "name must be a string".to_string())?,
            };
            CircuitSource::bench_text(name, text)
        }
        (Some(_), Some(_)) => return Err("submit takes circuit or bench, not both".into()),
        (None, None) => return Err("submit needs a circuit name or bench text".into()),
    };

    let kind = match map.get("kind") {
        None => "campaign",
        Some(v) => v
            .as_str()
            .ok_or_else(|| "kind must be a string".to_string())?,
    };
    let styles = style_list(map)?;
    match kind {
        "campaign" => {
            let mut spec = JobSpec::campaign(source);
            if let Some(list) = styles {
                spec = spec.with_styles(parse_application_styles(&list)?);
            }
            if let Some(pairs) = field_at_most(map, "pairs", MAX_PAIRS)? {
                spec = spec.with_pairs(pairs);
            }
            if let Some(seed) = field_u64(map, "seed")? {
                spec = spec.with_seed(seed);
            }
            match map.get("dft") {
                None | Some(Json::Null) => {}
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| "dft must be a string".to_string())?;
                    let style = parse_dft_style(name)
                        .ok_or_else(|| format!("unknown DFT style {name:?}"))?;
                    spec = spec.with_dft(Some(style));
                }
            }
            Ok(Request::Submit(spec))
        }
        "eval" => {
            let styles = match styles {
                None => ALL_DFT_STYLES.to_vec(),
                Some(list) if list == "all" => ALL_DFT_STYLES.to_vec(),
                Some(list) => {
                    let mut parsed = Vec::new();
                    for name in list.split(',') {
                        let style = parse_dft_style(name.trim())
                            .ok_or_else(|| format!("unknown DFT style {name:?}"))?;
                        if parsed.contains(&style) {
                            return Err(format!("DFT style {} given twice", style.label()));
                        }
                        parsed.push(style);
                    }
                    if parsed.is_empty() {
                        return Err("empty style list".into());
                    }
                    parsed
                }
            };
            let mut config = EvalConfig::paper_default();
            if let Some(vectors) = field_at_most(map, "vectors", MAX_EVAL_VECTORS)? {
                config.vectors = vectors;
            }
            Ok(Request::Submit(JobSpec::evaluate(source, styles, config)))
        }
        other => Err(format!("unknown kind {other:?} (campaign or eval)")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable reason; the server replies `{"error":...}` with it.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = parse_json(line)?;
    let map = value
        .as_object()
        .ok_or_else(|| "request must be a JSON object".to_string())?;
    let op = map
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"op\" field".to_string())?;
    match op {
        "submit" => parse_submit(map),
        "status" => Ok(Request::Status),
        "stats" => {
            let full = match map.get("full") {
                None | Some(Json::Null) => false,
                Some(Json::Bool(b)) => *b,
                Some(other) => return Err(format!("full must be a boolean, got {other:?}")),
            };
            Ok(Request::Stats { full })
        }
        "cancel" => {
            let text = map
                .get("job")
                .and_then(Json::as_str)
                .ok_or_else(|| "cancel needs a \"job\":\"job-N\" field".to_string())?;
            let job = JobId::parse(text).ok_or_else(|| format!("bad job id {text:?}"))?;
            Ok(Request::Cancel(job))
        }
        "wait" => Ok(Request::Wait),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders a request back to its canonical line (sorted keys, explicit
/// campaign knobs). `parse_request(render_request(r))` reproduces `r`, and
/// rendering is idempotent — the round-trip test's contract.
pub fn render_request(request: &Request) -> String {
    let value = match request {
        Request::Status => Json::object([("op", Json::String("status".into()))]),
        Request::Stats { full } => {
            let mut kv = vec![("op", Json::String("stats".into()))];
            if *full {
                kv.push(("full", Json::Bool(true)));
            }
            Json::object(kv)
        }
        Request::Wait => Json::object([("op", Json::String("wait".into()))]),
        Request::Shutdown => Json::object([("op", Json::String("shutdown".into()))]),
        Request::Cancel(job) => Json::object([
            ("job", Json::String(job.to_string())),
            ("op", Json::String("cancel".into())),
        ]),
        Request::Submit(spec) => {
            let mut pairs_kv: Vec<(&'static str, Json)> = Vec::new();
            match &spec.source {
                CircuitSource::Profile(p) => {
                    pairs_kv.push(("circuit", Json::String(p.name.to_string())));
                }
                CircuitSource::BenchText { name, text } => {
                    pairs_kv.push(("bench", Json::String(text.clone())));
                    pairs_kv.push(("name", Json::String(name.clone())));
                }
            }
            pairs_kv.push(("op", Json::String("submit".into())));
            match &spec.kind {
                JobKind::Campaign {
                    styles,
                    pairs,
                    seed,
                } => {
                    pairs_kv.push(("kind", Json::String("campaign".into())));
                    pairs_kv.push((
                        "styles",
                        Json::Array(
                            styles
                                .iter()
                                .map(|&s| Json::String(application_wire_name(s).into()))
                                .collect(),
                        ),
                    ));
                    pairs_kv.push(("pairs", Json::Number(*pairs as f64)));
                    pairs_kv.push(("seed", Json::Number(*seed as f64)));
                    if let Some(dft) = spec.dft {
                        pairs_kv.push(("dft", Json::String(dft_wire_name(dft).into())));
                    }
                }
                JobKind::Evaluate { styles, config } => {
                    pairs_kv.push(("kind", Json::String("eval".into())));
                    pairs_kv.push((
                        "styles",
                        Json::Array(
                            styles
                                .iter()
                                .map(|&s| Json::String(dft_wire_name(s).into()))
                                .collect(),
                        ),
                    ));
                    pairs_kv.push(("vectors", Json::Number(config.vectors as f64)));
                }
            }
            Json::object(pairs_kv)
        }
    };
    render(&value)
}

fn round4(x: f64) -> f64 {
    (x * 1.0e4).round() / 1.0e4
}

fn job_kv(job: JobId) -> (&'static str, Json) {
    ("job", Json::String(job.to_string()))
}

/// Renders one streamed job event as a response line.
pub fn render_event(event: &JobEvent) -> String {
    let value = match event {
        JobEvent::Started {
            job,
            circuit,
            cache,
        } => Json::object([
            (
                "cache",
                Json::String(if cache.hit { "hit" } else { "miss" }.into()),
            ),
            ("circuit", Json::String(circuit.clone())),
            ("event", Json::String("started".into())),
            job_kv(*job),
            ("parse_skipped", Json::Bool(cache.parse_skipped)),
        ]),
        JobEvent::Batch {
            job,
            index,
            payload,
        } => {
            let mut kv: Vec<(&'static str, Json)> = vec![
                ("event", Json::String("batch".into())),
                ("index", Json::Number(*index as f64)),
                job_kv(*job),
            ];
            match payload {
                BatchPayload::Campaign(r) => {
                    kv.push(("coverage_pct", Json::Number(round4(r.coverage_pct()))));
                    kv.push(("detected", Json::Number(r.detected as f64)));
                    kv.push(("faults", Json::Number(r.total_faults as f64)));
                    kv.push(("pairs", Json::Number(r.pairs as f64)));
                    kv.push(("style", Json::String(r.style.to_string())));
                }
                BatchPayload::Evaluation(e) => {
                    kv.push(("area_pct", Json::Number(round4(e.area_increase_pct()))));
                    kv.push(("area_um2", Json::Number(round4(e.area_um2))));
                    kv.push(("delay_pct", Json::Number(round4(e.delay_increase_pct()))));
                    kv.push(("delay_ps", Json::Number(round4(e.delay_ps))));
                    kv.push(("power_pct", Json::Number(round4(e.power_increase_pct()))));
                    kv.push(("power_uw", Json::Number(round4(e.power_uw))));
                    kv.push(("style", Json::String(e.style.label().into())));
                }
            }
            Json::object(kv)
        }
        JobEvent::Progress {
            job,
            done,
            batches,
            style,
            detected,
            faults,
            coverage_pct,
            pairs_done,
            pairs_total,
            timing,
        } => {
            let mut kv: Vec<(&'static str, Json)> = vec![
                ("batches", Json::Number(*batches as f64)),
                ("coverage_pct", Json::Number(round4(*coverage_pct))),
                ("detected", Json::Number(*detected as f64)),
                ("done", Json::Number(*done as f64)),
                ("event", Json::String("progress".into())),
                ("faults", Json::Number(*faults as f64)),
                job_kv(*job),
                ("pairs_done", Json::Number(*pairs_done as f64)),
                ("pairs_total", Json::Number(*pairs_total as f64)),
                ("style", Json::String(style.clone())),
            ];
            if let Some(t) = timing {
                kv.push(("eta_ms", Json::Number(t.eta_ms as f64)));
                kv.push(("pairs_per_s", Json::Number(round4(t.pairs_per_s))));
            }
            Json::object(kv)
        }
        JobEvent::Done {
            job,
            batches,
            metrics,
        } => {
            let mut kv: Vec<(&'static str, Json)> = vec![
                ("batches", Json::Number(*batches as f64)),
                ("event", Json::String("done".into())),
                job_kv(*job),
            ];
            if let Some(doc) = metrics {
                // The det-delta document is this workspace's own JSON; on
                // the off chance it ever fails to reparse, ship it as a
                // string rather than dropping it.
                kv.push((
                    "metrics",
                    parse_json(doc.trim()).unwrap_or_else(|_| Json::String(doc.clone())),
                ));
            }
            Json::object(kv)
        }
        JobEvent::Failed { job, reason } => Json::object([
            ("event", Json::String("failed".into())),
            job_kv(*job),
            ("reason", Json::String(reason.clone())),
        ]),
        JobEvent::Cancelled { job } => {
            Json::object([("event", Json::String("cancelled".into())), job_kv(*job)])
        }
    };
    render(&value)
}

/// `accepted` ack for a submission.
pub fn render_accepted(job: JobId) -> String {
    render(&Json::object([
        ("event", Json::String("accepted".into())),
        job_kv(job),
    ]))
}

/// `rejected` reply (queue back-pressure or closed session).
pub fn render_rejected(reason: &str) -> String {
    render(&Json::object([
        ("event", Json::String("rejected".into())),
        ("reason", Json::String(reason.into())),
    ]))
}

/// `{"error":...}` reply for malformed input.
pub fn render_error(reason: &str) -> String {
    render(&Json::object([("error", Json::String(reason.into()))]))
}

/// `cancel` ack; `known` is whether the id names an accepted job.
pub fn render_cancel_ack(job: JobId, known: bool) -> String {
    render(&Json::object([
        ("event", Json::String("cancel".into())),
        job_kv(job),
        ("known", Json::Bool(known)),
    ]))
}

/// `status` reply: the deterministic session ledger.
pub fn render_status(stats: &SessionStats) -> String {
    render(&Json::object([
        ("cancelled", Json::Number(stats.cancelled as f64)),
        ("completed", Json::Number(stats.completed as f64)),
        ("event", Json::String("status".into())),
        ("in_flight", Json::Number(stats.in_flight as f64)),
        ("rejected", Json::Number(stats.rejected as f64)),
        ("submitted", Json::Number(stats.submitted as f64)),
    ]))
}

/// The nondeterministic payload attached to a `stats --full` reply.
pub struct StatsFull<'a> {
    /// The flh-obs nondeterministic section
    /// (`flh_obs::nondeterministic_json`).
    pub nondet: &'a str,
    /// The session's per-job wall/exec latency ledger.
    pub latency: &'a [JobLatency],
}

/// `stats` reply: the session ledger, cache totals and the deterministic
/// metrics document (`None` → `"metrics":null` when no recorder is
/// installed). With `full`, also the nondeterministic section and the
/// wall-clock latency ledger.
pub fn render_stats(
    stats: &SessionStats,
    cache: CacheStats,
    metrics: Option<&str>,
    full: Option<StatsFull<'_>>,
) -> String {
    let mut kv: Vec<(&'static str, Json)> = vec![
        ("cache", cache_json(cache)),
        ("cancelled", Json::Number(stats.cancelled as f64)),
        ("completed", Json::Number(stats.completed as f64)),
        ("event", Json::String("stats".into())),
        ("in_flight", Json::Number(stats.in_flight as f64)),
        (
            "metrics",
            match metrics {
                // The det document is this workspace's own JSON; ship it
                // as a string rather than dropping it if it ever fails to
                // reparse (same policy as the done event).
                Some(doc) => parse_json(doc.trim()).unwrap_or_else(|_| Json::String(doc.into())),
                None => Json::Null,
            },
        ),
        ("rejected", Json::Number(stats.rejected as f64)),
        ("submitted", Json::Number(stats.submitted as f64)),
    ];
    if let Some(full) = full {
        let latency: Vec<Json> = full
            .latency
            .iter()
            .map(|l| {
                Json::object([
                    ("exec_ms", Json::Number(round4(l.exec_ms))),
                    ("job", Json::String(format!("job-{}", l.job))),
                    ("wall_ms", Json::Number(round4(l.wall_ms))),
                ])
            })
            .collect();
        kv.push(("latency", Json::Array(latency)));
        kv.push((
            "nondeterministic",
            parse_json(full.nondet).unwrap_or_else(|_| Json::String(full.nondet.into())),
        ));
    }
    render(&Json::object(kv))
}

/// `idle` reply ending a `wait` barrier.
pub fn render_idle(retired: u64) -> String {
    render(&Json::object([
        ("event", Json::String("idle".into())),
        ("retired", Json::Number(retired as f64)),
    ]))
}

fn cache_json(stats: CacheStats) -> Json {
    Json::object([
        ("evictions", Json::Number(stats.evictions as f64)),
        ("hits", Json::Number(stats.hits as f64)),
        ("misses", Json::Number(stats.misses as f64)),
        ("parse_skips", Json::Number(stats.parse_skips as f64)),
    ])
}

/// `bye` reply ending the session, with cache totals.
pub fn render_bye(summary: &SessionSummary) -> String {
    render(&Json::object([
        ("cache", cache_json(summary.cache)),
        ("completed", Json::Number(summary.completed as f64)),
        ("event", Json::String("bye".into())),
        ("submitted", Json::Number(summary.submitted as f64)),
    ]))
}
