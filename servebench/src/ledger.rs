//! The per-layer ledger: an in-process replay of a run's requests
//! through the same public functions the server calls, with spans
//! recorded here, around those calls.
//!
//! Passes, each on a fresh service configured like `xmem-cli listen`
//! (telemetry on, request log at `info`), replay the same requests in
//! the order the run sent them: a short pass that warms the process up,
//! an untraced pass `U`, and a traced pass `T`; the tracing overhead is
//! `T / U - 1`. `T` records spans around
//! `wire.parse` (`RequestParser::feed/poll`), `api.handle`
//! (`api::handle_*`), `telemetry.finish` (`Telemetry::begin_trace` and
//! `Telemetry::finish`, minus the same calls on a disabled sink) and
//! `wire.encode` (`Response::to_bytes`).
//!
//! The handler hands work to a pool thread the benchmark cannot wrap, so
//! the split inside `api.handle` reads the durations of the spans the
//! service itself records for the request (`pool.queue`,
//! `service.call`, `stage.profile`, `stage.analyze`, `sim.*`,
//! `sweep.param_fit`). `api.decode` and `api.render` time
//! `jobspec::job_from_value` and the `*_body` renderer called again on
//! the same input right after the request; the handler's own decode and
//! render are subtracted from its pre-submit and post-wait time.

use crate::gen::{Req, Route, DEFAULT_DEVICE};
use serde::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use xmem::server::api;
use xmem::server::{Request, RequestParser, Response, WireLimits};
use xmem::service::jobspec::{job_from_value, job_from_value_with_batch};
use xmem::service::{
    AsyncEstimationService, DeviceRegistry, EstimationService, LogLevel, ServiceConfig, SpanRecord,
    Telemetry, TelemetryConfig, TraceContext, TRACE_HEADER,
};

/// A fresh in-process service and telemetry sink, configured like
/// `xmem-cli listen` with its default flags.
fn fresh() -> (AsyncEstimationService, Telemetry) {
    let registry = DeviceRegistry::builtin();
    let device = registry.get(DEFAULT_DEVICE).expect("default device");
    let inner = Arc::new(EstimationService::new(
        ServiceConfig::for_device(device).with_registry(registry),
    ));
    let service = AsyncEstimationService::from_service(inner, 0, 1024);
    let telemetry = Telemetry::new(
        TelemetryConfig::default()
            .with_capacity(256)
            .with_log_level(LogLevel::Info)
            .with_slow_ms(0),
    );
    (service, telemetry)
}

/// The server's route table for the routes the workloads use.
fn respond(service: &AsyncEstimationService, request: &Request, ctx: &TraceContext) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => Response::json(
            200,
            "{\"status\":\"ok\",\"version\":\"0.1.0\",\"uptime_seconds\":0,\"cluster\":null}"
                .to_string(),
        ),
        ("POST", "/v1/estimate") => api::handle_estimate(service, request, ctx),
        ("POST", "/v1/matrix") => api::handle_matrix(service, request, ctx),
        ("POST", "/v1/sweep") => api::handle_sweep(service, request, ctx),
        ("POST", "/v1/plan") => api::handle_plan(service, request, ctx),
        ("POST", "/v1/best-device") => api::handle_best_device(service, request, ctx),
        (_, path) => panic!("generated request with unknown route {path}"),
    }
}

fn parse(parser: &mut RequestParser, bytes: &[u8]) -> Request {
    parser.feed(bytes);
    parser
        .poll()
        .expect("generated requests are well-formed")
        .expect("a whole request was fed")
}

/// The handler's decode step, called on its own: JSON body plus job
/// objects.
fn decode(req: &Request) {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return;
    };
    let Ok(body) = serde_json::from_str::<Value>(text) else {
        return;
    };
    let Some(entries) = body.as_object() else {
        return;
    };
    if let Some(jobs) = serde::obj_get(entries, "jobs").and_then(Value::as_array) {
        for job in jobs {
            black_box(job_from_value(job).ok());
        }
    } else {
        let job = serde::obj_get(entries, "job").unwrap_or(&body);
        black_box(job_from_value_with_batch(job, Some(1)).ok());
    }
}

/// The handler's render step, called on its own: the route's `*_body`
/// renderer applied to the value it produced.
fn render(route: Route, body: &[u8]) -> Option<f64> {
    let value: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let entries = value.as_object()?;
    let started;
    match route {
        Route::EstimateDefault | Route::EstimateNamed => {
            let estimate = api::estimate_from_value(serde::obj_get(entries, "estimate")?)?;
            started = Instant::now();
            black_box(api::estimate_body(&estimate));
        }
        Route::Healthz => return Some(0.0),
        _ => {
            // Matrix, sweep, plan and placement bodies are rendered from
            // their value tree; re-rendering that tree is the same work.
            started = Instant::now();
            black_box(serde_json::to_string(&value).ok());
        }
    }
    Some(started.elapsed().as_secs_f64() * 1e9)
}

/// Self time per layer, summed over a pass (ns), plus per-route service
/// time.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans that contributed to each layer.
    pub counts: BTreeMap<&'static str, u64>,
    pub service_by_route: BTreeMap<Route, (f64, usize)>,
    /// Requests replayed and the sum of their request spans (ns).
    pub requests: usize,
    pub request_ns: f64,
}

impl Ledger {
    fn add(&mut self, layer: &'static str, ns: f64) {
        *self.layers.entry(layer).or_insert(0.0) += ns;
        *self.counts.entry(layer).or_insert(0) += 1;
    }

    /// Adds `ns` to a layer whose `spans` were found in this request.
    fn add_spans(&mut self, layer: &'static str, ns: f64, spans: usize) {
        *self.layers.entry(layer).or_insert(0.0) += ns;
        *self.counts.entry(layer).or_insert(0) += spans as u64;
    }
}

/// Sum of the lengths of the union of `[start, end)` intervals.
fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::NEG_INFINITY);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Splits one traced request's handler time into layers from the spans
/// the service recorded (offsets are from the trace start, which the
/// replay opens right before calling the handler).
fn split_handler(
    ledger: &mut Ledger,
    route: Route,
    spans: &[SpanRecord],
    handle_ns: f64,
    decode_ns: f64,
    render_ns: f64,
) {
    let find = |name: &str| spans.iter().find(|s| s.name == name);
    let (Some(queue), Some(call)) = (find("pool.queue"), find("service.call")) else {
        ledger.add("api.handle", handle_ns);
        return;
    };
    let (q0, q1) = (
        queue.start_ns as f64,
        (queue.start_ns + queue.duration_ns) as f64,
    );
    let (c0, c1) = (
        call.start_ns as f64,
        (call.start_ns + call.duration_ns) as f64,
    );
    let pre = q0;
    let post = (handle_ns - c1).max(0.0);
    ledger.add("api.decode", decode_ns);
    ledger.add("api.render", render_ns);
    ledger.add("api.handle", pre - decode_ns);
    ledger.add(
        "executor.hop",
        (q1 - q0) + (c0 - q1).max(0.0) + post - render_ns,
    );
    let child = |names: &[&str]| -> Vec<(f64, f64)> {
        spans
            .iter()
            .filter(|s| names.contains(&s.name) && s.duration_ns > 0)
            .map(|s| {
                let start = (s.start_ns as f64).max(c0);
                (start, ((s.start_ns + s.duration_ns) as f64).min(c1))
            })
            .collect()
    };
    let profile = child(&["stage.profile"]);
    let analyze = child(&["stage.analyze"]);
    let simulate = child(&[
        "sim.replay",
        "sim.unbounded",
        "sim.incremental",
        "sweep.param_fit",
    ]);
    let sum = |v: &[(f64, f64)]| v.iter().map(|(a, b)| (b - a).max(0.0)).sum::<f64>();
    let all: Vec<(f64, f64)> = [profile.clone(), analyze.clone(), simulate.clone()].concat();
    // Children may overlap (parallel sweep cells): share their covered
    // wall time out in proportion to their summed durations.
    let cover = covered(all.clone());
    let total = sum(&all);
    let share = if total > 0.0 { cover / total } else { 0.0 };
    ledger.add_spans("runtime.profile", sum(&profile) * share, profile.len());
    ledger.add_spans("core.analyze", sum(&analyze) * share, analyze.len());
    ledger.add_spans("core.simulate", sum(&simulate) * share, simulate.len());
    ledger.add("service", (c1 - c0) - cover);
    let entry = ledger.service_by_route.entry(route).or_insert((0.0, 0));
    entry.0 += c1 - c0;
    entry.1 += 1;
}

/// One replay pass. `traced` records the ledger; otherwise only the
/// request spans are summed.
fn pass(warmup: &[Req], measured: &[Req], traced: bool) -> Ledger {
    let (service, telemetry) = fresh();
    let disabled = Telemetry::disabled();
    let mut parser = RequestParser::new(WireLimits::default());
    let mut ledger = Ledger::default();
    for req in warmup {
        let request = parse(&mut parser, &req.wire_bytes());
        black_box(respond(&service, &request, &TraceContext::disabled()));
    }
    for req in measured {
        let bytes = req.wire_bytes();
        if !traced {
            let t0 = Instant::now();
            let request = parse(&mut parser, &bytes);
            let ctx = telemetry.begin_trace(request.header(TRACE_HEADER));
            let response = respond(&service, &request, &ctx);
            telemetry.finish(
                &ctx,
                &request.method,
                request.path(),
                response.status,
                false,
            );
            black_box(response.to_bytes(request.wants_keep_alive()));
            ledger.request_ns += t0.elapsed().as_secs_f64() * 1e9;
            ledger.requests += 1;
            continue;
        }
        let t0 = Instant::now();
        let request = parse(&mut parser, &bytes);
        let t1 = Instant::now();
        let ctx = telemetry.begin_trace(request.header(TRACE_HEADER));
        let t2 = Instant::now();
        let response = respond(&service, &request, &ctx);
        let t3 = Instant::now();
        telemetry.finish(
            &ctx,
            &request.method,
            request.path(),
            response.status,
            false,
        );
        let t4 = Instant::now();
        black_box(response.to_bytes(request.wants_keep_alive()));
        let t5 = Instant::now();
        let ns = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e9;
        ledger.requests += 1;
        ledger.request_ns += ns(t0, t5);
        // The same two calls on a disabled sink: what telemetry costs
        // when it is off, subtracted from the enabled cost.
        let o0 = Instant::now();
        let off = disabled.begin_trace(None);
        disabled.finish(
            &off,
            &request.method,
            request.path(),
            response.status,
            false,
        );
        let off_ns = o0.elapsed().as_secs_f64() * 1e9;
        ledger.add("wire.parse", ns(t0, t1));
        ledger.add("telemetry.finish", ns(t1, t2) + ns(t3, t4) - off_ns);
        ledger.add("wire.encode", ns(t4, t5));
        ledger.add(
            "ledger.gap",
            ns(t0, t5) - ns(t0, t1) - ns(t1, t2) - ns(t2, t3) - ns(t3, t4) - ns(t4, t5),
        );
        // Outside the request span: the decode and render steps on their
        // own, and the service's spans for this request.
        let d0 = Instant::now();
        decode(&request);
        let decode_ns = d0.elapsed().as_secs_f64() * 1e9;
        let render_ns = render(req.route, &response.body).unwrap_or(0.0);
        let spans = ctx
            .trace_id()
            .and_then(|id| {
                telemetry
                    .recent_traces(usize::MAX, None)
                    .into_iter()
                    .find(|t| t.trace_id == id)
            })
            .map(|t| t.spans)
            .unwrap_or_default();
        split_handler(
            &mut ledger,
            req.route,
            &spans,
            ns(t2, t3),
            decode_ns,
            render_ns,
        );
    }
    ledger
}

/// The replay's result: the traced ledger and the untraced total.
pub struct Replay {
    pub traced: Ledger,
    pub untraced_ns: f64,
    pub requests: usize,
}

/// Requests of the process warm-up pass.
const WARM_PASS: usize = 500;

/// Runs the passes: process warm-up, `U`, `T`.
pub fn replay(warmup: &[Req], measured: &[Req]) -> Replay {
    pass(warmup, &measured[..measured.len().min(WARM_PASS)], false);
    let untraced = pass(warmup, measured, false);
    let traced = pass(warmup, measured, true);
    Replay {
        untraced_ns: untraced.request_ns,
        requests: traced.requests,
        traced,
    }
}
