//! The HTTP API surface: request-body grammar, response-body rendering,
//! and the handler for each `/v1` route.
//!
//! Request bodies reuse the one job-spec grammar every ingress shares
//! ([`xmem_service::jobspec`]); response bodies are rendered through the
//! functions here, which tests and clients call directly — a loopback
//! response is **byte-identical** to rendering the result of the
//! equivalent direct service call.
//!
//! Every estimation failure maps to a stable JSON error body
//! `{"error":{"kind":"...","message":"..."}}` with a status code per
//! [`EstimateError`] variant (see [`estimate_error_response`]).

use crate::wire::{json_string, Request, Response};
use serde::Value;
use std::time::{Duration, Instant};
use xmem_core::{AnalysisStats, DeviceMatrix, DevicePlacement, Estimate, EstimateError};
use xmem_runtime::TrainJobSpec;
use xmem_service::jobspec::{self, job_from_value, usize_field};
use xmem_service::{AsyncEstimationService, SubmitError, TraceContext};

/// Renders a stable JSON error body.
#[must_use]
pub fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":{},\"message\":{}}}}}",
        json_string(kind),
        json_string(message)
    )
}

/// A `400` with a `bad_request` error body.
#[must_use]
pub fn bad_request(message: &str) -> Response {
    Response::json(400, error_body("bad_request", message))
}

/// The jobspec layer's batch range error, verbatim — the one job
/// validation failure that is a *semantic* range violation rather than a
/// grammar error, so it maps to `422` instead of `400`.
pub const BATCH_RANGE_ERROR: &str = "`batch` must be >= 1";

/// Maps a jobspec validation failure to its wire shape: the batch range
/// violation is `422 invalid_job` (the body parsed; the job is
/// semantically out of range), every other message stays the `400`
/// grammar error. Matched by suffix so route-added prefixes
/// (`jobs[3]: ...`) keep the mapping.
#[must_use]
pub fn job_error_response(message: &str) -> Response {
    if message.ends_with(BATCH_RANGE_ERROR) {
        Response::json(422, error_body("invalid_job", message))
    } else {
        bad_request(message)
    }
}

/// The backpressure answer: `503` + `Retry-After`, a stable `busy` body.
#[must_use]
pub fn busy_response() -> Response {
    Response::json(503, error_body("busy", "submission queue is full; retry"))
        .with_header("retry-after", "1")
}

/// Maps an [`EstimateError`] to its status code and stable error kind.
#[must_use]
pub fn estimate_error_status(error: &EstimateError) -> (u16, &'static str) {
    match error {
        EstimateError::EmptyTrace => (422, "empty_trace"),
        EstimateError::MissingIterations => (422, "missing_iterations"),
        EstimateError::Cancelled => (500, "cancelled"),
        EstimateError::DeadlineExceeded => (504, "deadline_exceeded"),
        EstimateError::UnknownDevice(_) => (404, "unknown_device"),
        EstimateError::Internal(_) => (500, "internal"),
    }
}

/// The full error response for an [`EstimateError`].
#[must_use]
pub fn estimate_error_response(error: &EstimateError) -> Response {
    let (status, kind) = estimate_error_status(error);
    Response::json(status, error_body(kind, &error.to_string()))
}

/// The JSON value an [`Estimate`] serializes to on the wire: the peak
/// numbers, the OOM verdict, and the analysis diagnostics (the usage
/// curve is omitted — timeline recording is off on the serving path).
#[must_use]
pub fn estimate_value(estimate: &Estimate) -> Value {
    let stats = &estimate.stats;
    let categories = stats
        .categories
        .iter()
        .map(|(name, blocks, bytes)| {
            Value::Array(vec![
                Value::Str(name.clone()),
                Value::U64(*blocks as u64),
                Value::U64(*bytes),
            ])
        })
        .collect();
    Value::Object(vec![
        ("peak_bytes".to_string(), Value::U64(estimate.peak_bytes)),
        (
            "job_peak_bytes".to_string(),
            Value::U64(estimate.job_peak_bytes),
        ),
        (
            "tensor_peak_bytes".to_string(),
            Value::U64(estimate.tensor_peak_bytes),
        ),
        (
            "oom_predicted".to_string(),
            Value::Bool(estimate.oom_predicted),
        ),
        (
            "stats".to_string(),
            Value::Object(vec![
                ("categories".to_string(), Value::Array(categories)),
                (
                    "filtered_blocks".to_string(),
                    Value::U64(stats.filtered_blocks as u64),
                ),
                (
                    "adjusted_blocks".to_string(),
                    Value::U64(stats.adjusted_blocks as u64),
                ),
                (
                    "unmatched_frees".to_string(),
                    Value::U64(stats.unmatched_frees as u64),
                ),
            ]),
        ),
    ])
}

/// Parses the JSON value [`estimate_value`] renders back into an
/// [`Estimate`] — the inverse the cluster tier uses to fill a local sim
/// cell from a forwarded node's `200` response. The usage curve is not on
/// the wire (timeline recording is off on every serving path), so it
/// reconstructs empty — exactly what the owner's own cell holds.
#[must_use]
pub fn estimate_from_value(value: &Value) -> Option<Estimate> {
    let entries = value.as_object()?;
    let field_u64 = |field: &str| serde::obj_get(entries, field).and_then(Value::as_u64);
    let oom_predicted = match serde::obj_get(entries, "oom_predicted")? {
        Value::Bool(b) => *b,
        _ => return None,
    };
    let stats_entries = serde::obj_get(entries, "stats")?.as_object()?;
    let stats_usize = |field: &str| {
        serde::obj_get(stats_entries, field)
            .and_then(Value::as_u64)
            .and_then(|n| usize::try_from(n).ok())
    };
    let mut categories = Vec::new();
    for item in serde::obj_get(stats_entries, "categories")?.as_array()? {
        let triple = item.as_array()?;
        if triple.len() != 3 {
            return None;
        }
        let Value::Str(name) = &triple[0] else {
            return None;
        };
        categories.push((
            name.clone(),
            usize::try_from(triple[1].as_u64()?).ok()?,
            triple[2].as_u64()?,
        ));
    }
    Some(Estimate {
        peak_bytes: field_u64("peak_bytes")?,
        job_peak_bytes: field_u64("job_peak_bytes")?,
        tensor_peak_bytes: field_u64("tensor_peak_bytes")?,
        oom_predicted,
        curve: Vec::new(),
        stats: AnalysisStats {
            categories,
            filtered_blocks: stats_usize("filtered_blocks")?,
            adjusted_blocks: stats_usize("adjusted_blocks")?,
            unmatched_frees: stats_usize("unmatched_frees")?,
        },
    })
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("value rendering is infallible")
}

/// The `POST /v1/estimate` success body.
#[must_use]
pub fn estimate_body(estimate: &Estimate) -> String {
    render(&Value::Object(vec![(
        "estimate".to_string(),
        estimate_value(estimate),
    )]))
}

/// A matrix cell's value: the estimate, or its per-cell error.
fn cell_value(device: &str, outcome: &Result<Estimate, EstimateError>) -> Value {
    let mut entries = vec![("device".to_string(), Value::Str(device.to_string()))];
    match outcome {
        Ok(estimate) => entries.push(("estimate".to_string(), estimate_value(estimate))),
        Err(error) => {
            let (_, kind) = estimate_error_status(error);
            entries.push((
                "error".to_string(),
                Value::Object(vec![
                    ("kind".to_string(), Value::Str(kind.to_string())),
                    ("message".to_string(), Value::Str(error.to_string())),
                ]),
            ));
        }
    }
    Value::Object(entries)
}

/// The `POST /v1/matrix` success body.
#[must_use]
pub fn matrix_body(matrix: &DeviceMatrix) -> String {
    let devices = matrix
        .devices
        .iter()
        .map(|d| Value::Str(d.clone()))
        .collect();
    let rows = matrix
        .rows
        .iter()
        .map(|row| {
            Value::Object(vec![
                (
                    "job".to_string(),
                    xmem_service::jobspec::job_to_value(&row.spec),
                ),
                (
                    "cells".to_string(),
                    Value::Array(
                        row.cells
                            .iter()
                            .map(|cell| cell_value(&cell.device, &cell.estimate))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    render(&Value::Object(vec![
        ("devices".to_string(), Value::Array(devices)),
        ("rows".to_string(), Value::Array(rows)),
    ]))
}

/// The `POST /v1/sweep` success body.
#[must_use]
pub fn sweep_body(results: &[(usize, Result<Estimate, EstimateError>)]) -> String {
    let entries = results
        .iter()
        .map(|(batch, outcome)| {
            let mut entry = vec![("batch".to_string(), Value::U64(*batch as u64))];
            match outcome {
                Ok(estimate) => entry.push(("estimate".to_string(), estimate_value(estimate))),
                Err(error) => {
                    let (_, kind) = estimate_error_status(error);
                    entry.push((
                        "error".to_string(),
                        Value::Object(vec![
                            ("kind".to_string(), Value::Str(kind.to_string())),
                            ("message".to_string(), Value::Str(error.to_string())),
                        ]),
                    ));
                }
            }
            Value::Object(entry)
        })
        .collect();
    render(&Value::Object(vec![(
        "results".to_string(),
        Value::Array(entries),
    )]))
}

/// The `POST /v1/plan` success body.
#[must_use]
pub fn plan_body(max_batch: Option<usize>) -> String {
    let value = match max_batch {
        Some(batch) => Value::U64(batch as u64),
        None => Value::Null,
    };
    render(&Value::Object(vec![("max_batch".to_string(), value)]))
}

/// The `POST /v1/best-device` success body.
#[must_use]
pub fn placement_body(placement: Option<&DevicePlacement>) -> String {
    let value = match placement {
        Some(p) => Value::Object(vec![
            ("device".to_string(), Value::Str(p.device.clone())),
            ("estimate".to_string(), estimate_value(&p.estimate)),
        ]),
        None => Value::Null,
    };
    render(&Value::Object(vec![("placement".to_string(), value)]))
}

/// The header carrying a per-request deadline budget in milliseconds.
pub const DEADLINE_HEADER: &str = "x-xmem-deadline-ms";

/// Parses the request's deadline header into an absolute instant.
///
/// # Errors
/// A ready-to-send `400` for a non-numeric value.
pub fn deadline_of(request: &Request) -> Result<Option<Instant>, Response> {
    match request.header(DEADLINE_HEADER) {
        None => Ok(None),
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| bad_request(&format!("`{DEADLINE_HEADER}` must be a number")))?;
            Ok(Some(Instant::now() + Duration::from_millis(ms)))
        }
    }
}

/// Parses a request body as JSON.
fn body_json(request: &Request) -> Result<Value, Response> {
    let text = std::str::from_utf8(&request.body).map_err(|_| bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad_request("body must be a JSON object"));
    }
    serde_json::from_str(text).map_err(|e| bad_request(&format!("body is not JSON: {e}")))
}

/// The request's job: either the whole body is the job object, or it
/// lives under a `"job"` key (the wrapped form used when other fields
/// ride along).
fn job_of(body: &Value) -> Result<TrainJobSpec, Response> {
    job_of_with_batch(body, None)
}

/// [`job_of`] for grid-driven routes (`/v1/sweep`, `/v1/plan`), where the
/// batch size comes from the grid and may be omitted from the job object.
fn job_of_with_batch(body: &Value, default_batch: Option<usize>) -> Result<TrainJobSpec, Response> {
    let entries = body
        .as_object()
        .ok_or_else(|| bad_request("body must be a JSON object"))?;
    let job_value = serde::obj_get(entries, "job").unwrap_or(body);
    jobspec::job_from_value_with_batch(job_value, default_batch).map_err(|e| job_error_response(&e))
}

/// A string field of the body object.
fn string_field(body: &Value, field: &str) -> Result<Option<String>, Response> {
    match body.as_object().and_then(|o| serde::obj_get(o, field)) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad_request(&format!("`{field}` must be a string"))),
    }
}

/// Settles a submitted future into a response, mapping `Busy` and
/// estimation errors to their wire shapes.
fn settle<T>(
    submitted: Result<xmem_service::PoolFuture<Result<T, EstimateError>>, SubmitError>,
    render_ok: impl FnOnce(&T) -> String,
) -> Response
where
    T: Clone + Send,
{
    match submitted {
        Err(SubmitError::Busy) => busy_response(),
        Ok(future) => match future.wait() {
            Ok(value) => Response::json(200, render_ok(&value)),
            Err(error) => estimate_error_response(&error),
        },
    }
}

/// `POST /v1/estimate` — body: a job object (or `{"job": ..., "device":
/// "name"}`); answers the estimate on the service's default device, or on
/// the named registered device.
#[must_use]
pub fn handle_estimate(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let spec = match job_of(&body) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let device = match string_field(&body, "device") {
        Ok(d) => d,
        Err(e) => return e,
    };
    let submitted = service.submit(deadline, ctx, move |service, ctx| {
        service.estimate(&spec, service.device(device.as_deref())?, ctx)
    });
    settle(submitted, estimate_body)
}

/// `POST /v1/matrix` — body: `{"jobs": [job, ...], "devices": ["name",
/// ...]?}`; devices default to every registered device.
#[must_use]
pub fn handle_matrix(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let entries = match body.as_object() {
        Some(entries) => entries,
        None => return bad_request("body must be a JSON object"),
    };
    let jobs_value = match serde::obj_get(entries, "jobs").and_then(Value::as_array) {
        Some(jobs) if !jobs.is_empty() => jobs,
        _ => return bad_request("`jobs` must be a non-empty array of job objects"),
    };
    let mut specs = Vec::with_capacity(jobs_value.len());
    for (i, job) in jobs_value.iter().enumerate() {
        match job_from_value(job) {
            Ok(spec) => specs.push(spec),
            Err(e) => return job_error_response(&format!("jobs[{i}]: {e}")),
        }
    }
    let devices: Vec<String> = match serde::obj_get(entries, "devices") {
        None | Some(Value::Null) => service.service().registry().names(),
        Some(Value::Array(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::Str(name) => names.push(name.clone()),
                    _ => return bad_request("`devices` must be an array of device names"),
                }
            }
            names
        }
        Some(_) => return bad_request("`devices` must be an array of device names"),
    };
    if devices.is_empty() {
        return bad_request("no devices to simulate against");
    }
    let submitted = service.submit(deadline, ctx, move |service, ctx| {
        let names: Vec<&str> = devices.iter().map(String::as_str).collect();
        service.estimate_matrix(&specs, &names, ctx)
    });
    settle(submitted, matrix_body)
}

/// `POST /v1/sweep` — body: `{"job": job, "batches": [n, ...]}`.
#[must_use]
pub fn handle_sweep(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let Some(entries) = body.as_object() else {
        return bad_request("body must be a JSON object");
    };
    let batches: Vec<usize> = match serde::obj_get(entries, "batches").and_then(Value::as_array) {
        Some(items) if !items.is_empty() => {
            // Duplicates collapse (first occurrence keeps its slot) —
            // repeated grid points would just repeat cache hits; zero
            // points are the jobspec range violation, same stable 422.
            let mut batches = Vec::with_capacity(items.len());
            for item in items {
                match item.as_u64().and_then(|n| usize::try_from(n).ok()) {
                    Some(0) => return job_error_response(BATCH_RANGE_ERROR),
                    Some(batch) => {
                        if !batches.contains(&batch) {
                            batches.push(batch);
                        }
                    }
                    None => return bad_request("`batches` must be positive integers"),
                }
            }
            batches
        }
        _ => return bad_request("`batches` must be a non-empty array of batch sizes"),
    };
    // The grid supplies the batch sizes, so the job object may omit
    // `batch` — the first grid point backs the draft.
    let spec = match job_of_with_batch(&body, batches.first().copied()) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let submitted = service.submit(deadline, ctx, move |service, ctx| {
        Ok(service.sweep(&spec, &batches, service.device(None)?, ctx))
    });
    settle(submitted, |results| sweep_body(results))
}

/// `POST /v1/plan` — body: `{"job": job, "device": "name", "min": 1?,
/// "max": 1024?}`; answers admission control
/// ([`max_batch_for_device`](xmem_service::EstimationService::max_batch_for_device)).
#[must_use]
pub fn handle_plan(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let Some(entries) = body.as_object() else {
        return bad_request("body must be a JSON object");
    };
    let device_name = match string_field(&body, "device") {
        Ok(Some(name)) => name,
        Ok(None) => return bad_request("`device` is required"),
        Err(e) => return e,
    };
    let device = match service.service().device(Some(&device_name)) {
        Ok(device) => device,
        Err(e) => return estimate_error_response(&e),
    };
    let (lo, hi) = match (usize_field(entries, "min"), usize_field(entries, "max")) {
        (Ok(lo), Ok(hi)) => (lo.unwrap_or(1), hi.unwrap_or(1024)),
        (Err(e), _) | (_, Err(e)) => return bad_request(&e),
    };
    if lo < 1 || lo > hi {
        return bad_request(&format!("invalid batch range [{lo}, {hi}]"));
    }
    // The search range supplies batch sizes, so the job object may omit
    // `batch` — the range floor backs the draft.
    let spec = match job_of_with_batch(&body, Some(lo)) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let submitted = service.submit(deadline, ctx, move |service, ctx| {
        service.max_batch_for_device(&spec, device, lo, hi, ctx)
    });
    settle(submitted, |max_batch| plan_body(*max_batch))
}

/// `POST /v1/best-device` — body: a job object (or `{"job": ...}`);
/// answers best-fit placement across the registered fleet.
#[must_use]
pub fn handle_best_device(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let spec = match job_of(&body) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let submitted = service.submit(deadline, ctx, move |service, ctx| {
        service.best_device_for_job(&spec, ctx)
    });
    settle(submitted, |placement| placement_body(placement.as_ref()))
}
