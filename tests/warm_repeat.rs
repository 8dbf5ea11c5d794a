//! A warm repeat is free: on every route and every front end, the first
//! request simulates (`sim_runs` moves), and an identical repeat does no
//! new profiling and no new simulation — it is answered from the
//! simulation shards, whose hit count rises. Routes: primary-device
//! estimate, named-device estimate, matrix, sweep (incremental and
//! per-batch), plan and best-device. Front ends: the blocking service,
//! the async `submit`, HTTP through an in-process server, and a request
//! forwarded inside a 2-node in-process cluster. A degenerate job, which
//! the Analyzer rejects, is free to repeat too on the first three front
//! ends: its repeat answers the same error and profiles nothing.

use std::sync::Arc;
use xmem::core::EstimateError;
use xmem::prelude::*;
use xmem::server::{
    api, cluster, ClusterConfig, HttpClient, ServerConfig, ServerHandle, AUTH_HEADER,
};
use xmem::service::jobspec::job_to_value;
use xmem::service::{AsyncServiceConfig, HashRing};

const TOKEN: &str = "warm-repeat-secret";

fn spec(batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
}

/// A job the Analyzer rejects: zero profiled iterations leave the trace
/// without iteration markers.
fn degenerate() -> TrainJobSpec {
    spec(4).with_iterations(0)
}

fn job_json(spec: &TrainJobSpec) -> String {
    serde_json::to_string(&job_to_value(spec)).expect("job renders")
}

#[derive(Debug, Clone, Copy)]
enum Route {
    PrimaryEstimate,
    NamedEstimate,
    Matrix,
    /// Enough distinct batches for the incremental (fitted) path.
    Sweep,
    /// Too few batches for a fit: one replay per batch.
    ShortSweep,
    Plan,
    BestDevice,
    /// A primary-device estimate of [`degenerate`]: an error, never a
    /// simulation, so it is not in [`ROUTES`].
    Degenerate,
}

const ROUTES: [Route; 7] = [
    Route::PrimaryEstimate,
    Route::NamedEstimate,
    Route::Matrix,
    Route::Sweep,
    Route::ShortSweep,
    Route::Plan,
    Route::BestDevice,
];

impl Route {
    fn sweep_batches(self) -> &'static [usize] {
        match self {
            Route::ShortSweep => &[2, 4, 8],
            _ => &[1, 2, 3, 5],
        }
    }

    /// Answers the route on `service`, rendered exactly like its HTTP
    /// response body.
    fn call(
        self,
        service: &EstimationService,
        ctx: &TraceContext,
    ) -> Result<String, EstimateError> {
        Ok(match self {
            Route::PrimaryEstimate => {
                api::estimate_body(&service.estimate(&spec(4), service.device(None)?, ctx)?)
            }
            Route::NamedEstimate => api::estimate_body(&service.estimate(
                &spec(6),
                service.device(Some("rtx4060"))?,
                ctx,
            )?),
            Route::Matrix => {
                api::matrix_body(&service.estimate_matrix(&[spec(8)], &["rtx3060", "a100"], ctx)?)
            }
            Route::Sweep | Route::ShortSweep => api::sweep_body(&service.sweep(
                &spec(1),
                self.sweep_batches(),
                service.device(None)?,
                ctx,
            )),
            Route::Plan => api::plan_body(service.max_batch_for_device(
                &spec(1),
                service.device(Some("rtx3060"))?,
                1,
                16,
                ctx,
            )?),
            Route::BestDevice => {
                api::placement_body(service.best_device_for_job(&spec(8), ctx)?.as_ref())
            }
            Route::Degenerate => {
                api::estimate_body(&service.estimate(&degenerate(), service.device(None)?, ctx)?)
            }
        })
    }

    /// The route's HTTP path and request body.
    fn http(self) -> (&'static str, String) {
        match self {
            Route::PrimaryEstimate => ("/v1/estimate", job_json(&spec(4))),
            Route::NamedEstimate => (
                "/v1/estimate",
                format!("{{\"job\":{},\"device\":\"rtx4060\"}}", job_json(&spec(6))),
            ),
            Route::Matrix => (
                "/v1/matrix",
                format!(
                    "{{\"jobs\":[{}],\"devices\":[\"rtx3060\",\"a100\"]}}",
                    job_json(&spec(8))
                ),
            ),
            Route::Sweep | Route::ShortSweep => (
                "/v1/sweep",
                format!(
                    "{{\"job\":{},\"batches\":{:?}}}",
                    job_json(&spec(1)),
                    self.sweep_batches()
                ),
            ),
            Route::Plan => (
                "/v1/plan",
                format!(
                    "{{\"job\":{},\"device\":\"rtx3060\",\"min\":1,\"max\":16}}",
                    job_json(&spec(1))
                ),
            ),
            Route::BestDevice => ("/v1/best-device", job_json(&spec(8))),
            Route::Degenerate => ("/v1/estimate", job_json(&degenerate())),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    profile_runs: u64,
    sim_runs: u64,
    sim_hits: u64,
}

/// Counters summed over every service that may have answered.
fn counters(services: &[&EstimationService]) -> Counters {
    services.iter().fold(Counters::default(), |sum, service| {
        let sims = service.sim_stats();
        Counters {
            profile_runs: sum.profile_runs + service.profile_runs(),
            sim_runs: sum.sim_runs + sims.sim_runs,
            sim_hits: sum.sim_hits + sims.cache.hits,
        }
    })
}

/// Sends `route` twice through `send` and checks the warm-repeat
/// contract against the counters of `services`.
fn assert_warm_repeat_is_free(
    front_end: &str,
    route: Route,
    services: &[&EstimationService],
    mut send: impl FnMut() -> String,
) {
    let first = send();
    let cold = counters(services);
    assert!(
        cold.sim_runs > 0,
        "{front_end} {route:?}: the first request must simulate, and count it"
    );
    let second = send();
    let warm = counters(services);
    assert_eq!(
        second, first,
        "{front_end} {route:?}: the repeat answered differently"
    );
    assert_eq!(
        warm.profile_runs, cold.profile_runs,
        "{front_end} {route:?}: the repeat re-profiled"
    );
    assert_eq!(
        warm.sim_runs, cold.sim_runs,
        "{front_end} {route:?}: the repeat re-simulated"
    );
    assert!(
        warm.sim_hits > cold.sim_hits,
        "{front_end} {route:?}: the repeat must be served from the sim shards"
    );
}

/// Sends [`Route::Degenerate`] twice through `send`: the first answer is
/// the error `is_error` recognizes, paid for with one profile run, and the
/// repeat answers it again from the stage cache without profiling.
fn assert_failed_repeat_is_free<T: PartialEq + std::fmt::Debug>(
    front_end: &str,
    service: &EstimationService,
    is_error: impl Fn(&T) -> bool,
    mut send: impl FnMut() -> T,
) {
    let first = send();
    assert!(
        is_error(&first),
        "{front_end}: a degenerate job must fail, got {first:?}"
    );
    assert_eq!(
        service.profile_runs(),
        1,
        "{front_end}: the first request profiles once"
    );
    let second = send();
    assert_eq!(
        second, first,
        "{front_end}: the repeat answered differently"
    );
    assert_eq!(
        service.profile_runs(),
        1,
        "{front_end}: the repeat re-profiled"
    );
}

#[test]
fn blocking_service_repeats_are_free() {
    for route in ROUTES {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        assert_warm_repeat_is_free("sync", route, &[&service], || {
            route
                .call(&service, &TraceContext::disabled())
                .expect("route answers")
        });
    }
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    assert_failed_repeat_is_free(
        "sync",
        &service,
        |answer| answer == &Err(EstimateError::MissingIterations),
        || Route::Degenerate.call(&service, &TraceContext::disabled()),
    );
}

#[test]
fn async_submit_repeats_are_free() {
    for route in ROUTES {
        let service = AsyncEstimationService::for_device(GpuDevice::rtx3060());
        assert_warm_repeat_is_free("async", route, &[service.service()], || {
            service
                .submit(None, &TraceContext::disabled(), move |s, ctx| {
                    route.call(s, ctx)
                })
                .expect("queue has room")
                .wait()
                .expect("route answers")
        });
    }
    let service = AsyncEstimationService::for_device(GpuDevice::rtx3060());
    assert_failed_repeat_is_free(
        "async",
        service.service(),
        |answer| answer == &Err(EstimateError::MissingIterations),
        || {
            service
                .submit(None, &TraceContext::disabled(), |s, ctx| {
                    Route::Degenerate.call(s, ctx)
                })
                .expect("queue has room")
                .wait()
        },
    );
}

fn start_server() -> (ServerHandle, Arc<AsyncEstimationService>) {
    let service = Arc::new(AsyncEstimationService::new(AsyncServiceConfig::for_device(
        GpuDevice::rtx3060(),
    )));
    let server = ServerHandle::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind loopback");
    (server, service)
}

/// One authenticated POST; the response status and body.
fn post_any(client: &mut HttpClient, path: &str, body: &str) -> (u16, String) {
    let response = client
        .request(
            "POST",
            path,
            &[("content-type", "application/json"), (AUTH_HEADER, TOKEN)],
            body.as_bytes(),
        )
        .expect("exchange completes");
    (response.status, response.text().into_owned())
}

/// One authenticated POST; the response body, which must be a `200`.
fn post(client: &mut HttpClient, path: &str, body: &str) -> String {
    let (status, text) = post_any(client, path, body);
    assert_eq!(status, 200, "{path}: {text}");
    text
}

#[test]
fn http_repeats_are_free() {
    for route in ROUTES {
        let (server, service) = start_server();
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");
        let (path, body) = route.http();
        assert_warm_repeat_is_free("http", route, &[service.service()], || {
            post(&mut client, path, &body)
        });
        assert!(server.shutdown().clean);
    }
    let (server, service) = start_server();
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let (path, body) = Route::Degenerate.http();
    assert_failed_repeat_is_free(
        "http",
        service.service(),
        |(status, text): &(u16, String)| *status == 422 && text.contains("missing_iterations"),
        || post_any(&mut client, path, &body),
    );
    assert!(server.shutdown().clean);
}

/// The value of an unlabelled Prometheus counter in `metrics`.
fn counter_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} "))?.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn forwarded_cluster_repeats_are_free() {
    for route in ROUTES {
        let mut nodes = vec![start_server(), start_server()];
        let addrs: Vec<String> = nodes
            .iter()
            .map(|(server, _)| server.local_addr().to_string())
            .collect();
        for (server, _) in &mut nodes {
            let self_addr = server.local_addr().to_string();
            server
                .install_cluster(&ClusterConfig {
                    self_addr,
                    peers: addrs.clone(),
                    auth_token: TOKEN.to_string(),
                })
                .expect("install cluster");
        }
        // Send to the node that does *not* own the request, so every
        // placeable route is forwarded; unplaceable routes (the matrix)
        // are answered where they land.
        let (path, body) = route.http();
        let value: serde::Value = serde_json::from_str(&body).expect("body is JSON");
        let owner = cluster::route_placement(path, &value)
            .and_then(|(_, hash)| HashRing::new(&addrs).owner_index(hash));
        let entry = owner.map_or(0, |owner| {
            let owner_addr = HashRing::new(&addrs).node(owner).to_string();
            usize::from(addrs[0] == owner_addr)
        });
        let forwards = |nodes: &[(ServerHandle, Arc<AsyncEstimationService>)]| -> u64 {
            nodes
                .iter()
                .map(|(server, _)| {
                    let state = server.cluster().expect("cluster installed");
                    counter_value(&state.render_prometheus(), "xmem_cluster_forwards_total")
                })
                .sum()
        };

        let services: Vec<&EstimationService> =
            nodes.iter().map(|(_, service)| service.service()).collect();
        let mut client = HttpClient::connect(addrs[entry].as_str()).expect("connect");
        assert_warm_repeat_is_free("cluster", route, &services, || {
            post(&mut client, path, &body)
        });
        if owner.is_some() {
            assert!(
                forwards(&nodes) >= 1,
                "cluster {route:?}: the request must have been forwarded"
            );
        }
        drop(client);
        for (server, _) in nodes {
            assert!(server.shutdown().clean);
        }
    }
}
