//! The output check: every served answer is compared with a fresh
//! sequential `Estimator` (profile on the CPU, analyze, simulate) built
//! for the same device, and the census answers are scored against the
//! emulated ground truth (`run_on_gpu`) with the paper's metrics.

use crate::gen::{Req, Route, DEFAULT_DEVICE};
use crate::http::Outcome;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use xmem::baselines::{EstimateOutcome, MemoryEstimator};
use xmem::core::{
    AnalyzedTrace, Analyzer, DeviceMatrix, DevicePlacement, Estimate, Estimator, EstimatorConfig,
    MatrixCell, MatrixRow,
};
use xmem::eval::metrics;
use xmem::eval::protocol::{validate, ConfigKey, GroundTruthSummary};
use xmem::models::ModelId;
use xmem::runtime::{profile_on_cpu, run_on_gpu, GpuDevice, TrainJobSpec};
use xmem::server::api;
use xmem::service::{DeviceRegistry, ProfiledStages};

/// Timings of one sequential reference computation: the runtime and core
/// layers, called directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefTiming {
    pub profile_ms: f64,
    pub analyze_ms: f64,
    pub simulate_ms: f64,
    pub trace_events: usize,
    pub entry_kb: f64,
}

/// The sequential reference for one job: its analysis, and per-device
/// estimates computed on demand by a fresh `Estimator` per device.
struct Reference {
    analyzed: AnalyzedTrace,
    estimates: HashMap<String, Estimate>,
    timing: RefTiming,
}

impl Reference {
    fn compute(spec: &TrainJobSpec) -> Reference {
        let t0 = Instant::now();
        let trace = profile_on_cpu(spec);
        let t1 = Instant::now();
        let analyzed = Analyzer::new()
            .analyze(&trace)
            .expect("generated jobs analyze");
        let t2 = Instant::now();
        let trace_events = trace.len();
        // The stage-cache entry the server keeps for this job.
        let entry = ProfiledStages {
            trace: Some(trace),
            analyzed,
        };
        let entry_kb = entry.approx_bytes() as f64 / 1024.0;
        let mut reference = Reference {
            analyzed: entry.analyzed,
            estimates: HashMap::new(),
            timing: RefTiming {
                profile_ms: (t1 - t0).as_secs_f64() * 1e3,
                analyze_ms: (t2 - t1).as_secs_f64() * 1e3,
                simulate_ms: 0.0,
                trace_events,
                entry_kb,
            },
        };
        let t3 = Instant::now();
        reference.estimate(DEFAULT_DEVICE);
        reference.timing.simulate_ms = t3.elapsed().as_secs_f64() * 1e3;
        reference
    }

    fn estimate(&mut self, device: &str) -> Estimate {
        let analyzed = &self.analyzed;
        self.estimates
            .entry(device.to_string())
            .or_insert_with(|| {
                let gpu = DeviceRegistry::builtin()
                    .get(device)
                    .expect("registered device");
                Estimator::new(EstimatorConfig::for_device(gpu)).estimate_analyzed(analyzed)
            })
            .clone()
    }
}

/// Sequential references, memoized per job for the duration of a check.
struct References {
    by_job: HashMap<String, Reference>,
    timings: Vec<(TrainJobSpec, RefTiming)>,
}

impl References {
    fn get(&mut self, spec: &TrainJobSpec) -> &mut Reference {
        let key = format!("{spec:?}");
        if !self.by_job.contains_key(&key) {
            let reference = Reference::compute(spec);
            self.timings.push((spec.clone(), reference.timing));
            self.by_job.insert(key.clone(), reference);
        }
        self.by_job.get_mut(&key).expect("just inserted")
    }

    fn estimate(&mut self, spec: &TrainJobSpec, device: &str) -> Estimate {
        self.get(spec).estimate(device)
    }
}

fn at_batch(spec: &TrainJobSpec, batch: usize) -> TrainJobSpec {
    let mut spec = spec.clone();
    spec.batch = batch;
    spec
}

/// The body a correct server answers `req` with, built from sequential
/// estimates and the server's own public renderers.
fn expected_body(req: &Req, served: &[u8], refs: &mut References) -> Result<String, String> {
    Ok(match req.route {
        Route::EstimateDefault => api::estimate_body(&refs.estimate(&req.jobs[0], DEFAULT_DEVICE)),
        Route::EstimateNamed => {
            let device = req.device.expect("named device");
            api::estimate_body(&refs.estimate(&req.jobs[0], device))
        }
        Route::BestDevice => {
            // The smallest device that fits, by capacity (stable over the
            // registry's name order).
            let mut fleet = DeviceRegistry::builtin().snapshot();
            fleet.sort_by_key(|(_, d)| d.capacity);
            let placement = fleet.into_iter().find_map(|(name, _)| {
                let estimate = refs.estimate(&req.jobs[0], &name);
                (!estimate.oom_predicted).then_some(DevicePlacement {
                    device: name,
                    estimate,
                })
            });
            api::placement_body(placement.as_ref())
        }
        Route::Matrix => {
            let devices = DeviceRegistry::builtin().names();
            let rows = req
                .jobs
                .iter()
                .map(|spec| MatrixRow {
                    spec: spec.clone(),
                    cells: devices
                        .iter()
                        .map(|d| MatrixCell {
                            device: d.clone(),
                            estimate: Ok(refs.estimate(spec, d)),
                        })
                        .collect(),
                })
                .collect();
            api::matrix_body(&DeviceMatrix { devices, rows })
        }
        Route::Sweep => {
            let results: Vec<_> = req
                .batches
                .iter()
                .map(|&b| {
                    (
                        b,
                        Ok(refs.estimate(&at_batch(&req.jobs[0], b), DEFAULT_DEVICE)),
                    )
                })
                .collect();
            api::sweep_body(&results)
        }
        Route::Plan => {
            // The answer must sit on the fit frontier: the returned batch
            // fits, the next one (if in range) does not; `null` means even
            // the range floor does not fit.
            let device = req.device.expect("plan device");
            let (lo, hi) = (req.batches[0], req.batches[1]);
            let value: Value = serde_json::from_str(std::str::from_utf8(served).unwrap_or(""))
                .map_err(|e| format!("plan answer is not JSON: {e}"))?;
            let answer = value
                .as_object()
                .and_then(|o| serde::obj_get(o, "max_batch"))
                .and_then(Value::as_u64)
                .map(|b| b as usize);
            let fits = |refs: &mut References, b: usize| {
                !refs
                    .estimate(&at_batch(&req.jobs[0], b), device)
                    .oom_predicted
            };
            let frontier_ok = match answer {
                Some(b) => {
                    (lo..=hi).contains(&b) && fits(refs, b) && (b == hi || !fits(refs, b + 1))
                }
                None => !fits(refs, lo),
            };
            if !frontier_ok {
                return Err(format!("plan answer {answer:?} is not the fit frontier"));
            }
            api::plan_body(answer)
        }
        Route::Healthz => return Ok(String::new()),
    })
}

/// Result of checking one run's answers.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Distinct request bodies whose answer was compared.
    pub checked: usize,
    /// Answers that differ from the reference, or from an earlier answer
    /// to the same request.
    pub wrong: usize,
    pub first_mismatch: Option<String>,
    /// Reference timings of the workload's own jobs (census excluded).
    pub timings: Vec<RefTiming>,
}

/// Checks answers: identical requests must get identical answers, and
/// the answer to each distinct request in `sample` (plus every census
/// request) must equal the sequential reference. Runs on `threads`
/// threads; the jobs of one request stay on one thread.
pub fn check(
    outcomes: &[&Outcome],
    sample: &[String],
    census_keys: &[String],
    threads: usize,
) -> CheckReport {
    let mut report = CheckReport::default();
    let mut first_answer: BTreeMap<String, &Outcome> = BTreeMap::new();
    for outcome in outcomes.iter().filter(|o| o.ok()) {
        if outcome.req.route == Route::Healthz {
            continue;
        }
        let key = outcome.req.key();
        match first_answer.get(&key) {
            Some(first) if first.body != outcome.body => {
                report.wrong += 1;
                report.first_mismatch.get_or_insert_with(|| {
                    format!(
                        "{key}\n  answered differently on repeat:\n  first:  {}\n  repeat: {}",
                        String::from_utf8_lossy(&first.body),
                        String::from_utf8_lossy(&outcome.body)
                    )
                });
            }
            Some(_) => {}
            None => {
                first_answer.insert(key, outcome);
            }
        }
    }
    let todo: Vec<(&Outcome, bool)> = sample
        .iter()
        .map(|k| (k, false))
        .chain(census_keys.iter().map(|k| (k, true)))
        .filter_map(|(k, census)| first_answer.get(k).map(|o| (*o, census)))
        .collect();
    // Group by first job so a job's reference is computed once.
    let mut todo = todo;
    todo.sort_by_key(|(o, _)| format!("{:?}", o.req.jobs.first()));
    let threads = threads.max(1);
    let chunk = todo.len().div_ceil(threads).max(1);
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut refs = References {
                        by_job: HashMap::new(),
                        timings: Vec::new(),
                    };
                    let mut wrong = Vec::new();
                    let mut census_jobs = Vec::new();
                    for (outcome, census) in part {
                        if *census {
                            census_jobs.push(format!("{:?}", outcome.req.jobs[0]));
                        }
                        let expected = expected_body(&outcome.req, &outcome.body, &mut refs);
                        let matches =
                            matches!(&expected, Ok(body) if body.as_bytes() == outcome.body);
                        if !matches {
                            let why = match expected {
                                Ok(body) => format!("expected: {body}"),
                                Err(e) => e,
                            };
                            wrong.push(format!(
                                "{} {}\n  served:   {}\n  {why}",
                                outcome.req.method(),
                                outcome.req.key(),
                                String::from_utf8_lossy(&outcome.body)
                            ));
                        }
                        if refs.by_job.len() > 64 {
                            refs.by_job.clear();
                        }
                    }
                    let timings: Vec<RefTiming> = refs
                        .timings
                        .iter()
                        .filter(|(spec, _)| !census_jobs.contains(&format!("{spec:?}")))
                        .map(|(_, t)| *t)
                        .collect();
                    (part.len(), wrong, timings)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for (checked, wrong, timings) in parts {
        report.checked += checked;
        report.wrong += wrong.len();
        if report.first_mismatch.is_none() {
            report.first_mismatch = wrong.into_iter().next();
        }
        report.timings.extend(timings);
    }
    report
}

/// Serves the estimates the server answered, behind the common estimator
/// interface, so the paper's validation protocol scores exactly them.
struct Served(HashMap<String, EstimateOutcome>);

impl MemoryEstimator for Served {
    fn name(&self) -> &'static str {
        "xMem (served)"
    }

    fn supports(&self, _model: ModelId) -> bool {
        true
    }

    fn estimate(&self, spec: &TrainJobSpec, _device: &GpuDevice) -> Option<EstimateOutcome> {
        self.0.get(&format!("{spec:?}")).copied()
    }
}

/// MRE and PEF (in %) of the served census answers against the emulated
/// ground truth, under the paper's two-round protocol on the default
/// device. Also returns how many jobs were scored.
pub fn accuracy(census: &[&Outcome], threads: usize) -> (f64, f64, usize) {
    let mut served = HashMap::new();
    for outcome in census.iter().filter(|o| o.ok()) {
        let parsed: Option<Value> = std::str::from_utf8(&outcome.body)
            .ok()
            .and_then(|t| serde_json::from_str(t).ok());
        let estimate = parsed
            .as_ref()
            .and_then(Value::as_object)
            .and_then(|o| serde::obj_get(o, "estimate"))
            .and_then(api::estimate_from_value);
        if let Some(e) = estimate {
            served.insert(
                format!("{:?}", outcome.req.jobs[0]),
                EstimateOutcome {
                    peak_bytes: e.peak_bytes,
                    oom_predicted: e.oom_predicted,
                },
            );
        }
    }
    let served = Arc::new(Served(served));
    let device = DeviceRegistry::builtin()
        .get(DEFAULT_DEVICE)
        .expect("default device");
    let jobs: Vec<TrainJobSpec> = census.iter().map(|o| o.req.jobs[0].clone()).collect();
    let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
    let records: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                let served = Arc::clone(&served);
                scope.spawn(move || {
                    part.iter()
                        .map(|spec| {
                            let truth = run_on_gpu(spec, &device, None, false);
                            let key = ConfigKey {
                                model: spec.model,
                                optimizer: spec.optimizer,
                                batch: spec.batch,
                                zero_grad: spec.zero_grad_pos,
                                device: DEFAULT_DEVICE.to_string(),
                                repeat: 1,
                            };
                            let round1 = GroundTruthSummary {
                                peak: truth.peak_nvml,
                                oom: truth.oom,
                            };
                            validate(spec, &key, &device, served.as_ref(), round1)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("accuracy thread panicked"))
            .collect()
    });
    let errors: Vec<f64> = records.iter().filter_map(|r| r.error).collect();
    let correct: Vec<bool> = records.iter().map(|r| r.c2).collect();
    let mre = metrics::median(&errors).unwrap_or(f64::NAN) * 100.0;
    let pef = metrics::pef(&correct) * 100.0;
    (mre, pef, records.len())
}
