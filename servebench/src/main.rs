//! `servebench` — the serving benchmark for `xmem-cli listen`.
//!
//! ```text
//! servebench --server <xmem-cli> --workload <warm-poll|admit-churn|plan-sweep>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Launches the server as a separate process with its default flags,
//! drives one workload against it over loopback HTTP, checks every
//! answer against a fresh sequential `Estimator`, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger (`--trace 1`).
//! The last stdout line is the JSON result. `servebench/README.md`
//! documents the workloads and every metric.

mod check;
mod gen;
mod http;
mod ledger;

use gen::{Kind, Req, Route, Workload, ROUTES};
use http::{FirstSeen, Outcome, Server};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run, with and without warm-up requests; `setup_s` is
/// their median (a bare launch takes milliseconds, so it repeats more).
const SETUP_REPEATS_WARM: usize = 3;
const SETUP_REPEATS_BARE: usize = 9;
/// Threads of the output check and the accuracy scoring (the server is
/// stopped by then).
const CHECK_THREADS: usize = 2;
/// Reference jobs the output check may profile per run, beyond the census.
const CHECK_JOB_BUDGET: usize = 320;

/// Warm-poll: the fixed offered rate (req/s) of the latency phase: low
/// enough that the server stays mostly idle even when the host runs
/// slow, so its latency tracks service time rather than queueing.
const WARM_RATE: f64 = 160.0;
/// Warm-poll: the p99 latency limit (ms) the rate search must meet: about
/// ten times the p99 at the fixed rate, so it is crossed only by queueing
/// as the offered rate nears what the server sustains, never by the few
/// slow warm requests a one-second step holds.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Warm-poll: share of the run spent at the fixed rate; the rest
/// searches for the highest rate that meets the limit.
const FIXED_SHARE: f64 = 2.0 / 3.0;
/// Warm-poll: steps of the rate search (ramp, then bisection).
const SEARCH_STEPS: usize = 5;
/// Warm-poll: first rate of the search, as a multiple of the fixed rate.
const SEARCH_START: f64 = 4.0;
/// Warm-poll: rate growth per ramp step.
const RAMP: f64 = 1.25;
/// Warm-poll: a step's backlog is growing when it rises by more than this
/// much offered work (seconds) from the middle of the step to its end.
const BACKLOG_GROWTH_S: f64 = 0.025;
/// Warm-poll: pipelined connections (no more than the host's cores).
const OPEN_CONNS: usize = 2;

struct Args {
    server: PathBuf,
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    replay: bool,
}

fn usage() -> &'static str {
    "usage: servebench --server <xmem-cli> --workload <warm-poll|admit-churn|plan-sweep> \
     --seed <n> --seconds <s> --trace <0|1>"
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut replay = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "replay" {
            replay = true;
            continue;
        }
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = flags.get("seconds").map_or(Ok(20.0), |s| {
        s.parse().map_err(|_| "--seconds must be a number")
    })?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let server = match flags.get("server") {
        Some(path) => PathBuf::from(path),
        None if replay => PathBuf::new(),
        None => return Err("--server is required".into()),
    };
    Ok(Args {
        server,
        workload,
        kind,
        seed,
        seconds,
        trace,
        replay,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.replay {
        replay_main(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

// ---------------------------------------------------------------- stats

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of sorted values (`q` in [0, 1]).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest of p90 / p99 / p99.9 with at least ten samples beyond it.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let pct = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(sorted, pct / 100.0))
}

// ----------------------------------------------------------------- host

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the served program's sources, so runs from a checkout
/// without git history can still be tied to the code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn host_block(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("source_digest".into(), Value::Str(source_digest())),
        ("cpu".into(), Value::Str(cpu)),
        ("seed".into(), Value::U64(seed)),
    ])
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("value rendering is infallible")
}

// ------------------------------------------------------------- workload

/// Counters read from `/metrics` before and after the measured phase.
struct Deltas(HashMap<String, f64>, HashMap<String, f64>);

impl Deltas {
    fn get(&self, series: &str) -> f64 {
        self.1.get(series).copied().unwrap_or(0.0) - self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// What one rate-search step measured.
struct Step {
    rate: f64,
    p99_ms: f64,
    growing: bool,
    answered: usize,
    sent: usize,
    pass: bool,
}

/// Runs one open-loop step at `rate` for `seconds`, drawing requests from
/// the warm-poll stream starting at `next_index`.
fn open_step(
    server: &Server,
    workload: &Workload,
    rate: f64,
    seconds: f64,
    next_index: &mut usize,
) -> Vec<Outcome> {
    let count = ((rate * seconds).round() as usize).max(1);
    let schedule: Vec<(usize, f64, Req)> = (0..count)
        .map(|i| {
            let index = *next_index + i;
            (index, i as f64 / rate, workload.request(0, index))
        })
        .collect();
    *next_index += count;
    let grace = Duration::from_secs_f64(seconds.max(1.0));
    http::open_loop(server.addr, &schedule, OPEN_CONNS, grace)
}

/// Requests due by `t` (seconds into the step) and not answered by `t`.
fn backlog(outcomes: &[Outcome], t: f64) -> usize {
    outcomes
        .iter()
        .filter(|o| o.due <= t && !(o.ok() && o.done <= t))
        .count()
}

fn judge(rate: f64, outcomes: &[Outcome]) -> Step {
    let mut latencies: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.ok() {
                o.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p99_ms = quantile(&latencies, 0.99);
    // Growing: between the middle and the end of the step the backlog
    // rose by more than 25 ms of offered work.
    let end = outcomes.last().map_or(0.0, |o| o.due);
    let growth = backlog(outcomes, end) as f64 - backlog(outcomes, end / 2.0) as f64;
    let growing = growth > (BACKLOG_GROWTH_S * rate).max(8.0);
    let answered = outcomes.iter().filter(|o| o.ok()).count();
    Step {
        rate,
        p99_ms,
        growing,
        answered,
        sent: outcomes.len(),
        pass: p99_ms <= LATENCY_LIMIT_MS && !growing && answered == outcomes.len(),
    }
}

/// The highest offered rate whose p99 meets the limit with no growing
/// backlog: a geometric ramp from the fixed rate, then bisection.
/// The fixed-rate phase counts as the first tested rate; 0 when no
/// tested rate met the limit.
fn search_max_rate(
    server: &Server,
    workload: &Workload,
    seconds: f64,
    fixed: &[Outcome],
    next_index: &mut usize,
) -> (f64, Vec<Step>) {
    let step_s = seconds / SEARCH_STEPS as f64;
    let mut steps = Vec::new();
    let mut pass = judge(WARM_RATE, fixed).pass.then_some(WARM_RATE);
    let mut fail: Option<f64> = None;
    let mut rate = WARM_RATE * SEARCH_START;
    for _ in 0..SEARCH_STEPS {
        let outcomes = open_step(server, workload, rate, step_s, next_index);
        let step = judge(rate, &outcomes);
        if step.pass {
            pass = Some(rate);
        } else {
            fail = Some(rate);
        }
        steps.push(step);
        rate = match (pass, fail) {
            (Some(p), Some(f)) => (p * f).sqrt(),
            (Some(p), None) => p.max(rate) * RAMP,
            (None, Some(f)) => f / RAMP,
            (None, None) => unreachable!("a step either passes or fails"),
        };
    }
    (pass.unwrap_or(0.0), steps)
}

/// The measured phase's outcome.
struct Measured {
    /// Requests whose latency the end-to-end metrics use.
    outcomes: Vec<Outcome>,
    /// Phase length the throughput divides by.
    seconds: f64,
    max_rate: Option<f64>,
    steps: Vec<Step>,
}

fn measure(server: &Server, workload: &Workload, seconds: f64) -> Measured {
    match workload.kind.clients() {
        Some(clients) => {
            let first_seen = FirstSeen::default();
            let outcomes = http::closed_loop(
                server.addr,
                workload,
                clients,
                Duration::from_secs_f64(seconds),
                &first_seen,
            );
            let elapsed = outcomes.iter().map(|o| o.done).fold(seconds, f64::max);
            Measured {
                outcomes,
                seconds: elapsed,
                max_rate: None,
                steps: Vec::new(),
            }
        }
        None => {
            let fixed_s = seconds * FIXED_SHARE;
            let mut next_index = 0;
            let outcomes = open_step(server, workload, WARM_RATE, fixed_s, &mut next_index);
            let (max_rate, steps) = search_max_rate(
                server,
                workload,
                seconds - fixed_s,
                &outcomes,
                &mut next_index,
            );
            let span = outcomes.iter().map(|o| o.done).fold(fixed_s, f64::max);
            Measured {
                outcomes,
                seconds: span,
                max_rate: Some(max_rate),
                steps,
            }
        }
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<ExitCode, String> {
    let host = host_block(args.seed);
    println!("host {}", json(&host));
    let workload = Workload::new(args.kind, args.seed);

    // Set-up, several times: launch, /healthz, warm-up requests.
    let warmup = workload.warmup();
    let mut setup_s = Vec::new();
    let mut warm_outcomes: Vec<Outcome> = Vec::new();
    let mut first_seen_ms: Vec<f64> = Vec::new();
    let mut server = None;
    let repeats = if warmup.is_empty() {
        SETUP_REPEATS_BARE
    } else {
        SETUP_REPEATS_WARM
    };
    for repeat in 0..repeats {
        let started = Instant::now();
        let launched = Server::launch(&args.server)?;
        // One connection, so each new job's first request is timed
        // without another warm-up request beside it.
        let first_seen = FirstSeen::default();
        let answered = http::closed_list(launched.addr, &warmup, 1, &first_seen);
        setup_s.push(started.elapsed().as_secs_f64());
        first_seen_ms.extend(
            answered
                .iter()
                .filter(|o| o.first_seen && o.ok())
                .map(Outcome::round_trip_ms),
        );
        if repeat + 1 == repeats {
            warm_outcomes = answered;
            server = Some(launched);
        } else {
            launched.shutdown();
        }
    }
    let server = server.expect("at least one set-up");

    let before = server.metrics()?;
    let measured = measure(&server, &workload, args.seconds);
    let rss_mb = server.peak_rss_mb()?;
    let deltas = Deltas(before, server.metrics()?);
    let census_reqs: Vec<Req> = gen::census().into_iter().map(Req::census).collect();
    let census = http::closed_list(server.addr, &census_reqs, OPEN_CONNS, &FirstSeen::default());
    server.shutdown();

    // ---- correctness
    let mut problems: Vec<String> = Vec::new();
    let profile_moved = deltas.get("xmem_profile_runs_total");
    if args.kind == Kind::WarmPoll && profile_moved != 0.0 {
        problems.push(format!(
            "warm-repeat invariant broken: profile_runs moved by {profile_moved} during the \
             measured phase of warm-poll (every job was warmed during set-up)"
        ));
    }
    let everything: Vec<&Outcome> = warm_outcomes
        .iter()
        .chain(&measured.outcomes)
        .chain(&census)
        .collect();
    let mut keys: Vec<(String, usize)> = warm_outcomes
        .iter()
        .chain(&measured.outcomes)
        .filter(|o| o.req.route != Route::Healthz)
        .map(|o| (o.req.key(), o.req.reference_jobs()))
        .collect();
    keys.sort();
    keys.dedup();
    let mut rng = gen::Rng::new(args.seed ^ 0xC4EC_C4EC);
    rng.shuffle(&mut keys);
    let mut budget = CHECK_JOB_BUDGET;
    let sample: Vec<String> = keys
        .into_iter()
        .filter(|(_, jobs)| {
            let take = *jobs <= budget;
            if take {
                budget -= jobs;
            }
            take
        })
        .map(|(k, _)| k)
        .collect();
    let census_keys: Vec<String> = census_reqs.iter().map(Req::key).collect();
    let report = check::check(&everything, &sample, &census_keys, CHECK_THREADS);
    if let Some(first) = &report.first_mismatch {
        problems.push(format!(
            "{} wrong answer(s); first mismatching request:\n{first}",
            report.wrong
        ));
    }
    let census_refs: Vec<&Outcome> = census.iter().collect();
    let (mre_pct, pef_pct, scored) = check::accuracy(&census_refs, CHECK_THREADS);

    let transport_or_status = everything.iter().filter(|o| !o.ok()).count();
    let attempted = everything.len();
    let failed = transport_or_status + report.wrong;

    // ---- end-to-end metrics
    let ok: Vec<&Outcome> = measured.outcomes.iter().filter(|o| o.ok()).collect();
    let latencies = sorted(ok.iter().map(|o| o.latency_ms()));
    let (tail_pct, tail_ms) = tail(&latencies);
    let throughput = ok.len() as f64 / measured.seconds;
    let first_seen_ms = if workload.kind == Kind::WarmPoll {
        sorted(first_seen_ms)
    } else {
        sorted(ok.iter().filter(|o| o.first_seen).map(|o| o.latency_ms()))
    };
    let setup = quantile(&sorted(setup_s.iter().copied()), 0.5);
    let max_rate = measured.max_rate.unwrap_or(throughput);

    print_shape(&workload, &measured.outcomes);
    eprintln!(
        "{}: {} requests measured ({} ok), {} attempted in all, {} failed \
         ({} wrong answers of {} checked); census {} jobs scored",
        args.workload,
        measured.outcomes.len(),
        ok.len(),
        attempted,
        failed,
        report.wrong,
        report.checked,
        scored
    );
    for step in &measured.steps {
        eprintln!(
            "  rate step {:8.1} req/s: p99 {:8.2} ms, {}/{} answered, backlog {} -> {}",
            step.rate,
            step.p99_ms,
            step.answered,
            step.sent,
            if step.growing { "growing" } else { "steady" },
            if step.pass { "pass" } else { "fail" }
        );
    }
    let late = sorted(measured.outcomes.iter().map(|o| (o.sent - o.due) * 1e3));
    println!(
        "latency_tail_ms is p{tail_pct} over {} samples ({} beyond it); the generator sent \
         p50 {:.3} ms / p99 {:.3} ms after the due time; sim_runs moved by {} in the measured \
         phase; failed_frac {:.6}",
        latencies.len(),
        (latencies.len() as f64 * (1.0 - tail_pct / 100.0)).round(),
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        deltas.get("xmem_sim_runs_total"),
        failed as f64 / attempted.max(1) as f64
    );

    let metrics: Vec<Metric> = if args.trace {
        per_layer(args, &measured, &deltas, &report, quantile(&late, 0.99))?
    } else {
        vec![
            ("setup_s", setup, "s"),
            ("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
            ("latency_tail_ms", tail_ms, "ms"),
            ("max_rate_rps", max_rate, "req/s"),
            ("throughput_per_s", throughput, "req/s"),
            ("first_seen_p50_ms", quantile(&first_seen_ms, 0.5), "ms"),
            ("rss_mb", rss_mb, "MB"),
            ("mre_pct", mre_pct, "%"),
            ("pef_pct", pef_pct, "%"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    for problem in &problems {
        eprintln!("servebench: FAILED: {problem}");
    }
    let correct = problems.is_empty();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        let entry = vec![
                            ("value".to_string(), Value::F64(value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ];
                        (name.to_string(), Value::Object(entry))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json(&result));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Prints the workload's shape (independent of the seed by design).
fn print_shape(workload: &Workload, outcomes: &[Outcome]) {
    let n = outcomes.len().max(1) as f64;
    let shares: Vec<(String, Value)> = ROUTES
        .iter()
        .map(|&r| {
            let count = outcomes.iter().filter(|o| o.req.route == r).count();
            (r.name().to_string(), Value::F64(count as f64 / n))
        })
        .collect();
    let first = outcomes.iter().filter(|o| o.first_seen).count() as f64 / n;
    let shape = Value::Object(vec![
        ("universe".into(), Value::U64(workload.jobs.len() as u64)),
        ("requests".into(), Value::U64(outcomes.len() as u64)),
        ("first_seen_share".into(), Value::F64(first)),
        ("route_shares".into(), Value::Object(shares)),
    ]);
    println!("shape {}", json(&shape));
}

// ------------------------------------------------------------ per layer

fn per_layer(
    args: &Args,
    measured: &Measured,
    deltas: &Deltas,
    report: &check::CheckReport,
    late_p99_ms: f64,
) -> Result<Vec<Metric>, String> {
    // Replay the measured requests in send order in a child process, so
    // the served request log (on by default) can go to /dev/null there.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "replay",
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start the replay: {e}"))?;
    {
        let mut stdin = child.stdin.take().expect("stdin is piped");
        let mut list = String::new();
        for o in &measured.outcomes {
            list.push_str(&format!("{} {}\n", o.stream, o.index));
        }
        stdin
            .write_all(list.as_bytes())
            .map_err(|e| format!("feed the replay: {e}"))?;
    }
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out)
        .map_err(|e| format!("read the replay: {e}"))?;
    let status = child
        .wait()
        .map_err(|e| format!("wait for the replay: {e}"))?;
    if !status.success() {
        return Err(format!("the replay failed ({status})"));
    }
    let replay: Value =
        serde_json::from_str(out.trim()).map_err(|e| format!("replay output: {e}"))?;
    let field = |name: &str| -> f64 {
        replay
            .as_object()
            .and_then(|o| serde::obj_get(o, name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let layer = |name: &str| -> f64 {
        replay
            .as_object()
            .and_then(|o| serde::obj_get(o, "layers"))
            .and_then(Value::as_object)
            .and_then(|o| serde::obj_get(o, name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let count = |name: &str| -> f64 {
        replay
            .as_object()
            .and_then(|o| serde::obj_get(o, "counts"))
            .and_then(Value::as_object)
            .and_then(|o| serde::obj_get(o, name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let route_us = |route: Route| -> f64 {
        replay
            .as_object()
            .and_then(|o| serde::obj_get(o, "service_us"))
            .and_then(Value::as_object)
            .and_then(|o| serde::obj_get(o, route.name()))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let n = field("requests").max(1.0);
    let per_req_us = |ns: f64| ns / n / 1e3;
    let untraced_us = per_req_us(field("untraced_ns"));
    let traced_us = per_req_us(field("request_ns"));
    let ok: Vec<&Outcome> = measured.outcomes.iter().filter(|o| o.ok()).collect();
    let round_trip_us = mean(
        &ok.iter()
            .map(|o| o.round_trip_ms() * 1e3)
            .collect::<Vec<_>>(),
    );
    let socket_us = round_trip_us - untraced_us;

    let ledger_rows: Vec<(&str, f64)> = [
        "wire.parse",
        "api.decode",
        "api.handle",
        "executor.hop",
        "service",
        "runtime.profile",
        "core.analyze",
        "core.simulate",
        "api.render",
        "telemetry.finish",
        "wire.encode",
    ]
    .into_iter()
    .map(|name| (name, per_req_us(layer(name))))
    .collect();
    let explained: f64 = ledger_rows.iter().map(|(_, us)| us).sum();
    let unexplained = 1.0 - explained / traced_us;
    let overhead = traced_us / untraced_us - 1.0;
    println!("per-layer ledger, {n} requests replayed in process (self time per request):");
    println!(
        "  {:<18} {:>12} {:>7} {:>8}",
        "layer", "self", "share", "spans"
    );
    println!(
        "  {:<18} {:>12} {:>7} {:>8}",
        "server.socket",
        format!("{socket_us:.2} us"),
        "-",
        ok.len()
    );
    for (name, us) in &ledger_rows {
        println!(
            "  {name:<18} {:>12} {:>6.1}% {:>8}",
            format!("{us:.2} us"),
            100.0 * us / traced_us,
            count(name)
        );
    }
    println!(
        "  untraced request {untraced_us:.2} us, traced {traced_us:.2} us, HTTP round trip \
         {round_trip_us:.2} us"
    );

    let d = |s: &str| deltas.get(s);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let stage_hits = d("xmem_stage_cache_events_total{event=\"hit\"}");
    let stage_lookups = stage_hits + d("xmem_stage_cache_events_total{event=\"miss\"}");
    let sim_hits = d("xmem_sim_cache_events_total{event=\"hit\"}");
    let sim_lookups = sim_hits + d("xmem_sim_cache_events_total{event=\"miss\"}");
    let timings = &report.timings;
    let avg = |f: fn(&check::RefTiming) -> f64| mean(&timings.iter().map(f).collect::<Vec<_>>());
    let ok_count = ok.len() as f64;
    Ok(vec![
        ("server.socket_us", socket_us, "us"),
        ("wire.parse_us", per_req_us(layer("wire.parse")), "us"),
        ("wire.encode_us", per_req_us(layer("wire.encode")), "us"),
        ("api.decode_us", per_req_us(layer("api.decode")), "us"),
        ("api.handle_us", per_req_us(layer("api.handle")), "us"),
        ("api.render_us", per_req_us(layer("api.render")), "us"),
        ("executor.hop_us", per_req_us(layer("executor.hop")), "us"),
        (
            "executor.refused",
            d("xmem_http_responses_total{code=\"503\"}"),
            "count",
        ),
        (
            "telemetry.finish_us",
            per_req_us(layer("telemetry.finish")),
            "us",
        ),
        (
            "service.estimate_default_us",
            route_us(Route::EstimateDefault),
            "us",
        ),
        (
            "service.estimate_named_us",
            route_us(Route::EstimateNamed),
            "us",
        ),
        ("service.best_device_us", route_us(Route::BestDevice), "us"),
        ("service.matrix_us", route_us(Route::Matrix), "us"),
        ("service.sweep_ms", route_us(Route::Sweep) / 1e3, "ms"),
        ("service.plan_ms", route_us(Route::Plan) / 1e3, "ms"),
        (
            "service.profile_runs",
            d("xmem_profile_runs_total"),
            "count",
        ),
        ("service.sim_runs", d("xmem_sim_runs_total"), "count"),
        (
            "service.fast_path_hits",
            d("xmem_sim_fast_path_hits_total"),
            "count",
        ),
        (
            "service.full_replays",
            d("xmem_sim_full_replays_total"),
            "count",
        ),
        (
            "service.sweep_param_replays",
            d("xmem_sim_param_replays_total"),
            "count",
        ),
        (
            "service.sweep_incremental_cells",
            d("xmem_sim_incremental_cells_total"),
            "count",
        ),
        ("cache.stage_lookups", stage_lookups, "count"),
        (
            "cache.stage_hit_ratio",
            ratio(stage_hits, stage_lookups),
            "ratio",
        ),
        (
            "cache.stage_evictions",
            d("xmem_stage_cache_events_total{event=\"evict\"}"),
            "count",
        ),
        (
            "cache.admission_denied",
            d("xmem_cache_admission_denied_total{cache=\"stage\"}"),
            "count",
        ),
        ("cache.entry_kb", avg(|t| t.entry_kb), "KiB"),
        (
            "singleflight.coalesced",
            d("xmem_flight_coalesced_total"),
            "count",
        ),
        ("simcache.lookups", sim_lookups, "count"),
        ("simcache.hit_ratio", ratio(sim_hits, sim_lookups), "ratio"),
        ("runtime.profile_ms", avg(|t| t.profile_ms), "ms"),
        (
            "runtime.trace_events",
            avg(|t| t.trace_events as f64),
            "count",
        ),
        ("core.analyze_ms", avg(|t| t.analyze_ms), "ms"),
        ("core.simulate_ms", avg(|t| t.simulate_ms), "ms"),
        ("ledger.unexplained_frac", unexplained, "ratio"),
        ("trace.overhead_frac", overhead, "ratio"),
        ("loadgen.late_p99_ms", late_p99_ms, "ms"),
        ("loadgen.sent", measured.outcomes.len() as f64, "count"),
        ("loadgen.ok", ok_count, "count"),
        (
            "loadgen.failed",
            measured.outcomes.len() as f64 - ok_count,
            "count",
        ),
    ])
}

/// The `replay` subcommand: rebuilds the listed requests from the seed
/// and runs the ledger passes (see `ledger.rs`).
fn replay_main(args: &Args) -> Result<ExitCode, String> {
    let workload = Workload::new(args.kind, args.seed);
    let mut measured = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let mut parts = line.split_whitespace();
        let (Some(stream), Some(index)) = (parts.next(), parts.next()) else {
            continue;
        };
        let stream: usize = stream.parse().map_err(|_| "bad stream")?;
        let index: usize = index.parse().map_err(|_| "bad index")?;
        measured.push(workload.request(stream, index));
    }
    let replay = ledger::replay(&workload.warmup(), &measured);
    let layers: Vec<(String, Value)> = replay
        .traced
        .layers
        .iter()
        .map(|(k, v)| (k.to_string(), Value::F64(*v)))
        .collect();
    let counts: Vec<(String, Value)> = replay
        .traced
        .counts
        .iter()
        .map(|(k, v)| (k.to_string(), Value::U64(*v)))
        .collect();
    let service_us: Vec<(String, Value)> = replay
        .traced
        .service_by_route
        .iter()
        .map(|(route, (ns, count))| {
            (
                route.name().to_string(),
                Value::F64(ns / (*count).max(1) as f64 / 1e3),
            )
        })
        .collect();
    let out = Value::Object(vec![
        ("requests".into(), Value::U64(replay.requests as u64)),
        ("request_ns".into(), Value::F64(replay.traced.request_ns)),
        ("untraced_ns".into(), Value::F64(replay.untraced_ns)),
        ("layers".into(), Value::Object(layers)),
        ("counts".into(), Value::Object(counts)),
        ("service_us".into(), Value::Object(service_us)),
    ]);
    println!("{}", json(&out));
    Ok(ExitCode::SUCCESS)
}
