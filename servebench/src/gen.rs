//! Seeded workload generation. The server only ever sees the HTTP
//! requests built here; every request is a pure function of
//! `(workload, seed, stream, index)`, so a replay can rebuild exactly the
//! requests a measured run sent.

use serde::Value;
use xmem::models::ModelId;
use xmem::optim::OptimizerKind;
use xmem::runtime::{Precision, TrainJobSpec, ZeroGradPos};
use xmem::service::jobspec::job_to_value;

/// The server's default device (`xmem-cli listen` without `--device`).
pub const DEFAULT_DEVICE: &str = "rtx3060";
/// The other registered devices a named-device request can ask for.
pub const NAMED_DEVICES: [&str; 2] = ["rtx4060", "a100"];

/// SplitMix64: small, fast and stable across toolchains, so a seed means
/// the same inputs on every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent generator for one `(stream, index)` draw.
    pub fn at(seed: u64, stream: u64, index: u64) -> Self {
        let mut mix = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let base = mix.next_u64();
        Rng(base ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a request asks; the route decides the body shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    EstimateDefault,
    EstimateNamed,
    BestDevice,
    Matrix,
    Sweep,
    Plan,
    Healthz,
}

pub const ROUTES: [Route; 7] = [
    Route::EstimateDefault,
    Route::EstimateNamed,
    Route::BestDevice,
    Route::Matrix,
    Route::Sweep,
    Route::Plan,
    Route::Healthz,
];

impl Route {
    pub fn name(self) -> &'static str {
        match self {
            Route::EstimateDefault => "estimate_default",
            Route::EstimateNamed => "estimate_named",
            Route::BestDevice => "best_device",
            Route::Matrix => "matrix",
            Route::Sweep => "sweep",
            Route::Plan => "plan",
            Route::Healthz => "healthz",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Route::EstimateDefault | Route::EstimateNamed => "/v1/estimate",
            Route::BestDevice => "/v1/best-device",
            Route::Matrix => "/v1/matrix",
            Route::Sweep => "/v1/sweep",
            Route::Plan => "/v1/plan",
            Route::Healthz => "/healthz",
        }
    }
}

/// One generated request, with the structured inputs the output check
/// needs to compute the expected answer.
#[derive(Debug, Clone)]
pub struct Req {
    pub route: Route,
    /// Jobs the request names: one for estimate/best-device, the rows of
    /// a matrix, and the family's base job (batch = first grid point)
    /// for sweep/plan.
    pub jobs: Vec<TrainJobSpec>,
    /// Named device (estimate-named, plan).
    pub device: Option<&'static str>,
    /// Batch grid of a sweep, or `[min, max]` of a plan.
    pub batches: Vec<usize>,
    /// JSON body; empty for `GET`.
    pub body: String,
}

impl Req {
    fn new(
        route: Route,
        jobs: Vec<TrainJobSpec>,
        device: Option<&'static str>,
        batches: Vec<usize>,
    ) -> Req {
        let job = |spec: &TrainJobSpec| job_to_value(spec);
        let str_value = |s: &str| Value::Str(s.to_string());
        let numbers = |b: &[usize]| Value::Array(b.iter().map(|&n| Value::U64(n as u64)).collect());
        let body = match route {
            Route::EstimateDefault | Route::BestDevice => job(&jobs[0]),
            Route::EstimateNamed => Value::Object(vec![
                ("job".into(), job(&jobs[0])),
                ("device".into(), str_value(device.expect("named device"))),
            ]),
            Route::Matrix => Value::Object(vec![(
                "jobs".into(),
                Value::Array(jobs.iter().map(job).collect()),
            )]),
            Route::Sweep => Value::Object(vec![
                ("job".into(), job(&jobs[0])),
                ("batches".into(), numbers(&batches)),
            ]),
            Route::Plan => Value::Object(vec![
                ("job".into(), job(&jobs[0])),
                ("device".into(), str_value(device.expect("plan device"))),
                ("min".into(), Value::U64(batches[0] as u64)),
                ("max".into(), Value::U64(batches[1] as u64)),
            ]),
            Route::Healthz => Value::Null,
        };
        let body = if route == Route::Healthz {
            String::new()
        } else {
            serde_json::to_string(&body).expect("value rendering is infallible")
        };
        Req {
            route,
            jobs,
            device,
            batches,
            body,
        }
    }

    pub fn method(&self) -> &'static str {
        if self.route == Route::Healthz {
            "GET"
        } else {
            "POST"
        }
    }

    /// The raw HTTP/1.1 request bytes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "{} {} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            self.method(),
            self.route.path(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// A default-device estimate of `job` (the accuracy census).
    pub fn census(job: TrainJobSpec) -> Req {
        Req::new(Route::EstimateDefault, vec![job], None, vec![])
    }

    /// Jobs the sequential reference profiles to check this answer.
    pub fn reference_jobs(&self) -> usize {
        match self.route {
            Route::Sweep => self.batches.len(),
            Route::Plan => 2,
            Route::Healthz => 0,
            _ => self.jobs.len(),
        }
    }

    /// Identity of the request's answer: identical keys must get
    /// byte-identical answers.
    pub fn key(&self) -> String {
        format!("{} {}", self.route.path(), self.body)
    }
}

fn spec(model: ModelId, optimizer: OptimizerKind, batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(model, optimizer, batch)
}

/// Every `(model, optimizer, grid batch)` of the zoo (the paper's test
/// configurations, 1,074 jobs), grouped by model.
fn zoo_grid_by_model() -> Vec<Vec<TrainJobSpec>> {
    ModelId::all()
        .into_iter()
        .map(|model| {
            let mut jobs = Vec::new();
            for batch in model.info().batch_grid.values() {
                for optimizer in OptimizerKind::all() {
                    jobs.push(spec(model, optimizer, batch));
                }
            }
            jobs
        })
        .collect()
}

/// Seeded order that deals the groups out round-robin (model order and
/// each group's order are shuffled). Any prefix then holds every model
/// about equally often, so the cost mix of a working set or of a Zipf
/// head does not swing with the seed; only which optimizer, batch or
/// variant stands for each model does.
fn stratified<T>(rng: &mut Rng, mut groups: Vec<Vec<T>>) -> Vec<T> {
    rng.shuffle(&mut groups);
    for group in &mut groups {
        rng.shuffle(group);
        group.reverse();
    }
    let mut out = Vec::new();
    while groups.iter().any(|g| !g.is_empty()) {
        for group in &mut groups {
            if let Some(item) = group.pop() {
                out.push(item);
            }
        }
    }
    out
}

/// The accuracy census: each zoo model and optimizer at its grid's
/// smallest and largest batch. Fixed, so `mre_pct`/`pef_pct` compare
/// across seeds and commits.
pub fn census() -> Vec<TrainJobSpec> {
    let mut jobs = Vec::new();
    for model in ModelId::all() {
        let grid = model.info().batch_grid;
        let mut batches = vec![grid.min, grid.max];
        batches.dedup();
        for optimizer in OptimizerKind::all() {
            for &batch in &batches {
                jobs.push(spec(model, optimizer, batch));
            }
        }
    }
    jobs
}

/// Batch-independent job families (every knob but the batch size),
/// grouped by model.
fn families_by_model() -> Vec<Vec<TrainJobSpec>> {
    let mut out = Vec::new();
    for model in ModelId::all() {
        let mut group = Vec::new();
        for iterations in [3, 2] {
            let info = model.info();
            let seqs: Vec<usize> = if info.default_seq == 0 {
                vec![0]
            } else {
                vec![0, 128]
            };
            for optimizer in OptimizerKind::all() {
                for &seq in &seqs {
                    for pos1 in [false, true] {
                        for fp16 in [false, true] {
                            let mut job = spec(model, optimizer, info.batch_grid.min)
                                .with_iterations(iterations);
                            job.seq = seq;
                            if pos1 {
                                job = job.with_zero_grad(ZeroGradPos::IterStart);
                            }
                            if fp16 {
                                job = job.with_precision(Precision::F16);
                            }
                            group.push(job);
                        }
                    }
                }
            }
        }
        out.push(group);
    }
    out
}

fn at_batch(job: &TrainJobSpec, batch: usize) -> TrainJobSpec {
    let mut job = job.clone();
    job.batch = batch;
    job
}

fn grid_of(job: &TrainJobSpec) -> Vec<usize> {
    job.model.info().batch_grid.values()
}

/// The route of request `index` of `stream`: routes are dealt from a
/// deck holding each route's share of slots, reshuffled (seeded) every
/// deck, so every window of a deck's length has the exact mix.
fn pick(seed: u64, stream: usize, index: usize, shares: &[(Route, usize)]) -> Route {
    let len: usize = shares.iter().map(|s| s.1).sum();
    let mut deck: Vec<Route> = shares
        .iter()
        .flat_map(|&(route, slots)| std::iter::repeat_n(route, slots))
        .collect();
    Rng::at(seed ^ 0xDEC4, stream as u64, (index / len) as u64).shuffle(&mut deck);
    deck[index % len]
}

/// The three workloads (see `servebench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarmPoll,
    AdmitChurn,
    PlanSweep,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "warm-poll" => Some(Kind::WarmPoll),
            "admit-churn" => Some(Kind::AdmitChurn),
            "plan-sweep" => Some(Kind::PlanSweep),
            _ => None,
        }
    }

    /// Closed-loop clients; `None` for the open loop.
    pub fn clients(self) -> Option<usize> {
        match self {
            Kind::WarmPoll => None,
            Kind::AdmitChurn => Some(2),
            Kind::PlanSweep => Some(1),
        }
    }
}

/// Warm-poll: jobs in its working set (one per zoo model).
pub const WARM_JOBS: usize = 25;
/// Warm-poll: jobs per `/v1/matrix` request.
const MATRIX_GROUP: usize = 4;
/// Warm-poll: job families that also get a warm sweep (over the grid)
/// and a warm plan (over the grid's range, on `rtx4060`). Fixed, so the
/// slowest warm requests, which set the tail, cost the same on every
/// seed; few, so the working set stays far inside the stage cache, whose
/// 256 entries are split over 16 shards of 16.
const WARM_FAMILIES: [(ModelId, OptimizerKind); 4] = [
    (ModelId::MobileNetV2, OptimizerKind::Adam),
    (ModelId::ResNet101, OptimizerKind::Sgd { momentum: true }),
    (ModelId::DistilGpt2, OptimizerKind::AdamW),
    (ModelId::Gpt2, OptimizerKind::Adam),
];
/// Admit-churn: Zipf exponent of job popularity within a model.
const CHURN_ZIPF_S: f64 = 1.0;

/// Route mixes, as slots in a deck.
/// Warm sweeps and plans are the slowest warm requests; kept rare so the
/// tail is set by the bulk of the traffic and its queueing.
const WARM_SHARES: [(Route, usize); 7] = [
    (Route::EstimateDefault, 268),
    (Route::EstimateNamed, 50),
    (Route::BestDevice, 32),
    (Route::Matrix, 24),
    (Route::Healthz, 24),
    (Route::Sweep, 1),
    (Route::Plan, 1),
];

const CHURN_SHARES: [(Route, usize); 6] = [
    (Route::EstimateDefault, 140),
    (Route::EstimateNamed, 50),
    (Route::BestDevice, 6),
    (Route::Matrix, 2),
    (Route::Sweep, 1),
    (Route::Plan, 1),
];

/// One slot per zoo model (see `Workload::request`).
const PLAN_SHARES: [(Route, usize); 6] = [
    (Route::Plan, 9),
    (Route::Sweep, 9),
    (Route::Matrix, 4),
    (Route::BestDevice, 1),
    (Route::EstimateDefault, 1),
    (Route::EstimateNamed, 1),
];

/// A workload instance: its seeded inputs and request generator.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Jobs the workload draws from (warm set, universe, or families).
    pub jobs: Vec<TrainJobSpec>,
    /// Admit-churn: the universe by model, each in seeded popularity order.
    by_model: Vec<Vec<TrainJobSpec>>,
    /// Warm-poll's catalog of distinct requests (empty otherwise).
    catalog: Vec<Req>,
    /// Catalog indices per route (warm-poll).
    by_route: Vec<(Route, Vec<usize>)>,
    /// Admit-churn: cumulative Zipf weights per model group.
    zipf_cdf: Vec<Vec<f64>>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed ^ 0x5EED_0F5E);
        let mut workload = Workload {
            kind,
            seed,
            jobs: Vec::new(),
            by_model: Vec::new(),
            catalog: Vec::new(),
            by_route: Vec::new(),
            zipf_cdf: Vec::new(),
        };
        match kind {
            Kind::WarmPoll => {
                // One job per model at its grid's smallest batch; the seed
                // picks the optimizer and the order.
                let mut groups = zoo_grid_by_model();
                for group in &mut groups {
                    group.retain(|j| j.batch == j.model.info().batch_grid.min);
                }
                let mut grid = stratified(&mut rng, groups);
                grid.truncate(WARM_JOBS);
                workload.jobs = grid;
                workload.build_catalog();
            }
            Kind::AdmitChurn => {
                // The whole zoo grid (1,074 jobs, about 4x the stage
                // cache). Models are equally popular and jobs are Zipf
                // within a model, so the cost mix of the hot set does not
                // depend on which model the seed ranks first.
                let mut groups = zoo_grid_by_model();
                for group in &mut groups {
                    rng.shuffle(group);
                    let mut total = 0.0;
                    let cdf = (1..=group.len())
                        .map(|rank| {
                            total += 1.0 / (rank as f64).powf(CHURN_ZIPF_S);
                            total
                        })
                        .collect();
                    workload.zipf_cdf.push(cdf);
                }
                workload.jobs = groups.concat();
                workload.by_model = groups;
            }
            Kind::PlanSweep => {
                workload.jobs = stratified(&mut rng, families_by_model());
            }
        }
        workload
    }

    /// Warm-poll's distinct requests, grouped so every job first appears
    /// in its default-device estimate.
    fn build_catalog(&mut self) {
        let mut catalog = Vec::new();
        for job in &self.jobs {
            catalog.push(Req::new(
                Route::EstimateDefault,
                vec![job.clone()],
                None,
                vec![],
            ));
            for device in NAMED_DEVICES {
                catalog.push(Req::new(
                    Route::EstimateNamed,
                    vec![job.clone()],
                    Some(device),
                    vec![],
                ));
            }
            catalog.push(Req::new(Route::BestDevice, vec![job.clone()], None, vec![]));
        }
        for group in self.jobs.chunks(MATRIX_GROUP) {
            catalog.push(Req::new(Route::Matrix, group.to_vec(), None, vec![]));
        }
        for (model, optimizer) in WARM_FAMILIES {
            let grid = model.info().batch_grid.values();
            let base = spec(model, optimizer, grid[0]);
            catalog.push(Req::new(
                Route::Sweep,
                vec![base.clone()],
                None,
                grid.clone(),
            ));
            catalog.push(Req::new(
                Route::Plan,
                vec![base],
                Some(NAMED_DEVICES[0]),
                vec![grid[0], grid[grid.len() - 1]],
            ));
        }
        catalog.push(Req::new(Route::Healthz, vec![], None, vec![]));
        for route in ROUTES {
            let indices: Vec<usize> = (0..catalog.len())
                .filter(|&i| catalog[i].route == route)
                .collect();
            self.by_route.push((route, indices));
        }
        self.catalog = catalog;
    }

    /// Requests answered during set-up, before the measured phase.
    pub fn warmup(&self) -> Vec<Req> {
        self.catalog.clone()
    }

    /// The `index`-th request of `stream` (a closed-loop client, or 0 for
    /// the open loop's schedule).
    pub fn request(&self, stream: usize, index: usize) -> Req {
        let mut rng = Rng::at(self.seed, stream as u64, index as u64);
        match self.kind {
            Kind::WarmPoll => {
                let route = pick(self.seed, stream, index, &WARM_SHARES);
                let (_, indices) = self
                    .by_route
                    .iter()
                    .find(|(r, _)| *r == route)
                    .expect("every route has catalog entries");
                self.catalog[indices[rng.below(indices.len())]].clone()
            }
            Kind::AdmitChurn => {
                let route = pick(self.seed, stream, index, &CHURN_SHARES);
                let job = self.zipf_job(&mut rng);
                self.one_job_request(route, job, &mut rng, |rng| self.zipf_job(rng))
            }
            Kind::PlanSweep => {
                // Every request is a new family; the stream wraps only if
                // a run outlasts the family list. The list deals the 25
                // models round-robin; one seeded 25-slot deck, rotated by
                // one slot per round, gives each round the exact route mix
                // and walks every model through every slot.
                let family = &self.jobs[index % self.jobs.len()];
                let models = ModelId::all().len();
                let slot = (index % models + index / models) % models;
                let route = pick(self.seed, 0, slot, &PLAN_SHARES);
                let grid = grid_of(family);
                let job = at_batch(family, grid[rng.below(grid.len())]);
                let second = at_batch(family, grid[grid.len() - 1]);
                self.one_job_request(route, job, &mut rng, |_| second.clone())
            }
        }
    }

    fn zipf_job(&self, rng: &mut Rng) -> TrainJobSpec {
        let model = rng.below(self.by_model.len());
        let (group, cdf) = (&self.by_model[model], &self.zipf_cdf[model]);
        let x = rng.unit() * cdf[cdf.len() - 1];
        let rank = cdf.partition_point(|&c| c <= x);
        group[rank.min(group.len() - 1)].clone()
    }

    /// Builds a request of `route` around `job`; `second` supplies the
    /// other row of a two-job matrix.
    fn one_job_request(
        &self,
        route: Route,
        job: TrainJobSpec,
        rng: &mut Rng,
        second: impl FnOnce(&mut Rng) -> TrainJobSpec,
    ) -> Req {
        let device = NAMED_DEVICES[rng.below(NAMED_DEVICES.len())];
        let grid = grid_of(&job);
        let base = at_batch(&job, grid[0]);
        match route {
            Route::EstimateDefault | Route::BestDevice => Req::new(route, vec![job], None, vec![]),
            Route::EstimateNamed => Req::new(route, vec![job], Some(device), vec![]),
            Route::Matrix => {
                let other = second(rng);
                let rows = if other == job {
                    vec![job]
                } else {
                    vec![job, other]
                };
                Req::new(route, rows, None, vec![])
            }
            Route::Sweep => Req::new(route, vec![base], None, grid),
            Route::Plan => {
                let range = vec![grid[0], grid[grid.len() - 1]];
                Req::new(route, vec![base], Some(device), range)
            }
            Route::Healthz => Req::new(route, vec![], None, vec![]),
        }
    }
}
