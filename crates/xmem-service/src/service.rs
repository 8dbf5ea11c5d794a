//! The concurrent, cache-backed estimation front end — blocking
//! ([`EstimationService`]) and asynchronous ([`AsyncEstimationService`]) —
//! including the multi-device sharded simulation layer (device matrices,
//! batched replay, placement).

use crate::cache::{CacheStats, ShardedLruCache};
use crate::executor::{SubmitError, WorkerPool};
use crate::future::{promise_pair, PoolFuture};
use crate::key::{JobKey, SweepKey};
use crate::persist::{PersistStats, PersistedDevice, Persister, StateRecord};
use crate::registry::DeviceRegistry;
use crate::simcache::{DeviceFingerprint, SimShards, SimStats};
use crate::singleflight::{FlightStats, SingleFlight};
use crate::telemetry::TraceContext;
use crate::tiering::{TierStats, TieringMode};
use crate::timer::DeadlineTimer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xmem_core::{
    AnalyzedTrace, Analyzer, DeviceMatrix, DevicePlacement, Estimate, EstimateError, Estimator,
    EstimatorConfig, MatrixCell, MatrixRow, Orchestrator, ParamReplay, UnboundedReplay,
};
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};
use xmem_trace::Trace;

/// Identity of one simulation cell: which analysis, replayed against
/// which device configuration.
type SimKey = (JobKey, DeviceFingerprint);

/// The memoized (device-independent) front half of the pipeline: the CPU
/// profiler trace and its analysis. Orchestration + simulation are cheap
/// and device-dependent, so they re-run per query.
///
/// The raw trace is retained alongside the analysis so
/// [`EstimationService::stages`] callers can export or re-analyze a
/// profiled job without re-profiling it; estimation itself only reads
/// `analyzed`. Traces dominate an entry's footprint (hundreds of KB to
/// MBs for large models) — size `ServiceConfig::cache_capacity` to the
/// memory budget, or pair it with
/// [`ServiceConfig::with_cache_bytes_budget`].
#[derive(Debug)]
pub struct ProfiledStages {
    /// The raw CPU profiler trace, or `None` for an entry recovered from
    /// persisted state (persistence keeps only the analysis).
    pub trace: Option<Trace>,
    /// The Analyzer's output over that trace.
    pub analyzed: AnalyzedTrace,
}

impl ProfiledStages {
    /// Approximate resident bytes of this entry — what a bytes-budgeted
    /// stage cache charges for it.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        self.trace.as_ref().map_or(0, Trace::approx_bytes) + self.analyzed.approx_bytes()
    }
}

/// One stage-cache entry: the profiled stages, or the Analyzer's error.
/// Both are deterministic in the job key, so a degenerate job's error is
/// cached and served like any other entry.
type StageEntry = Result<Arc<ProfiledStages>, EstimateError>;

/// Weigher pricing stage-cache entries for the optional bytes budget.
fn stages_weight(entry: &StageEntry) -> u64 {
    entry.as_ref().map_or(0, |stages| stages.approx_bytes())
}

/// The cached outcome of one parameterized-replay fit attempt over a
/// batch range: either the proven-exact fit or a remembered rejection
/// (so ineligible families do not re-pay three anchor profiles on every
/// sweep).
#[derive(Debug)]
struct ParamOutcome {
    batch_lo: usize,
    batch_hi: usize,
    fit: Option<Arc<ParamReplay>>,
}

/// Distinct batch points a sweep must span before the incremental path
/// pays the three-anchor fit. Below it the fit cannot win (three anchors
/// profile anyway) and the legacy per-batch path runs.
const MIN_INCREMENTAL_POINTS: usize = 4;

/// Job families whose fit (or rejection) stays cached; a fit is a few
/// hundred KiB, so a small LRU covers realistic scheduler workloads.
const PARAM_CACHE_CAPACITY: usize = 32;

/// Fleet cap on per-device simulation shards: past it, the
/// least-recently-used device shard is retired (counter history
/// preserved). Bounds memory for registries churned programmatically.
const MAX_DEVICE_SHARDS: usize = 64;

/// Configuration of an [`EstimationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The primary device: the target of every query that names no
    /// device ([`EstimationService::device`] with `None`). Like every
    /// other device it simulates under the paper-default
    /// [`EstimatorConfig::for_device`] and caches its cells in its own
    /// simulation shard.
    pub device: GpuDevice,
    /// Total cached `(job key → profiled stages)` entries.
    pub cache_capacity: usize,
    /// Lock shards in the cache.
    pub shards: usize,
    /// Worker threads for [`EstimationService::sweep`] (0 = all cores).
    pub threads: usize,
    /// Named simulation targets for matrix / placement queries
    /// ([`EstimationService::estimate_matrix`],
    /// [`EstimationService::best_device_for_job`]).
    pub registry: DeviceRegistry,
    /// Optional bytes budget over the stage cache: entries are priced by
    /// [`ProfiledStages::approx_bytes`] and evicted LRU-first until the
    /// budget holds. `None` bounds the cache by entry count only.
    pub cache_bytes_budget: Option<u64>,
    /// Optional state directory for crash-consistent persistence: cache
    /// inserts are journaled, snapshots compact the journal, and boot
    /// replays the on-disk state so restarts are warm (see the
    /// `persist` module docs for the on-disk format and recovery
    /// semantics). `None` (default) keeps the service purely in-memory.
    pub state_dir: Option<PathBuf>,
}

impl ServiceConfig {
    /// Service defaults (16-way sharded 256-entry cache, all cores,
    /// built-in device registry) for a target device.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        ServiceConfig {
            device,
            cache_capacity: 256,
            shards: 16,
            threads: 0,
            registry: DeviceRegistry::builtin(),
            cache_bytes_budget: None,
            state_dir: None,
        }
    }

    /// Overrides the device registry (the cluster's fleet description).
    #[must_use]
    pub fn with_registry(mut self, registry: DeviceRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Overrides the cache capacity.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps the stage cache's resident bytes (see
    /// [`cache_bytes_budget`](Self::cache_bytes_budget)).
    #[must_use]
    pub fn with_cache_bytes_budget(mut self, bytes: u64) -> Self {
        self.cache_bytes_budget = Some(bytes);
        self
    }

    /// Enables crash-consistent persistence rooted at `dir` (see
    /// [`state_dir`](Self::state_dir)): the directory is created on
    /// service construction, existing state is recovered, and cache
    /// inserts are journaled from then on.
    #[must_use]
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }
}

/// A shared, thread-safe estimation front end for scheduler-scale traffic.
///
/// The expensive, device-independent stages (CPU profiling and trace
/// analysis) are memoized in a sharded LRU cache keyed by [`JobKey`];
/// each `(job, device)` simulation is memoized in that device's
/// simulation shard. Each question has exactly one method, taking the
/// device it is asked about and the request's [`TraceContext`]. All
/// methods take `&self`, so one service instance can serve many
/// scheduler threads concurrently.
///
/// # Example
///
/// ```
/// use xmem_service::{EstimationService, ServiceConfig, TraceContext};
/// use xmem_runtime::{GpuDevice, TrainJobSpec};
/// use xmem_models::ModelId;
/// use xmem_optim::OptimizerKind;
///
/// let service = EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()));
/// let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
///     .with_iterations(2);
/// let ctx = TraceContext::disabled();
/// let primary = service.device(None).unwrap();
/// let first = service.estimate(&spec, primary, &ctx).unwrap();
/// let second = service.estimate(&spec, primary, &ctx).unwrap(); // served from cache
/// assert_eq!(first, second);
/// assert_eq!(service.cache_stats().hits, 1);
/// assert_eq!(service.sim_runs(), 1, "the repeat is a sim-shard hit");
/// ```
#[derive(Debug)]
pub struct EstimationService {
    config: ServiceConfig,
    /// The profiled stages — or the Analyzer's error — per job key.
    cache: ShardedLruCache<JobKey, StageEntry>,
    /// In-flight dedup: concurrent misses for one key coalesce onto a
    /// single profile/analyze run.
    flights: SingleFlight<JobKey, StageEntry>,
    /// Per-device simulation shards: one LRU of `(job key → estimate)`
    /// per device configuration, fed by the matrix / replay paths. The
    /// registry naming the devices lives in `config.registry` (there is
    /// exactly one copy: `registry()` and `config()` agree by
    /// construction).
    sims: SimShards,
    /// In-flight dedup of simulation cells, mirroring `flights` one level
    /// down: concurrent identical `(analysis, device)` replays coalesce
    /// onto one simulation.
    sim_flights: SingleFlight<SimKey, Estimate>,
    /// The pressure-aware fast path's seed cache: one device-independent
    /// unbounded replay per job key, from which every roomy device's cell
    /// is derived in O(1).
    replays: ShardedLruCache<JobKey, Arc<UnboundedReplay>>,
    /// In-flight dedup of unbounded replays (concurrent cells of one job
    /// on different devices coalesce onto a single replay).
    replay_flights: SingleFlight<JobKey, Arc<UnboundedReplay>>,
    /// The incremental sweep's fit cache: one parameterized replay (or a
    /// remembered rejection) per batch-invariant job family.
    params: ShardedLruCache<SweepKey, Arc<ParamOutcome>>,
    /// In-flight dedup of parameterized-replay fits (concurrent sweeps
    /// over one family coalesce onto one three-anchor fit).
    param_flights: SingleFlight<SweepKey, Option<Arc<ParamOutcome>>>,
    /// Count of actual `profile_on_cpu` executions — the ground truth the
    /// single-flight and cache layers are judged against.
    profiles: AtomicU64,
    /// Crash-consistent persistence engine, present when
    /// [`ServiceConfig::state_dir`] is set and the directory was usable.
    persist: Option<Persister>,
}

impl EstimationService {
    /// Creates a service.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let adaptive = TieringMode::adaptive();
        let mut cache =
            ShardedLruCache::new(config.cache_capacity, config.shards).with_tiering(adaptive);
        if let Some(budget) = config.cache_bytes_budget {
            cache = cache.with_bytes_budget(budget, stages_weight);
        }
        let sims = SimShards::new(config.cache_capacity, config.shards)
            .with_max_devices(MAX_DEVICE_SHARDS);
        let replays =
            ShardedLruCache::new(config.cache_capacity, config.shards).with_tiering(adaptive);
        let mut service = EstimationService {
            config,
            cache,
            flights: SingleFlight::new(),
            sims,
            sim_flights: SingleFlight::new(),
            replays,
            replay_flights: SingleFlight::new(),
            params: ShardedLruCache::new(PARAM_CACHE_CAPACITY, 4).with_tiering(adaptive),
            param_flights: SingleFlight::new(),
            profiles: AtomicU64::new(0),
            persist: None,
        };
        if let Some(dir) = service.config.state_dir.clone() {
            match Persister::open(&dir) {
                Ok((persister, loaded)) => {
                    let (recovered, skipped) = service.import_records(loaded.records);
                    persister.add_recovered(recovered);
                    persister.add_skipped(skipped);
                    service.persist = Some(persister);
                    // Boot compaction: fold the replayed journal into a
                    // fresh snapshot so repeated crash/restart cycles
                    // cannot grow the journal without bound.
                    if let Err(e) = service.snapshot_now() {
                        eprintln!(
                            "xmem-service: boot snapshot in {} failed: {e}",
                            dir.display()
                        );
                    }
                }
                Err(e) => {
                    // A hard I/O failure on the directory itself: serve
                    // cold rather than refuse to start.
                    eprintln!(
                        "xmem-service: state dir {} unusable ({e}); persistence disabled",
                        dir.display()
                    );
                }
            }
        }
        service
    }

    /// Re-applies recovered records to the in-memory caches (without
    /// re-journaling them), returning `(imported, skipped)`. Sim cells
    /// are re-attached by matching their persisted device fingerprint
    /// field-for-field against the boot-time registry; cells for devices
    /// no longer registered are skipped.
    fn import_records(&self, records: Vec<StateRecord>) -> (u64, u64) {
        let mut devices: Vec<GpuDevice> = self
            .config
            .registry
            .snapshot()
            .into_iter()
            .map(|(_, device)| device)
            .collect();
        // The primary device simulates too, even when unregistered.
        devices.push(self.config.device);
        let mut imported = 0u64;
        let mut skipped = 0u64;
        for record in records {
            match record {
                StateRecord::Stage { job, analyzed } => {
                    self.cache.insert(
                        job,
                        Ok(Arc::new(ProfiledStages {
                            trace: None,
                            analyzed,
                        })),
                    );
                    imported += 1;
                }
                StateRecord::Replay { job, replay } => {
                    self.replays.insert(job, Arc::new(replay));
                    imported += 1;
                }
                StateRecord::Sim {
                    device,
                    job,
                    estimate,
                } => {
                    let matched = devices.iter().find(|d| {
                        let fp = DeviceFingerprint::of(d);
                        fp.name == device.name
                            && fp.capacity == device.capacity
                            && fp.framework_bytes == device.framework_bytes
                            && fp.init_bytes == device.init_bytes
                    });
                    if let Some(d) = matched {
                        self.sims.shard(d).insert(job, estimate);
                        imported += 1;
                    } else {
                        skipped += 1;
                    }
                }
                StateRecord::Param { family, replay } => {
                    let (batch_lo, batch_hi) = replay.batch_range();
                    self.params.insert(
                        family,
                        Arc::new(ParamOutcome {
                            batch_lo,
                            batch_hi,
                            fit: Some(Arc::new(replay)),
                        }),
                    );
                    imported += 1;
                }
                StateRecord::Tuner {
                    cache,
                    frac_permille,
                    decay_epoch,
                } => match cache.as_str() {
                    "stage" => {
                        self.cache.restore_learned_state(frac_permille, decay_epoch);
                        imported += 1;
                    }
                    "replay" => {
                        self.replays
                            .restore_learned_state(frac_permille, decay_epoch);
                        imported += 1;
                    }
                    "param" => {
                        self.params
                            .restore_learned_state(frac_permille, decay_epoch);
                        imported += 1;
                    }
                    "sim" => {
                        self.sims.restore_learned_state(frac_permille, decay_epoch);
                        imported += 1;
                    }
                    // A tier this binary does not know about (or a name
                    // from a future version): ignore, don't refuse boot.
                    _ => skipped += 1,
                },
            }
        }
        (imported, skipped)
    }

    /// Every resident cache entry as persistence records, in snapshot
    /// order: stage entries, unbounded replays, sim cells,
    /// parameterized-replay fits, then learned tuner state (each cache
    /// layer LRU-first, so replaying the sequence restores recency).
    /// Newer record variants sort after older ones so binaries that
    /// predate them still recover the whole preceding prefix.
    fn export_records(&self) -> Vec<StateRecord> {
        let mut records = Vec::new();
        // Cached Analyzer errors are not persisted: they are cheap to
        // rediscover (one profile run) and carry no analysis.
        for (job, entry) in self.cache.export() {
            if let Ok(stages) = entry {
                records.push(StateRecord::Stage {
                    job,
                    analyzed: stages.analyzed.clone(),
                });
            }
        }
        for (job, replay) in self.replays.export() {
            records.push(StateRecord::Replay {
                job,
                replay: (*replay).clone(),
            });
        }
        for (fingerprint, cells) in self.sims.export() {
            let device = PersistedDevice {
                name: fingerprint.name.to_owned(),
                capacity: fingerprint.capacity,
                framework_bytes: fingerprint.framework_bytes,
                init_bytes: fingerprint.init_bytes,
            };
            for (job, estimate) in cells {
                records.push(StateRecord::Sim {
                    device: device.clone(),
                    job,
                    estimate,
                });
            }
        }
        for (family, outcome) in self.params.export() {
            // Remembered rejections are not persisted: they are cheap to
            // rediscover and a rejection for one range says nothing
            // about the ranges a restarted service will sweep.
            if let Some(fit) = &outcome.fit {
                records.push(StateRecord::Param {
                    family,
                    replay: (**fit).clone(),
                });
            }
        }
        // Tuner records come last — newest variant, same downgrade
        // convention as `Param` above: older binaries recover the whole
        // preceding prefix and only lose the learned splits.
        let tuners: [(&str, Option<(u32, u64)>); 4] = [
            ("stage", self.cache.learned_state()),
            ("replay", self.replays.learned_state()),
            ("param", self.params.learned_state()),
            ("sim", Some(self.sims.learned_state())),
        ];
        for (cache, state) in tuners {
            if let Some((frac_permille, decay_epoch)) = state {
                records.push(StateRecord::Tuner {
                    cache: cache.to_owned(),
                    frac_permille,
                    decay_epoch,
                });
            }
        }
        records
    }

    /// Writes a snapshot of the current cache state and truncates the
    /// journal. Returns `Ok(false)` when persistence is not enabled.
    ///
    /// # Errors
    /// Propagates I/O failures from the snapshot write.
    pub fn snapshot_now(&self) -> std::io::Result<bool> {
        let Some(persister) = &self.persist else {
            return Ok(false);
        };
        persister.snapshot(&self.export_records())?;
        Ok(true)
    }

    /// Persistence counters and gauges; all-zero (with `enabled: false`)
    /// when no state directory is configured.
    #[must_use]
    pub fn persist_stats(&self) -> PersistStats {
        self.persist
            .as_ref()
            .map_or_else(PersistStats::default, Persister::stats)
    }

    /// Convenience constructor with service defaults for a device.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        EstimationService::new(ServiceConfig::for_device(device))
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Cache hit/miss/insert/evict counters. A fully cached sweep performs
    /// zero re-profiling: its queries all land in `hits`.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counters of the unbounded-replay seed cache (the fast path's
    /// device-independent tier).
    #[must_use]
    pub fn replay_cache_stats(&self) -> CacheStats {
        self.replays.stats()
    }

    /// Counters of the parameterized-replay fit cache (the incremental
    /// sweep's tier).
    #[must_use]
    pub fn param_cache_stats(&self) -> CacheStats {
        self.params.stats()
    }

    /// Tier geometry and occupancy of the stage cache: segment
    /// occupancy, bytes in use vs budget, and the live learned
    /// protected fraction.
    #[must_use]
    pub fn stage_tier_stats(&self) -> TierStats {
        self.cache.tier_stats()
    }

    /// Tier geometry and occupancy of the unbounded-replay cache.
    #[must_use]
    pub fn replay_tier_stats(&self) -> TierStats {
        self.replays.tier_stats()
    }

    /// Tier geometry and occupancy of the parameterized-replay fit cache.
    #[must_use]
    pub fn param_tier_stats(&self) -> TierStats {
        self.params.tier_stats()
    }

    /// Tier geometry and occupancy aggregated across the live per-device
    /// simulation shards.
    #[must_use]
    pub fn sim_tier_stats(&self) -> TierStats {
        self.sims.tier_stats()
    }

    /// Single-flight counters: leader executions vs coalesced followers.
    #[must_use]
    pub fn flight_stats(&self) -> FlightStats {
        self.flights.stats()
    }

    /// How many times `profile_on_cpu` actually ran. Under any mix of
    /// cache hits and coalesced concurrent queries, this is at most one
    /// per distinct [`JobKey`] still covered by the cache/flight layers.
    #[must_use]
    pub fn profile_runs(&self) -> u64 {
        self.profiles.load(Ordering::Relaxed)
    }

    /// The device registry backing matrix / placement queries (the same
    /// instance [`config`](Self::config) carries).
    ///
    /// Read freely; to *replace* a device's configuration prefer
    /// [`register_device`](Self::register_device), which also retires the
    /// old configuration's cached simulation results.
    #[must_use]
    pub fn registry(&self) -> &DeviceRegistry {
        &self.config.registry
    }

    /// Registers (or reconfigures) a named simulation target. Replacing a
    /// device with a *different* configuration invalidates exactly that
    /// configuration's simulation shard — every other device keeps its
    /// warm entries, and the device-independent analysis cache is never
    /// touched. Returns the previous configuration for `name`, if any.
    ///
    /// Two names registered with an *identical* configuration share one
    /// simulation shard; the shard is only invalidated once no remaining
    /// name maps to the old configuration.
    pub fn register_device(&self, name: &str, device: GpuDevice) -> Option<GpuDevice> {
        let replaced = self.registry().register(name, device);
        if let Some(old) = replaced {
            let old_fingerprint = DeviceFingerprint::of(&old);
            // An alias registered with the same config still owns the
            // shard — dropping it would evict a live device's entries.
            let still_referenced = self
                .registry()
                .snapshot()
                .iter()
                .any(|(_, d)| DeviceFingerprint::of(d) == old_fingerprint);
            if old != device && !still_referenced {
                self.sims.invalidate(&old_fingerprint);
            }
        }
        replaced
    }

    /// Counters of the per-device simulation layer: aggregated shard
    /// hit/miss stats, executed simulations, live device shards, and
    /// entries dropped by device reconfiguration.
    ///
    /// Together with [`profile_runs`](Self::profile_runs) these prove the
    /// batched-replay contract: a cold M-jobs × D-devices matrix costs
    /// exactly M analyses and M × D simulations.
    #[must_use]
    pub fn sim_stats(&self) -> SimStats {
        self.sims.stats()
    }

    /// How many allocator simulations actually executed, on every route
    /// and every device (the primary device included) — shorthand for
    /// [`sim_stats`](Self::sim_stats)`.sim_runs`. A repeated identical
    /// query leaves it unchanged.
    #[must_use]
    pub fn sim_runs(&self) -> u64 {
        self.sims.stats().sim_runs
    }

    /// The device a query is asked about: `None` is the primary device
    /// ([`ServiceConfig::device`]), a name must be registered.
    ///
    /// # Errors
    /// [`EstimateError::UnknownDevice`] for an unregistered name.
    pub fn device(&self, name: Option<&str>) -> Result<GpuDevice, EstimateError> {
        match name {
            None => Ok(self.config.device),
            Some(name) => self
                .registry()
                .get(name)
                .ok_or_else(|| EstimateError::UnknownDevice(name.to_string())),
        }
    }

    /// The memoized profile+analysis stages for `spec`, computing them on
    /// a cache miss. Cache hits, single-flight coalescing, and the
    /// profile/analyze stages record spans into `ctx`.
    ///
    /// Concurrent misses for the same key are **single-flighted**: one
    /// caller profiles, the rest block on its result. An Analyzer
    /// failure is as deterministic in the job key as a success, so it is
    /// cached the same way: a degenerate job profiles once, and its
    /// repeats are stage-cache hits answering the same error.
    ///
    /// # Errors
    /// Propagates Analyzer failures for degenerate jobs (possibly from
    /// the cache).
    pub fn stages(
        &self,
        spec: &TrainJobSpec,
        ctx: &TraceContext,
    ) -> Result<Arc<ProfiledStages>, EstimateError> {
        let key = JobKey::of(spec);
        if let Some(hit) = self.cache.get(&key) {
            ctx.event("cache.stage", "hit");
            return hit;
        }
        ctx.event("cache.stage", "miss");
        let mut leader = false;
        let result = self.flights.run(&key, || {
            leader = true;
            // Winning leadership races a just-retired flight for the same
            // key: its leader published before retiring, so re-check the
            // cache before paying for a profile run.
            if let Some(hit) = self.cache.peek(&key) {
                return hit;
            }
            self.profiles.fetch_add(1, Ordering::Relaxed);
            let trace = {
                let _span = ctx.span("stage.profile");
                profile_on_cpu(spec)
            };
            let mut analyze = ctx.span("stage.analyze");
            let entry = Analyzer::new().analyze(&trace).map(|analyzed| {
                Arc::new(ProfiledStages {
                    trace: Some(trace),
                    analyzed,
                })
            });
            analyze.set_outcome(if entry.is_ok() { "ok" } else { "error" });
            drop(analyze);
            self.cache.insert(key.clone(), entry.clone());
            if let (Ok(stages), Some(persister)) = (&entry, &self.persist) {
                persister.append(&StateRecord::Stage {
                    job: key.clone(),
                    analyzed: stages.analyzed.clone(),
                });
                ctx.event("persist.journal", "stage");
            }
            entry
        });
        if !leader {
            ctx.event("flight.stage", "coalesced");
        }
        result
    }

    /// Estimates `spec`'s peak GPU memory on `device`: the primary
    /// device, a registered one (see [`device`](Self::device)), or any
    /// explicit configuration. The analysis comes from the stage cache
    /// and the simulation from `device`'s shard, so a repeat — or a cell
    /// an earlier matrix, sweep or placement query filled — costs no
    /// profiling and no simulation. Results are bit-identical to a
    /// sequential [`Estimator`] over [`EstimatorConfig::for_device`]:
    /// profiling and analysis are deterministic in the job key, and the
    /// simulation runs identically on both paths.
    ///
    /// # Errors
    /// Propagates Analyzer failures for degenerate jobs.
    pub fn estimate(
        &self,
        spec: &TrainJobSpec,
        device: GpuDevice,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        let stages = self.stages(spec, ctx)?;
        Ok(self.simulate_on(&JobKey::of(spec), &stages, device, false, ctx))
    }

    /// Replays already-analyzed stages against one device, through the
    /// per-device simulation shard, under the paper-default
    /// [`EstimatorConfig::for_device`] for `device`.
    ///
    /// **Pressure-aware fast path**: the job replays *once* on an
    /// unbounded simulator (cached per [`JobKey`]), and any device whose
    /// usable capacity covers that replay's segment peak derives its cell
    /// in O(1) — only capacity-pressured devices, where reclaim/OOM can
    /// diverge, pay a full stateful replay. Either way the cell is
    /// bit-identical (see [`SimStats::fast_path_hits`] /
    /// [`SimStats::full_replays`](crate::SimStats::full_replays) for the
    /// split).
    ///
    /// `seed` chooses how that unbounded replay is obtained. Fan-out
    /// queries (matrix, placement) pass `true` and compute it up front,
    /// so every roomy device of the fan-out derives from it.
    /// Single-device queries (estimates, sweep points, admission probes)
    /// pass `false`: they use a seed some other query cached but never
    /// compute one — an unbounded replay followed by a pressured bounded
    /// replay costs ~2× — so a new cell costs exactly one replay. That
    /// bounded replay still leaves a seed behind, for free, whenever it
    /// never touched the device's capacity
    /// ([`Estimator::estimate_and_replay`]).
    ///
    /// Concurrent identical cells single-flight onto one simulation;
    /// repeats hit the device's shard.
    fn simulate_on(
        &self,
        key: &JobKey,
        stages: &ProfiledStages,
        device: GpuDevice,
        seed: bool,
        ctx: &TraceContext,
    ) -> Estimate {
        if let Some(hit) = self.sims.shard(&device).get(key) {
            ctx.event("cache.sim", "hit");
            return hit;
        }
        let sim_key = (key.clone(), DeviceFingerprint::of(&device));
        let mut leader = false;
        let estimate = self.sim_flights.run(&sim_key, || {
            leader = true;
            // Re-fetch the shard inside the flight — same re-check as
            // `stages`: a just-retired flight for this cell published
            // before retiring.
            if let Some(hit) = self.sims.shard(&device).peek(key) {
                return hit;
            }
            let mut replay_span = ctx.span("sim.replay");
            let estimator = Estimator::new(EstimatorConfig::for_device(device));
            let replay = if seed {
                Some(self.unbounded_replay(key, stages, &estimator, ctx))
            } else {
                self.replays.peek(key)
            };
            let derived = replay.and_then(|replay| estimator.derive_from_replay(&replay));
            self.sims.count_run();
            let estimate = match derived {
                Some(estimate) => {
                    self.sims.count_fast_path();
                    replay_span.set_outcome("fast-path");
                    estimate
                }
                None => {
                    self.sims.count_full_replay();
                    replay_span.set_outcome("full-replay");
                    let (estimate, replay) = estimator.estimate_and_replay(&stages.analyzed);
                    if let Some(replay) = replay {
                        self.keep_replay(key, Arc::new(replay), ctx);
                    }
                    estimate
                }
            };
            drop(replay_span);
            self.keep_cell(&device, key, &estimate);
            estimate
        });
        if !leader {
            ctx.event("cache.sim", "coalesced");
        }
        estimate
    }

    /// Inserts one cell into `device`'s shard, journaling it when
    /// persistence is enabled. The shard is fetched here, *after* the
    /// (possibly multi-ms) replay that produced the cell: a concurrent
    /// `register_device` invalidation or fleet-cap eviction during the
    /// replay would detach an earlier handle, and inserting into a
    /// detached shard loses the entry and its counter deltas. A
    /// detachment landing in the tiny window between this fetch and the
    /// insert still only costs a recomputation — stale entries are never
    /// *served*, because lookups are fingerprint-keyed.
    fn keep_cell(&self, device: &GpuDevice, key: &JobKey, estimate: &Estimate) {
        self.sims
            .shard(device)
            .insert(key.clone(), estimate.clone());
        if let Some(persister) = &self.persist {
            let fingerprint = DeviceFingerprint::of(device);
            persister.append(&StateRecord::Sim {
                device: PersistedDevice {
                    name: fingerprint.name.to_owned(),
                    capacity: fingerprint.capacity,
                    framework_bytes: fingerprint.framework_bytes,
                    init_bytes: fingerprint.init_bytes,
                },
                job: key.clone(),
                estimate: estimate.clone(),
            });
        }
    }

    /// The cached unbounded replay for `key`, computed (and
    /// single-flighted) on first use. `estimator` only contributes its
    /// orchestrator/allocator configuration, which is identical for every
    /// device ([`EstimatorConfig::for_device`]), so replays are shared
    /// across devices.
    fn unbounded_replay(
        &self,
        key: &JobKey,
        stages: &ProfiledStages,
        estimator: &Estimator,
        ctx: &TraceContext,
    ) -> Arc<UnboundedReplay> {
        if let Some(hit) = self.replays.get(key) {
            return hit;
        }
        self.replay_flights.run(key, || {
            if let Some(hit) = self.replays.peek(key) {
                return hit;
            }
            let _span = ctx.span("sim.unbounded");
            self.sims.count_unbounded();
            let replay = Arc::new(estimator.replay_unbounded(&stages.analyzed));
            self.keep_replay(key, Arc::clone(&replay), ctx);
            replay
        })
    }

    /// Caches `replay` as `key`'s fast-path seed, journaling it when
    /// persistence is enabled.
    fn keep_replay(&self, key: &JobKey, replay: Arc<UnboundedReplay>, ctx: &TraceContext) {
        self.replays.insert(key.clone(), Arc::clone(&replay));
        if let Some(persister) = &self.persist {
            persister.append(&StateRecord::Replay {
                job: key.clone(),
                replay: (*replay).clone(),
            });
            ctx.event("persist.journal", "replay");
        }
    }

    /// The parameterized replay proven over `[lo, hi]` for `base`'s job
    /// family, fitting (and caching) it on first use. `points` is how
    /// many distinct batches the caller will probe in that range: below
    /// [`MIN_INCREMENTAL_POINTS`] the three-anchor fit cannot win, so the
    /// caller keeps the per-batch path. `None` also means the family is
    /// ineligible: the fit was rejected (the delta model could not be
    /// proven exact), or an anchor failed to profile — callers fall back
    /// to the per-batch path, where errors surface per-cell.
    fn param_for(
        &self,
        base: &TrainJobSpec,
        lo: usize,
        hi: usize,
        points: usize,
        ctx: &TraceContext,
    ) -> Option<Arc<ParamReplay>> {
        if points < MIN_INCREMENTAL_POINTS || lo == 0 {
            return None;
        }
        let family = SweepKey::of(base);
        let covering =
            |outcome: &Arc<ParamOutcome>| outcome.batch_lo <= lo && hi <= outcome.batch_hi;
        if let Some(hit) = self.params.get(&family) {
            if covering(&hit) {
                return hit.fit.clone();
            }
        }
        let outcome = self.param_flights.run(&family, || {
            if let Some(hit) = self.params.peek(&family) {
                if covering(&hit) {
                    return Some(hit);
                }
            }
            let mut fit_span = ctx.span("sweep.param_fit");
            fit_span.set_outcome("rejected");
            // Three anchors pin the affine size model: the endpoints fit
            // it, the midpoint validates it (plus full structural
            // identity across all three). Anchor profiles go through the
            // normal stage cache, so they are shared, journaled, and
            // counted like any other profile run — and they fan out
            // across the worker threads, so the fit costs one wall-clock
            // profile (the largest anchor), not three.
            let mid = lo + (hi - lo) / 2;
            let anchors: Vec<(usize, Arc<ProfiledStages>)> = self
                .parallel_fill(3, |i| {
                    let batch = [lo, mid, hi][i];
                    self.stages(&with_batch(base, batch), ctx)
                        .ok()
                        .map(|stages| (batch, stages))
                })
                .into_iter()
                .collect::<Option<Vec<_>>>()?;
            let refs: Vec<(usize, &AnalyzedTrace)> = anchors
                .iter()
                .map(|(batch, stages)| (*batch, &stages.analyzed))
                .collect();
            // Every device orchestrates under the paper default, so one
            // fit serves them all.
            let fit = ParamReplay::fit(&Orchestrator::default(), &refs)
                .ok()
                .map(Arc::new);
            if fit.is_some() {
                self.sims.count_param_replay();
                fit_span.set_outcome("fit");
            }
            drop(fit_span);
            let outcome = Arc::new(ParamOutcome {
                batch_lo: lo,
                batch_hi: hi,
                fit,
            });
            self.params.insert(family.clone(), Arc::clone(&outcome));
            if let (Some(fit), Some(persister)) = (&outcome.fit, &self.persist) {
                persister.append(&StateRecord::Param {
                    family: family.clone(),
                    replay: (**fit).clone(),
                });
                ctx.event("persist.journal", "param");
            }
            Some(outcome)
        });
        outcome.and_then(|outcome| outcome.fit.clone())
    }

    /// One single-device probe cell — a sweep point or an admission
    /// probe — through `device`'s shard. A new cell pays exactly one
    /// bounded replay: materialized from `param` when the range has a
    /// fit, otherwise replayed from the batch's own analysis.
    fn probe(
        &self,
        base: &TrainJobSpec,
        batch: usize,
        device: GpuDevice,
        param: Option<&ParamReplay>,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        let spec = with_batch(base, batch);
        let key = JobKey::of(&spec);
        let Some(param) = param else {
            let stages = self.stages(&spec, ctx)?;
            return Ok(self.simulate_on(&key, &stages, device, false, ctx));
        };
        if let Some(hit) = self.sims.shard(&device).get(&key) {
            ctx.event("cache.sim", "hit");
            return Ok(hit);
        }
        self.sims.count_run();
        self.sims.count_incremental();
        ctx.event("sim.incremental", "cell");
        let estimate = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_buffer(&param.materialize(batch), param.stats_for(batch));
        self.keep_cell(&device, &key, &estimate);
        Ok(estimate)
    }

    /// The locally cached simulation cell for `spec` on `device`, if
    /// present. Cluster nodes use this to serve a non-owned request
    /// locally when a forwarded result already filled the cell, without
    /// re-forwarding.
    #[must_use]
    pub fn cached_cell_estimate(&self, spec: &TrainJobSpec, device: GpuDevice) -> Option<Estimate> {
        self.sims.shard(&device).get(&JobKey::of(spec))
    }

    /// Fills the local simulation cell for `spec` on `device` with an
    /// estimate computed elsewhere (a forwarded cluster response),
    /// journaling it like any locally computed cell. Returns whether the
    /// cell was newly filled — `false` for an already-present cell (which
    /// is never overwritten: cells are deterministic, and the incumbent
    /// was journaled first).
    pub fn fill_sim_cell(
        &self,
        spec: &TrainJobSpec,
        device: GpuDevice,
        estimate: Estimate,
    ) -> bool {
        let key = JobKey::of(spec);
        if self.sims.shard(&device).peek(&key).is_some() {
            return false;
        }
        self.keep_cell(&device, &key, &estimate);
        true
    }

    /// Batched replay: estimates every job in `specs` on every named
    /// device, running the expensive profile + analyze stages **once per
    /// distinct job** and fanning the cached analyses out to concurrent
    /// per-device allocator simulations ("1 analysis, N simulations" —
    /// provable via [`profile_runs`](Self::profile_runs) and
    /// [`sim_stats`](Self::sim_stats)).
    ///
    /// Cells land in the per-device simulation shards, so a later
    /// [`estimate`](Self::estimate) for any cell is a cache hit. Every
    /// cell is bit-identical to a sequential [`Estimator::estimate_job`]
    /// against [`EstimatorConfig::for_device`] of its device.
    ///
    /// Per-job analysis failures are carried in the affected cells;
    /// matrix-level failure is reserved for unresolvable device names.
    ///
    /// # Errors
    /// [`EstimateError::UnknownDevice`] naming the first unknown device.
    ///
    /// # Example
    ///
    /// ```
    /// use xmem_service::{EstimationService, TraceContext};
    /// use xmem_runtime::{GpuDevice, TrainJobSpec};
    /// use xmem_models::ModelId;
    /// use xmem_optim::OptimizerKind;
    ///
    /// let service = EstimationService::for_device(GpuDevice::rtx3060());
    /// let jobs = [TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
    ///     .with_iterations(2)];
    /// let matrix = service
    ///     .estimate_matrix(&jobs, &["rtx3060", "rtx4060"], &TraceContext::disabled())
    ///     .unwrap();
    /// assert_eq!(matrix.num_cells(), 2);
    /// assert_eq!(service.profile_runs(), 1, "one analysis");
    /// assert_eq!(service.sim_runs(), 2, "two simulations");
    /// ```
    pub fn estimate_matrix(
        &self,
        specs: &[TrainJobSpec],
        devices: &[&str],
        ctx: &TraceContext,
    ) -> Result<DeviceMatrix, EstimateError> {
        let resolved = self.registry().resolve(devices)?;
        let jobs = specs.len();
        // Column-major issue order: the first `jobs` work items cover
        // every job once, so distinct analyses profile in parallel;
        // later columns replay them from cache.
        let mut columns: Vec<Option<Result<Estimate, EstimateError>>> = self
            .parallel_fill(jobs * resolved.len(), |c| {
                let (device_index, job_index) = (c / jobs.max(1), c % jobs.max(1));
                let spec = &specs[job_index];
                self.stages(spec, ctx).map(|stages| {
                    self.simulate_on(
                        &JobKey::of(spec),
                        &stages,
                        resolved[device_index],
                        true,
                        ctx,
                    )
                })
            })
            .into_iter()
            .map(Some)
            .collect();

        let device_names: Vec<String> = devices.iter().map(|&d| d.to_string()).collect();
        let rows = specs
            .iter()
            .enumerate()
            .map(|(job_index, spec)| MatrixRow {
                spec: spec.clone(),
                cells: device_names
                    .iter()
                    .enumerate()
                    .map(|(device_index, name)| MatrixCell {
                        device: name.clone(),
                        estimate: columns[device_index * jobs + job_index]
                            .take()
                            .expect("one output per cell"),
                    })
                    .collect(),
            })
            .collect();
        Ok(DeviceMatrix {
            devices: device_names,
            rows,
        })
    }

    /// Placement: the best registered device for `spec` — the
    /// smallest-capacity device whose estimate predicts no OOM (best fit:
    /// big devices stay free for jobs that need them), with ties broken
    /// by registry name order. `Ok(None)` when no registered device fits
    /// (or the registry is empty).
    ///
    /// Runs one analysis and at most one simulation per device; all of it
    /// lands in the shared caches.
    ///
    /// # Errors
    /// Propagates Analyzer failures — an estimation error is an error,
    /// never a "does not fit" verdict.
    pub fn best_device_for_job(
        &self,
        spec: &TrainJobSpec,
        ctx: &TraceContext,
    ) -> Result<Option<DevicePlacement>, EstimateError> {
        let mut fleet = self.registry().snapshot();
        if fleet.is_empty() {
            return Ok(None);
        }
        let stages = self.stages(spec, ctx)?;
        let key = JobKey::of(spec);
        // Smallest capacity first (the stable sort keeps the snapshot's
        // name order within equal capacities, preserving the tie-break),
        // so the first fit is the answer — a small job on a large fleet
        // costs one simulation, not one per device.
        fleet.sort_by_key(|&(_, device)| device.capacity);
        for (name, device) in fleet {
            let estimate = self.simulate_on(&key, &stages, device, true, ctx);
            if !estimate.oom_predicted {
                return Ok(Some(DevicePlacement {
                    device: name,
                    estimate,
                }));
            }
        }
        Ok(None)
    }

    fn worker_count(&self, work_items: usize) -> usize {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            self.config.threads
        };
        threads.min(work_items).max(1)
    }

    /// Fans `count` independent work items out across the service's
    /// worker threads (the shared scaffold under [`sweep`](Self::sweep)
    /// and [`estimate_matrix`](Self::estimate_matrix)): `work(i)` runs
    /// once per index, and outputs come back in index order.
    fn parallel_fill<T: Send>(&self, count: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.worker_count(count);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    *results[i].lock().expect("parallel slot poisoned") = Some(work(i));
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("parallel slot poisoned")
                    .expect("every slot is filled")
            })
            .collect()
    }

    /// Estimates `base` at every batch size in `batches` on `device`,
    /// fanning the grid out across worker threads. Results are in
    /// `batches` order, and every cell lands in `device`'s shard, so a
    /// repeated sweep — or a later [`estimate`](Self::estimate) of any
    /// point — simulates nothing.
    ///
    /// A qualifying sweep (≥ 4 distinct batches) takes the **incremental
    /// path**: three anchor batches profile and pin one parameterized
    /// replay, and every cell — anchors included — is materialized from
    /// it in ~O(events) with no further profiling. The fit is proven
    /// exact before use, so cells are bit-identical to the per-batch
    /// path, which everything else falls back to: per-model work
    /// (profile + analysis of each distinct batch) is then shared
    /// through the cache, so concurrent and repeated sweeps reuse it.
    pub fn sweep(
        &self,
        base: &TrainJobSpec,
        batches: &[usize],
        device: GpuDevice,
        ctx: &TraceContext,
    ) -> Vec<(usize, Result<Estimate, EstimateError>)> {
        let mut distinct = batches.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let (lo, hi) = (
            distinct.first().copied().unwrap_or(0),
            distinct.last().copied().unwrap_or(0),
        );
        let param = self.param_for(base, lo, hi, distinct.len(), ctx);
        let estimates = self.parallel_fill(batches.len(), |i| {
            self.probe(base, batches[i], device, param.as_deref(), ctx)
        });
        batches.iter().copied().zip(estimates).collect()
    }

    /// Admission control: the largest batch in `[lo, hi]` whose estimate
    /// fits `device` without a predicted OOM, or `Ok(None)` when even `lo`
    /// does not fit.
    ///
    /// A coarse parallel sweep first brackets the fit/OOM frontier (warming
    /// the cache), then bisection pins it down; probe batches hit both
    /// shared cache layers (the analysis cache and `device`'s simulation
    /// shard) on repeat queries — including repeats for *other* devices,
    /// which reuse the analyses and pay only for their own simulations.
    ///
    /// # Panics
    /// Panics unless `1 <= lo <= hi`.
    ///
    /// # Errors
    /// Propagates the first Analyzer failure hit by a probe — an
    /// estimation error is an error, never a "does not fit" verdict.
    pub fn max_batch_for_device(
        &self,
        base: &TrainJobSpec,
        device: GpuDevice,
        lo: usize,
        hi: usize,
        ctx: &TraceContext,
    ) -> Result<Option<usize>, EstimateError> {
        assert!(lo >= 1 && lo <= hi, "invalid batch range [{lo}, {hi}]");

        // A wide-enough range rides one parameterized replay: every
        // probe — bracket and bisection alike — materializes from it, so
        // the whole admission query costs three anchor profiles. Probes
        // simulate under `EstimatorConfig::for_device(device)` either
        // way, so the bisection walks identical estimates and lands on
        // the identical answer.
        let param = self.param_for(base, lo, hi, hi - lo + 1, ctx);
        let param = param.as_deref();

        // Coarse bracket: a parallel sweep over an evenly spaced grid
        // warms the cache and narrows the frontier. The grid is capped —
        // on many-core hosts an uncapped grid would degenerate into an
        // exhaustive profile of the whole range, where bracket + bisect
        // needs only a handful of probes.
        let points = self.worker_count(usize::MAX).min(MAX_BRACKET_POINTS);
        let grid = coarse_grid(lo, hi, points);
        let probes = self.parallel_fill(grid.len(), |i| {
            self.probe(base, grid[i], device, param, ctx)
        });
        let mut coarse = Vec::with_capacity(grid.len());
        for (&batch, estimate) in grid.iter().zip(probes) {
            coarse.push((batch, !estimate?.oom_predicted));
        }
        if !coarse.first().map(|&(_, fits)| fits).unwrap_or(false) {
            return Ok(None);
        }
        let mut lo = coarse
            .iter()
            .rev()
            .find(|&&(_, fits)| fits)
            .map(|&(b, _)| b)
            .unwrap_or(lo);
        let mut hi = coarse
            .iter()
            .find(|&&(_, fits)| !fits)
            .map(|&(b, _)| b - 1)
            .unwrap_or(hi);

        // Bisect the remaining bracket; probes land in the shared caches.
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if !self.probe(base, mid, device, param, ctx)?.oom_predicted {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Ok(Some(lo))
    }
}

/// Configuration of an [`AsyncEstimationService`].
#[derive(Debug, Clone)]
pub struct AsyncServiceConfig {
    /// The underlying blocking service (caches, primary device, sweep threads).
    pub service: ServiceConfig,
    /// Worker threads answering submitted queries (0 = all cores).
    pub workers: usize,
    /// Bound on queued-but-unclaimed submissions; a full queue makes
    /// `submit` fail fast with [`SubmitError::Busy`].
    pub queue_depth: usize,
}

impl AsyncServiceConfig {
    /// Async defaults for a device: service defaults, all-core workers,
    /// a 1024-deep submission queue.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        AsyncServiceConfig {
            service: ServiceConfig::for_device(device),
            workers: 0,
            queue_depth: 1024,
        }
    }

    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the submission-queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Overrides the underlying service's device registry (the cluster's
    /// fleet description).
    #[must_use]
    pub fn with_registry(mut self, registry: DeviceRegistry) -> Self {
        self.service = self.service.with_registry(registry);
        self
    }

    /// Enables crash-consistent persistence on the underlying service
    /// (see [`ServiceConfig::with_state_dir`]).
    #[must_use]
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.service = self.service.with_state_dir(dir);
        self
    }
}

/// The asynchronous estimation front end: a scheduler event loop submits
/// queries and receives [`PoolFuture`]s, instead of burning a blocked
/// thread per in-flight question.
///
/// Queries are answered by a fixed, channel-fed worker pool over a shared
/// [`EstimationService`], so everything the blocking service guarantees
/// carries over: estimates are bit-identical to the sequential
/// [`Estimator`](xmem_core::Estimator), concurrent identical queries
/// single-flight onto one profile run, and a degenerate job's cached
/// error answers its repeats.
///
/// Three controls make it safe under scheduler-scale load:
/// * **Backpressure** — the submission queue is bounded; a full queue
///   fails fast with [`SubmitError::Busy`] instead of queueing without
///   bound.
/// * **Cancellation** — [`PoolFuture::cancel`] resolves the future to
///   [`EstimateError::Cancelled`]; a job cancelled before a worker claims
///   it never runs at all.
/// * **Per-query deadlines** — [`submit`](Self::submit) takes an
///   optional deadline; an unclaimed job whose deadline passes resolves
///   to [`EstimateError::DeadlineExceeded`] without running.
///
/// # Example
///
/// ```
/// use xmem_service::{block_on, join_all, AsyncEstimationService, TraceContext};
/// use xmem_runtime::{GpuDevice, TrainJobSpec};
/// use xmem_models::ModelId;
/// use xmem_optim::OptimizerKind;
///
/// let service = AsyncEstimationService::for_device(GpuDevice::rtx3060());
/// let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
///     .with_iterations(2);
/// // Submit a herd of identical admission checks on the primary device...
/// let futures: Vec<_> = (0..16)
///     .map(|_| {
///         let spec = spec.clone();
///         service
///             .submit(None, &TraceContext::disabled(), move |service, ctx| {
///                 service.estimate(&spec, service.device(None)?, ctx)
///             })
///             .expect("queue has room")
///     })
///     .collect();
/// // ...and drive them all from one thread.
/// let estimates = block_on(join_all(futures));
/// assert!(estimates.windows(2).all(|w| w[0] == w[1]));
/// // The herd coalesced onto a single CPU profile.
/// assert_eq!(service.service().profile_runs(), 1);
/// ```
#[derive(Debug)]
pub struct AsyncEstimationService {
    service: Arc<EstimationService>,
    pool: WorkerPool,
    /// Actively settles deadline-carrying futures at their due time, so
    /// `.await`-ing consumers are not at the mercy of the next pool
    /// completion.
    timer: DeadlineTimer,
}

impl AsyncEstimationService {
    /// Creates an async front end with its own underlying service.
    #[must_use]
    pub fn new(config: AsyncServiceConfig) -> Self {
        let workers = config.workers;
        let queue_depth = config.queue_depth;
        let service = Arc::new(EstimationService::new(config.service));
        AsyncEstimationService::from_service(service, workers, queue_depth)
    }

    /// Convenience constructor with async defaults for a device.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        AsyncEstimationService::new(AsyncServiceConfig::for_device(device))
    }

    /// Wraps an existing (possibly shared) blocking service — the async
    /// and blocking front ends then share one cache and single-flight
    /// table. `workers` = 0 uses all cores.
    #[must_use]
    pub fn from_service(
        service: Arc<EstimationService>,
        workers: usize,
        queue_depth: usize,
    ) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            workers
        };
        AsyncEstimationService {
            service,
            pool: WorkerPool::new(workers, queue_depth),
            timer: DeadlineTimer::new(),
        }
    }

    /// The underlying blocking service (shared cache and counters).
    #[must_use]
    pub fn service(&self) -> &EstimationService {
        &self.service
    }

    /// Worker threads answering queries.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Submits one query: `query` runs on a pool worker against the
    /// shared service, under `ctx`, and the returned future resolves to
    /// its answer. Every question takes this one path — the closure names
    /// the question and its device (see the type-level example).
    ///
    /// Queue wait records as a `pool.queue` span and worker execution as
    /// `service.call`; every pipeline stage the query touches records
    /// under the same trace id. If `deadline` passes first, a dedicated
    /// timer thread settles the future with
    /// [`EstimateError::DeadlineExceeded`] — `.await`-ing consumers are
    /// woken at the deadline, not at the next pool completion — and, when
    /// no worker had claimed the job yet, `query` never runs. The pool
    /// settles the future even if `query` panics (it resolves to
    /// [`EstimateError::Internal`]) and the worker thread survives.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the bounded submission queue is full;
    /// resolve some in-flight futures and retry.
    pub fn submit<T, F>(
        &self,
        deadline: Option<Instant>,
        ctx: &TraceContext,
        query: F,
    ) -> Result<PoolFuture<Result<T, EstimateError>>, SubmitError>
    where
        T: Clone + Send + 'static,
        F: FnOnce(&EstimationService, &TraceContext) -> Result<T, EstimateError> + Send + 'static,
    {
        let ctx = ctx.clone();
        let queue = ctx.span("pool.queue");
        let service = Arc::clone(&self.service);
        let (promise, future) = promise_pair(deadline);
        self.pool.try_execute_settling(promise, move || {
            drop(queue);
            let mut call = ctx.span("service.call");
            let result = query(&service, &ctx);
            call.set_outcome(if result.is_ok() { "ok" } else { "error" });
            result
        })?;
        // Only accepted, deadline-carrying submissions are watched.
        self.timer.watch(&future);
        Ok(future)
    }

    /// Panics that escaped a raw pool job and were caught by the worker
    /// loop (see [`WorkerPool::panics`]). Queries submitted through this
    /// front end convert panics into [`EstimateError::Internal`] results
    /// instead, so they never appear here.
    #[must_use]
    pub fn pool_panics(&self) -> u64 {
        self.pool.panics()
    }
}

/// Upper bound on coarse-bracket probes in
/// [`EstimationService::max_batch_for_device`].
const MAX_BRACKET_POINTS: usize = 16;

fn with_batch(base: &TrainJobSpec, batch: usize) -> TrainJobSpec {
    let mut spec = base.clone();
    spec.batch = batch;
    spec
}

/// An evenly spaced probe grid covering `[lo, hi]`, endpoints included.
fn coarse_grid(lo: usize, hi: usize, points: usize) -> Vec<usize> {
    if hi == lo {
        return vec![lo];
    }
    let points = points.clamp(2, hi - lo + 1);
    let mut grid: Vec<usize> = (0..points)
        .map(|i| lo + (hi - lo) * i / (points - 1))
        .collect();
    grid.dedup();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;

    fn small_spec(batch: usize) -> TrainJobSpec {
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
    }

    #[test]
    fn estimate_matches_sequential_path() {
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let spec = small_spec(8);
        let from_service = service
            .estimate(&spec, device, &TraceContext::disabled())
            .unwrap();
        let sequential = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_job(&spec)
            .unwrap();
        assert_eq!(from_service, sequential);
        let stages = service.stages(&spec, &TraceContext::disabled()).unwrap();
        let trace = stages
            .trace
            .as_ref()
            .expect("the stage cache keeps the raw trace");
        assert_eq!(
            stages.approx_bytes(),
            trace.approx_bytes() + stages.analyzed.approx_bytes(),
            "the retained trace is priced into the entry"
        );
    }

    #[test]
    fn cached_estimate_is_identical_and_counts_a_hit() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let spec = small_spec(8);
        let cold = service
            .estimate(&spec, GpuDevice::rtx3060(), &TraceContext::disabled())
            .unwrap();
        let warm = service
            .estimate(&spec, GpuDevice::rtx3060(), &TraceContext::disabled())
            .unwrap();
        assert_eq!(cold, warm);
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn repeated_sweep_is_fully_cached() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4, 8];
        let first = service.sweep(
            &small_spec(1),
            &batches,
            GpuDevice::rtx3060(),
            &TraceContext::disabled(),
        );
        // The incremental path profiles only its three anchors.
        let insertions_after_first = service.cache_stats().insertions;
        assert_eq!(insertions_after_first, 3);
        assert_eq!(service.sim_stats().param_replays, 1);

        let second = service.sweep(
            &small_spec(1),
            &batches,
            GpuDevice::rtx3060(),
            &TraceContext::disabled(),
        );
        let stats = service.cache_stats();
        assert_eq!(
            stats.insertions, insertions_after_first,
            "a repeated sweep re-profiles nothing"
        );
        assert_eq!(
            service.sim_stats().param_replays,
            1,
            "a repeated sweep reuses the cached fit"
        );
        for ((b1, e1), (b2, e2)) in first.iter().zip(&second) {
            assert_eq!(b1, b2);
            assert_eq!(e1.as_ref().unwrap(), e2.as_ref().unwrap());
        }
    }

    #[test]
    fn short_sweeps_stay_on_the_per_batch_path() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4];
        service.sweep(
            &small_spec(1),
            &batches,
            GpuDevice::rtx3060(),
            &TraceContext::disabled(),
        );
        let stats = service.sim_stats();
        assert_eq!(
            stats.param_replays, 0,
            "three points cannot beat three anchors"
        );
        assert_eq!(stats.incremental_cells, 0);
        assert_eq!(service.profile_runs(), batches.len() as u64);
    }

    #[test]
    fn incremental_sweep_counts_cells_and_keeps_the_invariant() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4, 8, 12, 16];
        let swept = service.sweep(
            &small_spec(1),
            &batches,
            GpuDevice::rtx3060(),
            &TraceContext::disabled(),
        );
        assert!(swept.iter().all(|(_, e)| e.is_ok()));
        let stats = service.sim_stats();
        assert_eq!(stats.param_replays, 1, "one fit per family");
        assert_eq!(stats.incremental_cells, batches.len() as u64);
        assert_eq!(
            stats.fast_path_hits + stats.full_replays + stats.incremental_cells,
            stats.sim_runs
        );
        assert_eq!(service.profile_runs(), 3, "anchors only");
    }

    #[test]
    fn sweep_preserves_input_order() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [8, 1, 4, 2];
        let results = service.sweep(
            &small_spec(1),
            &batches,
            GpuDevice::rtx3060(),
            &TraceContext::disabled(),
        );
        let got: Vec<usize> = results.iter().map(|&(b, _)| b).collect();
        assert_eq!(got, batches);
    }

    #[test]
    fn max_batch_brackets_and_bisects_the_frontier() {
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let base = small_spec(1);
        let max = service
            .max_batch_for_device(&base, device, 1, 16, &TraceContext::disabled())
            .expect("estimation succeeds");
        // MobileNetV3-Small fits this device comfortably across the range.
        assert_eq!(max, Some(16));
        // The answer agrees with direct estimates at the frontier.
        let at_max = service
            .estimate(&with_batch(&base, 16), device, &TraceContext::disabled())
            .unwrap();
        assert!(!at_max.oom_predicted);
    }

    #[test]
    fn single_estimates_pay_one_replay_and_seed_roomy_ones_for_free() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let ctx = TraceContext::disabled();
        let sequential = |spec: &TrainJobSpec, device: GpuDevice| {
            Estimator::new(EstimatorConfig::for_device(device))
                .estimate_job(spec)
                .unwrap()
        };
        // Roomy: the bounded replay is the unbounded one, so it is kept
        // as the seed and the next device derives its cell from it.
        let spec = small_spec(8);
        for device in [GpuDevice::rtx3060(), GpuDevice::a100_40g()] {
            let estimate = service.estimate(&spec, device, &ctx).unwrap();
            assert_eq!(estimate, sequential(&spec, device));
        }
        let stats = service.sim_stats();
        assert_eq!((stats.full_replays, stats.fast_path_hits), (1, 1));
        assert_eq!(
            stats.unbounded_replays, 0,
            "no replay beyond the bounded one"
        );

        // Pressured: the bounded replay ran out of room, so no seed is
        // kept and the roomy device pays its own replay.
        let pressured = GpuDevice {
            name: "test-pressured",
            capacity: (560 << 20) + 777_777,
            framework_bytes: 512 << 20,
            init_bytes: 0,
        };
        let spec = small_spec(4);
        for device in [pressured, GpuDevice::a100_40g()] {
            let estimate = service.estimate(&spec, device, &ctx).unwrap();
            assert_eq!(estimate, sequential(&spec, device));
        }
        let stats = service.sim_stats();
        assert_eq!((stats.full_replays, stats.fast_path_hits), (3, 1));
        assert_eq!(stats.unbounded_replays, 0);
    }

    #[test]
    fn roomy_fleet_serves_every_cell_from_one_unbounded_replay() {
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let jobs = [small_spec(4), small_spec(8)];
        let devices = ["rtx3060", "rtx4060", "a100"];
        let matrix = service
            .estimate_matrix(&jobs, &devices, &TraceContext::disabled())
            .unwrap();
        assert!(matrix
            .rows
            .iter()
            .all(|r| r.cells.iter().all(MatrixCell::fits)));
        let sims = service.sim_stats();
        assert_eq!(sims.sim_runs, (jobs.len() * devices.len()) as u64);
        assert_eq!(
            sims.full_replays, 0,
            "an all-roomy fleet must not pay a single bounded replay"
        );
        assert_eq!(sims.fast_path_hits, sims.sim_runs);
        assert_eq!(
            sims.unbounded_replays,
            jobs.len() as u64,
            "one seed replay per job"
        );
    }

    #[test]
    fn admission_probes_use_but_never_seed_the_replay_cache() {
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let base = small_spec(1);
        service
            .max_batch_for_device(&base, device, 1, 16, &TraceContext::disabled())
            .expect("estimation succeeds");
        let stats = service.sim_stats();
        assert_eq!(
            stats.unbounded_replays, 0,
            "probe keys never repeat, so seeding would be pure overhead"
        );
        // The whole admission query rides one parameterized replay:
        // every probe is an incremental cell, none pays a full replay.
        assert_eq!(stats.param_replays, 1);
        assert_eq!(stats.incremental_cells, stats.sim_runs);
        assert_eq!(stats.full_replays, 0);
        assert_eq!(service.profile_runs(), 3, "three anchors");

        // Matrix cells (a batch no probe touched) still seed as before.
        service
            .estimate_matrix(&[small_spec(24)], &["rtx4060"], &TraceContext::disabled())
            .expect("devices resolve");
        assert_eq!(service.sim_stats().unbounded_replays, 1);
    }

    #[test]
    fn narrow_admission_ranges_keep_the_legacy_probe_path() {
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let max = service
            .max_batch_for_device(&small_spec(1), device, 2, 4, &TraceContext::disabled())
            .expect("estimation succeeds");
        assert_eq!(max, Some(4));
        let stats = service.sim_stats();
        assert_eq!(stats.param_replays, 0, "range too narrow for a fit");
        assert_eq!(stats.full_replays, stats.sim_runs);
    }

    #[test]
    fn cache_bytes_budget_is_wired_through() {
        // A 1-byte budget rejects every (large) stage entry: queries still
        // succeed, but nothing is retained and repeats re-profile.
        let service = EstimationService::new(
            ServiceConfig::for_device(GpuDevice::rtx3060()).with_cache_bytes_budget(1),
        );
        let spec = small_spec(4);
        let first = service
            .estimate(&spec, GpuDevice::rtx3060(), &TraceContext::disabled())
            .unwrap();
        let second = service
            .estimate(&spec, GpuDevice::rtx3060(), &TraceContext::disabled())
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(service.profile_runs(), 2, "nothing could be cached");
        assert!(service.cache_stats().rejected >= 2);
    }

    #[test]
    fn coarse_grid_covers_endpoints() {
        assert_eq!(coarse_grid(1, 9, 3), vec![1, 5, 9]);
        assert_eq!(coarse_grid(4, 4, 8), vec![4]);
        let g = coarse_grid(1, 128, 6);
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 128);
    }
}
