//! Differential test for adaptive cache tiering: estimation *results*
//! must be bit-identical whether tiering is on (the default) or off.
//! The tuner, frequency sketch, ghost lists, and admission gate only
//! decide **what stays resident** — cached stages are pure functions of
//! the job key, so re-deriving an entry the gate refused (or the tuner
//! squeezed out) reproduces the same bytes.

use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{GpuDevice, TrainJobSpec};
use xmem_service::{DeviceRegistry, EstimationService, ServiceConfig, TieringMode, TraceContext};

/// Deterministic xorshift64* stream, seeding the pseudo-random fleet and
/// query mix identically for both services.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const FLEET_NAMES: [&str; 3] = ["diff-dev-0", "diff-dev-1", "diff-dev-2"];

/// A pseudo-random fleet: raw byte sizes off MiB alignment, capacities
/// always clearing the framework + tenant overheads.
fn pseudo_random_fleet(rng: &mut XorShift) -> Vec<GpuDevice> {
    FLEET_NAMES
        .iter()
        .map(|name| GpuDevice {
            name,
            capacity: 1_500_000_000 + rng.below(18_000_000_000),
            framework_bytes: 500_000_000 + rng.below(90_000_000),
            init_bytes: rng.below(120_000_000),
        })
        .collect()
}

fn service_with(tiering: TieringMode, fleet: &[GpuDevice]) -> EstimationService {
    let registry = DeviceRegistry::empty();
    for device in fleet {
        registry.register(device.name, *device);
    }
    // A deliberately tight, single-sharded cache so evictions, the
    // admission gate, and tuner traffic all actually happen.
    let mut config = ServiceConfig::for_device(GpuDevice::rtx3060())
        .with_registry(registry)
        .with_cache_capacity(4)
        .with_tiering(tiering);
    config.shards = 1;
    EstimationService::new(config)
}

fn spec(batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
}

#[test]
fn adaptive_tiering_is_bit_identical_to_plain_lru_service_results() {
    let mut rng = XorShift(0x9e37_79b9_97f4_a7c1);
    let fleet = pseudo_random_fleet(&mut rng);
    let adaptive = service_with(TieringMode::adaptive(), &fleet);
    let plain = service_with(TieringMode::Off, &fleet);
    assert!(adaptive.stage_tier_stats().adaptive);
    assert!(!plain.stage_tier_stats().segmented);
    let (primary, ctx) = (GpuDevice::rtx3060(), TraceContext::disabled());

    // A pseudo-random query mix over more distinct jobs than the cache
    // holds: single estimates, per-device estimates, sweeps, matrices,
    // and placement decisions, in one interleaved deterministic order.
    for _ in 0..40 {
        let batch = 1 + rng.below(8) as usize;
        match rng.below(5) {
            0 => {
                let a = adaptive.estimate(&spec(batch), primary, &ctx).unwrap();
                let b = plain.estimate(&spec(batch), primary, &ctx).unwrap();
                assert_eq!(a, b, "estimate(batch={batch}) diverged");
            }
            1 => {
                let device = fleet[rng.below(fleet.len() as u64) as usize];
                let a = adaptive.estimate(&spec(batch), device, &ctx).unwrap();
                let b = plain.estimate(&spec(batch), device, &ctx).unwrap();
                assert_eq!(a, b, "named estimate(batch={batch}) diverged");
            }
            2 => {
                let batches = [batch, batch + 1, batch + 3];
                let a = adaptive.sweep(&spec(1), &batches, primary, &ctx);
                let b = plain.sweep(&spec(1), &batches, primary, &ctx);
                for ((b1, e1), (b2, e2)) in a.iter().zip(&b) {
                    assert_eq!(b1, b2);
                    assert_eq!(e1.as_ref().unwrap(), e2.as_ref().unwrap(), "sweep diverged");
                }
            }
            3 => {
                let jobs = [spec(batch)];
                let a = adaptive.estimate_matrix(&jobs, &FLEET_NAMES, &ctx).unwrap();
                let b = plain.estimate_matrix(&jobs, &FLEET_NAMES, &ctx).unwrap();
                assert_eq!(a, b, "matrix(batch={batch}) diverged");
            }
            _ => {
                let a = adaptive.best_device_for_job(&spec(batch), &ctx).unwrap();
                let b = plain.best_device_for_job(&spec(batch), &ctx).unwrap();
                assert_eq!(a, b, "placement(batch={batch}) diverged");
            }
        }
    }

    // The equality above must not be vacuous: the adaptive service's
    // tiering machinery actually ran on this mix.
    let stats = adaptive.cache_stats();
    assert!(
        stats.promoted > 0,
        "re-hit stage entries must have been promoted"
    );
    assert!(
        stats.evictions + stats.admission_denied > 0,
        "the tight cache must have come under pressure"
    );
    let tier = adaptive.stage_tier_stats();
    assert!(tier.segmented && tier.adaptive);
    assert!(tier.entries <= tier.capacity);
    let plain_stats = plain.cache_stats();
    assert_eq!(plain_stats.admission_denied, 0);
    assert_eq!(plain_stats.ghost_hits, 0);
    assert_eq!(
        stats.hits + stats.misses,
        plain_stats.hits + plain_stats.misses,
        "both services saw the same lookup sequence"
    );
}
