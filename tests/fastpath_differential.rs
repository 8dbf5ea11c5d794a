//! The pressure-aware fast-path differential suite: every matrix cell the
//! service produces must be **bit-identical** to the sequential
//! `Estimator` (one full stateful replay per cell) — across roomy fleets
//! (where every cell is derived from one unbounded replay), pressured
//! fleets (where reclaim/OOM divergence forces full replays), and
//! deterministic pseudo-random fleets with page-unaligned capacities. The
//! counters must prove the replay-strategy split exactly:
//! `fast_path_hits + full_replays == sim_runs`, and an all-roomy fleet
//! performs **zero** full replays after the one unbounded replay per job.

use xmem::prelude::*;
use xmem::service::ServiceConfig;

fn job_grid() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 16).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

/// A service whose registry is exactly `fleet`.
fn service_over(fleet: &[(&str, GpuDevice)]) -> EstimationService {
    let registry = DeviceRegistry::empty();
    for &(name, device) in fleet {
        registry.register(name, device);
    }
    EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry))
}

/// The sequential ground truth: a fresh per-device `Estimator` over a
/// fresh profile run, one full stateful replay.
fn sequential(spec: &TrainJobSpec, device: GpuDevice) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

/// Runs the `jobs` × `fleet` matrix on a fresh service, checks every cell
/// against the sequential estimator and the strategy split, and returns
/// the service for further counter checks.
fn assert_matrix_matches_sequential(
    fleet: &[(&str, GpuDevice)],
    jobs: &[TrainJobSpec],
) -> EstimationService {
    let service = service_over(fleet);
    let names: Vec<&str> = fleet.iter().map(|&(name, _)| name).collect();
    let matrix = service
        .estimate_matrix(jobs, &names, &TraceContext::disabled())
        .expect("names resolve");
    for (row, spec) in matrix.rows.iter().zip(jobs) {
        for &(name, device) in fleet {
            assert_eq!(
                row.cell(name).expect("cell").estimate.as_ref().unwrap(),
                &sequential(spec, device),
                "cell ({}, {name}) diverged from the sequential estimator",
                spec.label()
            );
        }
    }

    // The strategy split is exact and exhaustive.
    let stats = service.sim_stats();
    assert_eq!(stats.fast_path_hits + stats.full_replays, stats.sim_runs);
    assert_eq!(stats.sim_runs, (jobs.len() * fleet.len()) as u64);
    service
}

#[test]
fn roomy_fleet_is_identical_with_zero_full_replays() {
    // Odd byte capacities (not MiB-aligned) — roomy, but exercising the
    // page-rounding edge of the qualification check.
    let fleet = [
        (
            "roomy-16",
            GpuDevice {
                name: "diff-roomy-16",
                capacity: (16 << 30) + 12_345_678,
                framework_bytes: 537 << 20,
                init_bytes: 0,
            },
        ),
        (
            "roomy-24",
            GpuDevice {
                name: "diff-roomy-24",
                capacity: (24 << 30) + 999,
                framework_bytes: 544 << 20,
                init_bytes: 64 << 20,
            },
        ),
        ("roomy-a100", GpuDevice::a100_40g()),
    ];
    let jobs = job_grid();
    let stats = assert_matrix_matches_sequential(&fleet, &jobs).sim_stats();
    assert_eq!(
        stats.full_replays, 0,
        "an all-roomy fleet pays no bounded replay at all"
    );
    assert_eq!(stats.unbounded_replays, jobs.len() as u64);
    assert_eq!(stats.fast_path_hits, (jobs.len() * fleet.len()) as u64);
}

#[test]
fn pressured_fleet_splits_strategies_but_never_diverges() {
    // Two devices small enough that DistilGpt2 (and at 16, even the CNN's
    // segment peak) pressures them, plus one roomy device: the same
    // matrix must mix derived and fully replayed cells.
    let fleet = [
        (
            "tiny",
            GpuDevice {
                name: "diff-tiny",
                capacity: (1 << 30) + 777_777,
                framework_bytes: 512 << 20,
                init_bytes: 0,
            },
        ),
        (
            "cramped",
            GpuDevice {
                name: "diff-cramped",
                capacity: (2 << 30) + 55_555,
                framework_bytes: 529 << 20,
                init_bytes: 128 << 20,
            },
        ),
        ("roomy", GpuDevice::a100_40g()),
    ];
    let jobs = job_grid();
    let stats = assert_matrix_matches_sequential(&fleet, &jobs).sim_stats();
    assert!(
        stats.full_replays > 0,
        "pressured devices must pay full replays"
    );
    assert!(
        stats.fast_path_hits > 0,
        "the roomy column must still derive"
    );
    assert_eq!(stats.fast_path_hits + stats.full_replays, stats.sim_runs);
}

#[test]
fn pseudo_random_fleets_are_identical_across_strategies() {
    // Deterministic xorshift over capacities/overheads: many oddly sized
    // fleets, no external RNG dependency in the root test crate.
    const NAMES: [&str; 4] = ["rand-0", "rand-1", "rand-2", "rand-3"];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let jobs = [
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ];
    for _round in 0..4 {
        let fleet: Vec<(&str, GpuDevice)> = NAMES
            .iter()
            .map(|&name| {
                (
                    name,
                    GpuDevice {
                        name: "diff-rand",
                        // 1.4 GB .. ~18 GB, byte-granular.
                        capacity: 1_400_000_000 + next() % 17_000_000_000,
                        framework_bytes: 500_000_000 + next() % 90_000_000,
                        init_bytes: next() % 130_000_000,
                    },
                )
            })
            .collect();
        assert_matrix_matches_sequential(&fleet, &jobs);
    }
}

#[test]
fn placement_and_admission_agree_across_strategies() {
    let fleet = [
        ("rtx3060", GpuDevice::rtx3060()),
        ("rtx4060", GpuDevice::rtx4060()),
        ("a100", GpuDevice::a100_40g()),
    ];
    let service = service_over(&fleet);
    for spec in job_grid() {
        // Best fit, sequentially: the smallest-capacity device whose
        // estimate predicts no OOM (the stable sort keeps registry name
        // order within equal capacities).
        let mut by_capacity = service.registry().snapshot();
        by_capacity.sort_by_key(|&(_, device)| device.capacity);
        let expected = by_capacity.into_iter().find_map(|(device, config)| {
            let estimate = sequential(&spec, config);
            (!estimate.oom_predicted).then_some(DevicePlacement { device, estimate })
        });
        assert_eq!(
            service
                .best_device_for_job(&spec, &TraceContext::disabled())
                .expect("estimates"),
            expected,
            "placement diverged for {}",
            spec.label()
        );
    }
    // The admission answer is the sequential fit/OOM frontier: the
    // reported batch fits and the next one does not.
    let base = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 1).with_iterations(2);
    let device = GpuDevice::rtx4060();
    let max = service
        .max_batch_for_device(&base, device, 1, 64, &TraceContext::disabled())
        .expect("estimates")
        .expect("batch 1 fits");
    assert!(max < 64, "the range must bracket an interior frontier");
    let at = |batch: usize| {
        let mut spec = base.clone();
        spec.batch = batch;
        sequential(&spec, device)
    };
    assert!(!at(max).oom_predicted, "admission answer {max} must fit");
    assert!(at(max + 1).oom_predicted, "batch {} must not fit", max + 1);
}
