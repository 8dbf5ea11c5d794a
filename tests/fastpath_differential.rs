//! The pressure-aware fast-path differential suite: every matrix cell a
//! fast-path service produces must be **bit-identical** to a service with
//! the fast path forced off (full stateful replays) and to the sequential
//! `Estimator` — across roomy fleets (where every cell is derived from
//! one unbounded replay), pressured fleets (where reclaim/OOM divergence
//! forces full replays), and deterministic pseudo-random fleets with
//! page-unaligned capacities. The counters must prove the replay-strategy
//! split exactly: `fast_path_hits + full_replays == sim_runs`, and an
//! all-roomy fleet performs **zero** full replays after the one unbounded
//! replay per job.

use xmem::prelude::*;
use xmem::service::ServiceConfig;

fn job_grid() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 16).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

/// A pair of services over the same fleet: one with the fast path (the
/// default), one with it forced off.
fn service_pair(fleet: &[(&str, GpuDevice)]) -> (EstimationService, EstimationService) {
    let build = |fast: bool| {
        let registry = DeviceRegistry::empty();
        for &(name, device) in fleet {
            registry.register(name, device);
        }
        EstimationService::new(
            ServiceConfig::for_device(GpuDevice::rtx3060())
                .with_registry(registry)
                .with_fast_path(fast),
        )
    };
    (build(true), build(false))
}

fn assert_matrices_identical(fleet: &[(&str, GpuDevice)], jobs: &[TrainJobSpec]) {
    let (fast, full) = service_pair(fleet);
    let names: Vec<&str> = fleet.iter().map(|&(name, _)| name).collect();
    let fast_matrix = fast
        .estimate_matrix(jobs, &names, &TraceContext::disabled())
        .expect("names resolve");
    let full_matrix = full
        .estimate_matrix(jobs, &names, &TraceContext::disabled())
        .expect("names resolve");
    assert_eq!(
        fast_matrix, full_matrix,
        "fast-path matrix diverged from forced full replays"
    );

    // Cell-level anchor against the sequential estimator (covers the
    // whole pipeline, not just service-vs-service agreement).
    for (row, spec) in fast_matrix.rows.iter().zip(jobs) {
        for (name, device) in fleet {
            let sequential = Estimator::new(EstimatorConfig::for_device(*device))
                .estimate_job(spec)
                .expect("sequential estimate succeeds");
            assert_eq!(
                row.cell(name).expect("cell").estimate.as_ref().unwrap(),
                &sequential,
                "cell ({}, {name}) diverged from the sequential estimator",
                spec.label()
            );
        }
    }

    // The strategy split is exact and exhaustive.
    let stats = fast.sim_stats();
    assert_eq!(stats.fast_path_hits + stats.full_replays, stats.sim_runs);
    let stats = full.sim_stats();
    assert_eq!(stats.fast_path_hits, 0, "disabled fast path must not fire");
    assert_eq!(stats.unbounded_replays, 0);
    assert_eq!(stats.full_replays, stats.sim_runs);
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
    assert_matrices_identical(&fleet, &jobs);

    let (fast, _) = service_pair(&fleet);
    let names: Vec<&str> = fleet.iter().map(|&(n, _)| n).collect();
    fast.estimate_matrix(&jobs, &names, &TraceContext::disabled())
        .expect("names resolve");
    let stats = fast.sim_stats();
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
    assert_matrices_identical(&fleet, &jobs);

    let (fast, _) = service_pair(&fleet);
    let names: Vec<&str> = fleet.iter().map(|&(n, _)| n).collect();
    fast.estimate_matrix(&jobs, &names, &TraceContext::disabled())
        .expect("names resolve");
    let stats = fast.sim_stats();
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
        assert_matrices_identical(&fleet, &jobs);
    }
}

#[test]
fn placement_and_admission_agree_across_strategies() {
    let fleet = [
        ("rtx3060", GpuDevice::rtx3060()),
        ("rtx4060", GpuDevice::rtx4060()),
        ("a100", GpuDevice::a100_40g()),
    ];
    let (fast, full) = service_pair(&fleet);
    for spec in job_grid() {
        assert_eq!(
            fast.best_device_for_job(&spec, &TraceContext::disabled())
                .expect("estimates"),
            full.best_device_for_job(&spec, &TraceContext::disabled())
                .expect("estimates"),
            "placement diverged for {}",
            spec.label()
        );
    }
    let base = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 1).with_iterations(2);
    assert_eq!(
        fast.max_batch_for_device(
            &base,
            GpuDevice::rtx4060(),
            1,
            32,
            &TraceContext::disabled()
        )
        .expect("estimates"),
        full.max_batch_for_device(
            &base,
            GpuDevice::rtx4060(),
            1,
            32,
            &TraceContext::disabled()
        )
        .expect("estimates"),
        "admission-control answer diverged"
    );
}
