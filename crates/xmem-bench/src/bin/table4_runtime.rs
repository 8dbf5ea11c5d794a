//! Table 4: mean estimator runtime (including input preprocessing — for
//! xMem that is the CPU profiling run; for LLMem the two GPU probe
//! executions; for SchedTune feature extraction + inference).
//!
//! Absolute numbers are not comparable with the paper's Python prototype
//! on real hardware. Campaigns share the service's caches by default;
//! README.md ("Performance") describes `--uncached`, which reproduces
//! the paper's standalone per-record runtimes.

use std::fmt::Write as _;
use xmem_bench::{campaign_records, write_artifact, BenchArgs, Setting};
use xmem_eval::summary::runtime_table;

fn main() {
    let args = BenchArgs::parse();
    println!("Table 4: mean estimator runtime (Monte Carlo campaign)");
    let records = campaign_records(&args, Setting::MonteCarlo);
    let table = runtime_table(&records);
    let mut csv = String::from("estimator,mean_runtime_s\n");
    println!("{:<12} {:>16}", "estimator", "mean runtime (s)");
    for (est, secs) in &table {
        println!("{est:<12} {secs:>16.4}");
        let _ = writeln!(csv, "{est},{secs:.6}");
    }
    write_artifact(&args.out_dir, "table4_runtime.csv", &csv);
    println!("Paper (Python on real traces): DNNMem 33s, SchedTune 2s, LLMem 17s, xMem 26s.");
}
