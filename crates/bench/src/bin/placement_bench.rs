//! `placement_bench` — machine-readable Fig. 15d placement timings.
//!
//! Writes `BENCH_placement.json`: the median and fastest per-placement
//! latency of `timeline::place` for routines of 1–10 commands against
//! the paper's resident state (15 devices, 30 scheduled routines), as
//! measured by `experiments::fig15d_insertion::insertion_timing` — the
//! same timer `repro fig15d` prints.
//!
//! Usage:
//! ```text
//! cargo run -p safehome-bench --release --bin placement_bench [out.json]
//! ```

use safehome_bench::experiments::fig15d_insertion::{insertion_timing, COMMANDS, REPS, SAMPLES};
use safehome_bench::support::{available_parallelism, round3};
use safehome_types::json::{obj, Json};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_placement.json".to_string());
    let results = COMMANDS
        .iter()
        .map(|&commands| {
            let t = insertion_timing(commands, SAMPLES, REPS);
            eprintln!(
                "{commands:>3} commands: median {:.2} µs (min {:.2})",
                t.median_us, t.min_us
            );
            obj([
                ("commands", Json::from(commands as u64)),
                ("median_us", Json::Float(round3(t.median_us))),
                ("min_us", Json::Float(round3(t.min_us))),
            ])
        })
        .collect();
    let doc = obj([
        ("benchmark", Json::from("fig15d_insertion")),
        (
            "description",
            Json::from("timeline::place latency, paper resident state (Fig. 15d)"),
        ),
        (
            "resident",
            obj([
                ("devices", Json::from(15u64)),
                ("routines", Json::from(30u64)),
            ]),
        ),
        (
            "available_parallelism",
            Json::from(available_parallelism() as u64),
        ),
        ("unit", Json::from("microseconds per placement")),
        ("samples_per_point", Json::from(SAMPLES as u64)),
        ("placements_per_sample", Json::from(REPS as u64)),
        ("results", Json::Arr(results)),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.to_string_pretty() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
