//! Records the scan-kernel perf trajectory as `BENCH_scan.json`.
//!
//! Times the same grid as the `scan_kernel` Criterion bench under both
//! scan kernels — the interpreted tree walk and the compiled automaton —
//! per probe symbol, and writes one machine-readable JSON file so
//! successive commits can be compared without parsing Criterion's output
//! directory. Every measurement
//! records its median *and* its sample variance, so a regression can be
//! told apart from a noisy run without re-benching.
//!
//! ```sh
//! cargo run --release -p cluseq-bench --bin bench_scan \
//!     [--quick] [--out BENCH_scan.json]
//! ```
//!
//! `--quick` shrinks the probe set and repetition count to a smoke-test
//! size (CI uses it to prove the harness runs; the numbers are noisy).
//! The target trajectory for the full run: the compiled kernel ≥2× over
//! interpreted.

use std::time::Instant;

use cluseq_bench::scan_kernel::{configs, ScanFixture};
use cluseq_bench::{flag_value, peak_rss_bytes, print_table};

/// Median and sample variance (n−1) of a sample; sorted in place.
fn stats(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    };
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    (median, var)
}

/// Median of a sample, discarding the variance.
fn median(xs: Vec<f64>) -> f64 {
    stats(xs).0
}

/// ns/symbol samples for `reps` *interleaved* rounds: each round times
/// one pass of every kernel back to back, so a contention burst on a
/// shared box lands on all kernels of that round instead of skewing
/// whichever kernel owned that stretch of wall clock — the per-kernel
/// medians stay comparable even when the absolute numbers wander.
fn time_rounds(reps: usize, symbols: usize, passes: &[&dyn Fn() -> f64]) -> Vec<Vec<f64>> {
    let mut sink = 0.0;
    let mut samples = vec![Vec::with_capacity(reps); passes.len()];
    for _ in 0..reps {
        for (kernel, pass) in passes.iter().enumerate() {
            let start = Instant::now();
            sink += pass();
            samples[kernel].push(start.elapsed().as_nanos() as f64 / symbols as f64);
        }
    }
    assert!(sink.is_finite() || sink.is_nan(), "keep the passes live");
    samples
}

/// The measured kernels, in display order; `main` pairs each name with
/// its driver closure over the one shared fixture.
const KERNELS: [&str; 2] = ["interpreted", "compiled"];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_scan.json".to_string());
    let (probes, warmup, reps) = if quick { (8, 1, 5) } else { (64, 3, 21) };

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut compiled_speedups = Vec::new();
    for cfg in configs() {
        let fx = ScanFixture::build(cfg, probes);
        let symbols = fx.symbols();
        let passes: [&dyn Fn() -> f64; 2] = [&|| fx.run_interpreted(), &|| fx.run_compiled()];
        for _ in 0..warmup {
            for pass in passes {
                pass();
            }
        }
        let measured: Vec<(f64, f64)> = time_rounds(reps, symbols, &passes)
            .into_iter()
            .map(stats)
            .collect();
        let (interp, compiled) = (measured[0].0, measured[1].0);
        compiled_speedups.push(interp / compiled);
        rows.push(vec![
            cfg.to_string(),
            fx.compiled.state_count().to_string(),
            format!("{interp:.1}"),
            format!("{compiled:.1}"),
            format!("{:.2}x", interp / compiled),
        ]);
        let per_kernel: Vec<String> = KERNELS
            .iter()
            .zip(&measured)
            .map(|(name, (med, var))| {
                format!("\"{name}_ns_per_symbol\": {med:.3}, \"{name}_var\": {var:.4}")
            })
            .collect();
        entries.push(format!(
            "    {{\"config\": \"{cfg}\", \"alphabet\": {}, \"avg_len\": {}, \
             \"states\": {}, {}, \"speedup\": {:.4}}}",
            cfg.alphabet,
            cfg.avg_len,
            fx.compiled.state_count(),
            per_kernel.join(", "),
            interp / compiled,
        ));
    }

    let median_speedup = median(compiled_speedups);
    print_table(
        "scan kernels (median ns/symbol)",
        &["config", "states", "interp", "compiled", "speedup"],
        &rows,
    );
    println!(
        "\nmedian speedup across the grid: compiled {median_speedup:.2}x over interpreted \
         (target >= 2x)"
    );

    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"scan_kernel\",\n  \"unit\": \"ns_per_symbol\",\n  \
         \"quick\": {quick},\n  \"peak_rss_bytes\": {peak_rss},\n  \
         \"median_speedup\": {median_speedup:.4},\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
