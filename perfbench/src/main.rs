//! The repository benchmark: one named workload from one seed, measured
//! end to end (`--trace 0`) or split by layer (`--trace 1`). See
//! `perfbench/README.md` for the workloads and what each metric means.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster-serial --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod cluster;
mod probe;
mod serve;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, Metric};
use workload::{Corpus, Workload};

/// Set-up repetitions of a traced run.
const SETUP_REPS: usize = 5;
/// Share of an untraced run spent serving at the reference rate.
const SERVE_SHARE: f64 = 0.15;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (valid: {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The JSON result line. Values print with every digit `f64` holds.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One set-up: generates (and, for file-backed workloads, writes) the
/// corpora into `dir`, and the query pool. Returns them and the seconds
/// it took.
fn set_up(
    w: &Workload,
    seed: u64,
    dir: &Path,
) -> Result<(Vec<Corpus>, Vec<serve::Query>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create work dir: {e}"))?;
    let start = Instant::now();
    let corpora = w
        .generate(seed, dir)
        .map_err(|e| format!("generate corpora: {e}"))?;
    let queries = serve::query_pool(w, seed);
    Ok((corpora, queries, start.elapsed().as_secs_f64()))
}

/// The untraced run: clustering rounds and reference-rate serving
/// alternate until `--seconds` have passed, with one more set-up (timed,
/// then thrown away) before each round. Every figure is a median over
/// the whole run, so a slow spell of the host moves it only if it lasts
/// most of the run.
fn measure(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let (corpora, mut queries, first_gen_s) = set_up(w, args.seed, &dir.join("corpora"))?;
    let start = Instant::now();
    let mut rounds = cluster::Rounds::new(w, args.seed, &corpora, dir);
    rounds.round()?;
    let mut round_s = start.elapsed().as_secs_f64();
    let model = rounds.take_model().ok_or("clustering corpus 0 failed")?;
    let model_path = dir.join("model.cseq");
    let server = serve::start(&model, &model_path, false)?;
    serve::expect_answers(&mut queries, &model_path)?;
    let (mut gen_s, mut prep_s) = (vec![first_gen_s], vec![server.setup_s]);
    let mut load = serve::OpenLoop::new(server.addr())?;
    load.warm_up(&queries);
    let mut windows = Vec::new();
    loop {
        let serve_s = round_s * SERVE_SHARE / (1.0 - SERVE_SHARE);
        let n = (serve_s * serve::REFERENCE_RPS / serve::WINDOW as f64).round();
        windows.extend(load.reference(&queries, n.max(1.0) as usize));
        if start.elapsed() >= budget && rounds.covered() && windows.len() >= serve::MIN_WINDOWS {
            break;
        }
        gen_s.push(set_up(w, args.seed, &dir.join("setup"))?.2);
        let spare = serve::start(&model, &dir.join("spare.cseq"), false)?;
        prep_s.push(spare.setup_s);
        spare.shutdown();
        let round_start = Instant::now();
        rounds.round()?;
        round_s = round_start.elapsed().as_secs_f64();
    }
    server.shutdown();

    let (attempted, failed, correct) = rounds.tally();
    let attempted = attempted + load.attempted;
    let failed = failed + load.failed;
    let metrics = [
        ("setup_s", median(&gen_s) + median(&prep_s), "s"),
        ("cluster_s", rounds.cluster_s(), "s"),
        ("accuracy", rounds.accuracy(), "ratio"),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ("peak_rss_mb", rounds.peak_rss_mb(), "MiB"),
        (
            "serve_p50_ms",
            serve::across(&windows, |w| w.latency_pct(50.0)),
            "ms",
        ),
    ];
    eprintln!(
        "{}: seed {} | {} untraced clustering runs, {} set-ups, {} reference windows of {} at {} rps",
        w.name,
        args.seed,
        rounds.tally().0,
        gen_s.len(),
        windows.len(),
        serve::WINDOW,
        serve::REFERENCE_RPS,
    );
    Ok(result_line(
        correct && load.wrong == 0,
        attempted,
        failed,
        &metrics,
    ))
}

/// The traced run: every corpus clustered untraced and traced once, the
/// model served with the server recording its stages, and the rate search
/// for `client.max_rps`.
fn trace(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut gen_s = Vec::new();
    for _ in 1..SETUP_REPS {
        gen_s.push(set_up(w, args.seed, &dir.join("setup"))?.2);
    }
    let (corpora, mut queries, last_gen_s) = set_up(w, args.seed, &dir.join("corpora"))?;
    gen_s.push(last_gen_s);
    let mut rounds = cluster::Rounds::new(w, args.seed, &corpora, dir);
    let mut metrics = rounds.traced();
    let model = rounds.take_model().ok_or("clustering corpus 0 failed")?;
    let model_path = dir.join("model.cseq");
    let (mut save_s, mut load_s) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            serve::Started::shutdown(old);
        }
        let started = serve::start(&model, &model_path, true)?;
        save_s.push(started.save_s);
        load_s.push(started.load_s);
        server = Some(started);
    }
    let server = server.ok_or("no set-up repetitions")?;
    serve::expect_answers(&mut queries, &model_path)?;
    let served = serve::traced(
        server,
        &queries,
        Duration::from_secs_f64(args.seconds / 2.0),
    )?;

    let (attempted, failed, correct) = rounds.tally();
    let attempted = attempted + served.attempted;
    let failed = failed + served.failed;
    metrics.extend([
        ("datagen.gen_s", median(&gen_s), "s"),
        ("persist.save_s", median(&save_s), "s"),
        ("persist.load_s", median(&load_s), "s"),
        ("failed_frac", failed as f64 / attempted as f64, "ratio"),
        ("client.max_rps", served.max_rps, "1/s"),
    ]);
    metrics.extend(served.layers);
    Ok(result_line(
        correct && served.wrong == 0,
        attempted,
        failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: cluseq-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let dir = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name,
        std::process::id()
    )));
    let result = if args.trace {
        trace(&args, &dir.0)
    } else {
        measure(&args, &dir.0)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
