//! The clustering phase: short rounds of a few corpora each, cycling
//! through all of them, and (traced) the per-layer split of paired runs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use cluseq_core::checkpoint::Checkpoint;
use cluseq_core::similarity::max_similarity_pst;
use cluseq_core::trace::{Counter, Phase};
use cluseq_core::{
    Cluseq, CluseqOutcome, ClusterAutomaton, IterationRecord, RunObserver, ScanKernel, TraceSession,
};
use cluseq_eval::{Confusion, MatchStrategy};
use cluseq_seq::{SequenceStore, Symbol};

use crate::probe::{
    cpu_seconds, peak_rss_mb, release_free_memory, reset_peak_rss, rss_mb, ProbedStore, StoreCounts,
};
use crate::stats::{median, trimmed_mean, Metric};
use crate::workload::{Backend, Corpus, Workload};

/// The facts of an outcome that must repeat exactly: assignment,
/// memberships, and the final threshold.
fn digest(outcome: &CluseqOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    outcome.assignment().hash(&mut h);
    outcome.membership_lists().hash(&mut h);
    outcome.final_log_t.to_bits().hash(&mut h);
    h.finish()
}

/// Sums the scan's scored pairs, which the similarity estimate needs
/// apart from the seeding and final-sweep pairs.
#[derive(Default)]
struct ScanPairs(u64);

impl RunObserver for ScanPairs {
    fn on_iteration(&mut self, record: &IterationRecord) {
        self.0 += record.scan.pairs_scored;
    }
}

/// Per-layer sums over the corpora of one traced round.
#[derive(Default)]
struct LayerSums {
    corpora: f64,
    wall_s: f64,
    seeding_s: f64,
    seeds_chosen: f64,
    consolidate_s: f64,
    dismissed: f64,
    threshold_s: f64,
    threshold_moves: f64,
    scan_score_s: f64,
    scan_absorb_s: f64,
    joins: f64,
    membership_changes: f64,
    pairs_scored: f64,
    pairs_pruned: f64,
    scan_dp_est_s: f64,
    probe_scan_ns: f64,
    probe_symbols: f64,
    compile_us: f64,
    builds: f64,
    pst_nodes: f64,
    pst_bytes: f64,
    ckpt_save_s: f64,
    ckpt_writes: f64,
    ckpt_bytes: f64,
    ckpt_load_s: f64,
    cpu_s: f64,
    thread_wall_s: f64,
    iterations: f64,
    finalize_s: f64,
    unattributed_s: f64,
    store_calls: f64,
    store_s: f64,
    store_symbols: f64,
    sequence_passes: f64,
}

impl LayerSums {
    fn metrics(&self, overhead_frac: f64) -> Vec<Metric> {
        let k = self.corpora.max(1.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let ns_per_symbol = ratio(self.probe_scan_ns, self.probe_symbols);
        vec![
            ("store.read_calls", self.store_calls / k, "count"),
            ("store.read_s", self.store_s / k, "s"),
            ("store.symbols_read", self.store_symbols / k, "count"),
            (
                "store.reads_per_pass",
                ratio(self.store_calls, self.sequence_passes),
                "ratio",
            ),
            ("seeding.s", self.seeding_s / k, "s"),
            ("seeding.seeds_chosen", self.seeds_chosen / k, "count"),
            ("consolidate.s", self.consolidate_s / k, "s"),
            (
                "consolidate.clusters_dismissed",
                self.dismissed / k,
                "count",
            ),
            ("threshold.s", self.threshold_s / k, "s"),
            ("threshold.moves", self.threshold_moves / k, "count"),
            ("recluster.scan_score_s", self.scan_score_s / k, "s"),
            ("recluster.scan_absorb_s", self.scan_absorb_s / k, "s"),
            ("recluster.joins", self.joins / k, "count"),
            (
                "recluster.membership_changes",
                self.membership_changes / k,
                "count",
            ),
            (
                "recluster.scan_residual_est_s",
                (self.scan_score_s - self.scan_dp_est_s) / k,
                "s",
            ),
            ("similarity.pairs_scored", self.pairs_scored / k, "count"),
            ("similarity.pairs_pruned", self.pairs_pruned / k, "count"),
            (
                "similarity.prune_frac",
                ratio(self.pairs_pruned, self.pairs_scored),
                "ratio",
            ),
            ("similarity.ns_per_symbol", ns_per_symbol, "ns"),
            ("similarity.dp_est_s", self.scan_dp_est_s / k, "s"),
            (
                "pst.compile_us_per_build",
                ratio(self.compile_us, self.builds),
                "us",
            ),
            ("pst.final_nodes", self.pst_nodes / k, "count"),
            ("pst.final_bytes", self.pst_bytes / k, "B"),
            ("checkpoint.save_s", self.ckpt_save_s / k, "s"),
            ("checkpoint.writes", self.ckpt_writes / k, "count"),
            ("checkpoint.bytes", self.ckpt_bytes / k, "B"),
            ("checkpoint.load_s", self.ckpt_load_s / k, "s"),
            (
                "score.cpu_util",
                ratio(self.cpu_s, self.thread_wall_s),
                "ratio",
            ),
            ("algorithm.iterations", self.iterations / k, "count"),
            ("algorithm.finalize_s", self.finalize_s / k, "s"),
            (
                "algorithm.unattributed_frac",
                ratio(self.unattributed_s, self.wall_s),
                "ratio",
            ),
            ("trace.overhead_frac", overhead_frac, "ratio"),
        ]
    }
}

/// One corpus clustered once.
struct CorpusRun {
    secs: f64,
    outcome: CluseqOutcome,
}

/// Clusters corpus `j` untraced, or traced into `sums` with the store
/// probe and the post-run layer probes. `Err` names what failed.
fn run_corpus(
    w: &Workload,
    seed: u64,
    j: usize,
    corpus: &Corpus,
    work_dir: &Path,
    sums: Option<&mut LayerSums>,
) -> Result<CorpusRun, String> {
    let ckpt = work_dir.join(format!("ckpt-{j}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    let runner = Cluseq::new(w.params(seed, j, &ckpt));
    let store = corpus.store();
    let result = match sums {
        None => {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(store)))
                .map_err(|_| format!("corpus {j}: Cluseq::run panicked"))?;
            Ok(CorpusRun {
                secs: start.elapsed().as_secs_f64(),
                outcome,
            })
        }
        Some(sums) => {
            let session = TraceSession::in_memory();
            let counts = StoreCounts::default();
            let probed = ProbedStore::new(store, &counts);
            // The probe counts file reads; resident stores hand out
            // zero-copy slices and are left unwrapped.
            let traced_store: &dyn SequenceStore = match w.backend {
                Backend::File => &probed,
                Backend::Memory => store,
            };
            let mut pairs = ScanPairs::default();
            let cpu0 = cpu_seconds();
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                runner.run_traced(traced_store, &mut pairs, Some(&session))
            }))
            .map_err(|_| format!("corpus {j}: Cluseq::run_traced panicked"))?;
            let secs = start.elapsed().as_secs_f64();
            let cpu = cpu_seconds() - cpu0;
            record_layers(
                sums, w, &session, &counts, &outcome, store, &ckpt, secs, cpu, pairs.0,
            )?;
            Ok(CorpusRun { secs, outcome })
        }
    };
    let _ = std::fs::remove_dir_all(&ckpt);
    result
}

/// Adds one traced run to `sums`, running the post-run probes on its
/// final models.
#[allow(clippy::too_many_arguments)]
fn record_layers(
    sums: &mut LayerSums,
    w: &Workload,
    session: &TraceSession,
    counts: &StoreCounts,
    outcome: &CluseqOutcome,
    store: &dyn SequenceStore,
    ckpt: &Path,
    secs: f64,
    cpu: f64,
    scan_pairs: u64,
) -> Result<(), String> {
    let phase_s = |p: Phase| session.phase_stats(p).total_nanos as f64 / 1e9;
    let counter = |c: Counter| session.counter(c) as f64;
    let leaves = [
        Phase::Seeding,
        Phase::ScanScore,
        Phase::ScanAbsorb,
        Phase::Consolidate,
        Phase::Threshold,
        Phase::CheckpointSave,
        Phase::Finalize,
    ];
    let attributed: f64 = leaves.iter().map(|&p| phase_s(p)).sum();

    // Probe: compile every final model with the default kernel, then
    // scan the whole corpus with it, off the store's clock.
    let mut reader = store.reader();
    let seqs: Vec<Vec<Symbol>> = (0..store.len())
        .map(|i| reader.symbols(i).to_vec())
        .collect();
    drop(reader);
    let symbols: u64 = seqs.iter().map(|s| s.len() as u64).sum();
    let mut scan_ns = 0.0;
    let mut checksum = 0.0f64;
    for cluster in &outcome.clusters {
        let start = Instant::now();
        let automaton =
            ClusterAutomaton::build(&cluster.pst, &outcome.background, ScanKernel::default());
        sums.compile_us += start.elapsed().as_secs_f64() * 1e6;
        sums.builds += 1.0;
        let start = Instant::now();
        for seq in &seqs {
            checksum += match &automaton {
                Some(a) => a.scan(seq).log_sim,
                None => max_similarity_pst(&cluster.pst, &outcome.background, seq).log_sim,
            };
        }
        scan_ns += start.elapsed().as_nanos() as f64;
        sums.pst_nodes += cluster.pst.node_count() as f64;
        sums.pst_bytes += cluster.pst.bytes() as f64;
    }
    std::hint::black_box(checksum);
    let scanned = symbols as f64 * outcome.clusters.len() as f64;
    sums.probe_scan_ns += scan_ns;
    sums.probe_symbols += scanned;
    let ns_per_symbol = if scanned > 0.0 {
        scan_ns / scanned
    } else {
        0.0
    };
    let mean_len = symbols as f64 / store.len().max(1) as f64;
    let scan_dp_est_s = scan_pairs as f64 * mean_len * ns_per_symbol / 1e9;

    // Probe: load the newest checkpoint and check it belongs to the corpus.
    if w.checkpoints {
        let latest = Checkpoint::latest_in(ckpt)
            .map_err(|e| format!("list checkpoints: {e}"))?
            .ok_or("no checkpoint was written")?;
        let start = Instant::now();
        let loaded =
            Checkpoint::load_path(&latest).map_err(|e| format!("load checkpoint: {e:?}"))?;
        sums.ckpt_load_s += start.elapsed().as_secs_f64();
        loaded
            .verify_database(store)
            .map_err(|e| format!("checkpoint does not match its corpus: {e}"))?;
    }

    sums.corpora += 1.0;
    sums.wall_s += secs;
    sums.seeding_s += phase_s(Phase::Seeding);
    sums.seeds_chosen += counter(Counter::SeedsChosen);
    sums.consolidate_s += phase_s(Phase::Consolidate);
    sums.dismissed += counter(Counter::ClustersDismissed);
    sums.threshold_s += phase_s(Phase::Threshold);
    sums.threshold_moves += counter(Counter::ThresholdMoves);
    sums.scan_score_s += phase_s(Phase::ScanScore);
    sums.scan_absorb_s += phase_s(Phase::ScanAbsorb);
    sums.joins += counter(Counter::Joins);
    sums.membership_changes += counter(Counter::MembershipChanges);
    sums.pairs_scored += counter(Counter::PairsScored);
    sums.pairs_pruned += counter(Counter::PairsPruned);
    sums.scan_dp_est_s += scan_dp_est_s;
    sums.ckpt_save_s += phase_s(Phase::CheckpointSave);
    sums.ckpt_writes += counter(Counter::CheckpointWrites);
    sums.ckpt_bytes += counter(Counter::CheckpointBytes);
    sums.cpu_s += cpu;
    sums.thread_wall_s += secs * w.scan.1 as f64;
    sums.iterations += outcome.iterations as f64;
    sums.finalize_s += phase_s(Phase::Finalize);
    sums.unattributed_s += (secs - attributed).max(0.0);
    sums.store_calls += counts.calls() as f64;
    sums.store_s += counts.seconds();
    sums.store_symbols += counts.symbols() as f64;
    sums.sequence_passes += (store.len() * outcome.iterations) as f64;
    Ok(())
}

/// The clustering phase of a run: its corpora, the checks on every
/// outcome, and the figures so far.
pub struct Rounds<'a> {
    w: &'a Workload,
    seed: u64,
    corpora: &'a [Corpus],
    work_dir: &'a Path,
    labels: Vec<Vec<Option<u32>>>,
    /// Each corpus's first outcome digest and accuracy.
    first: Vec<Option<(u64, f64)>>,
    /// Each corpus's untraced run times.
    secs: Vec<Vec<f64>>,
    /// Resident memory every untraced run added at its peak, MiB.
    peak_mb: Vec<f64>,
    /// Untraced runs so far; the next one clusters corpus
    /// `visited mod corpora`.
    visited: usize,
    attempted: usize,
    failed: usize,
    correct: bool,
    model: Option<CluseqOutcome>,
}

impl<'a> Rounds<'a> {
    /// A phase over `corpora`; nothing runs yet.
    pub fn new(w: &'a Workload, seed: u64, corpora: &'a [Corpus], work_dir: &'a Path) -> Self {
        Self {
            w,
            seed,
            corpora,
            work_dir,
            labels: corpora.iter().map(Corpus::labels).collect(),
            first: vec![None; corpora.len()],
            secs: vec![Vec::new(); corpora.len()],
            peak_mb: Vec::new(),
            visited: 0,
            attempted: 0,
            failed: 0,
            correct: true,
            model: None,
        }
    }

    /// Takes the model to serve: corpus 0's first outcome, if it has run
    /// and succeeded.
    pub fn take_model(&mut self) -> Option<CluseqOutcome> {
        self.model.take()
    }

    /// Whether every corpus has been clustered at least once.
    pub fn covered(&self) -> bool {
        self.visited >= self.corpora.len()
    }

    /// Clusters corpus `j` once and checks the outcome against the
    /// corpus's first one. Returns the run's wall time if it succeeded.
    fn run_one(&mut self, j: usize, sums: Option<&mut LayerSums>) -> Option<f64> {
        self.attempted += 1;
        let run = match run_corpus(self.w, self.seed, j, &self.corpora[j], self.work_dir, sums) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: {e}", self.w.name);
                self.failed += 1;
                return None;
            }
        };
        let d = digest(&run.outcome);
        match self.first[j] {
            None => {
                let accuracy = Confusion::new(
                    &self.labels[j],
                    &run.outcome.membership_lists(),
                    MatchStrategy::Hungarian,
                )
                .accuracy();
                self.first[j] = Some((d, accuracy));
                if j == 0 {
                    self.model = Some(run.outcome);
                }
            }
            Some((f, _)) if f != d => {
                eprintln!(
                    "{}: corpus {j} outcome differs from its first run",
                    self.w.name
                );
                self.correct = false;
                self.failed += 1;
                return None;
            }
            Some(_) => {}
        }
        Some(run.secs)
    }

    /// Clusters the next `round_corpora` corpora untraced, cycling
    /// through all of them over successive rounds, and records each run's
    /// time and the resident memory it added at its peak. Before each run
    /// the allocator hands its free memory back, so a run's peak does not
    /// depend on what earlier runs left behind.
    pub fn round(&mut self) -> Result<(), String> {
        for _ in 0..self.w.round_corpora {
            let j = self.visited % self.corpora.len();
            self.visited += 1;
            release_free_memory();
            let base = rss_mb();
            reset_peak_rss()?;
            if let Some(s) = self.run_one(j, None) {
                self.secs[j].push(s);
                self.peak_mb.push(peak_rss_mb() - base);
            }
        }
        Ok(())
    }

    /// Clusters every corpus untraced and traced, back to back in
    /// alternating order, so the tracing overhead compares paired runs
    /// that host drift hits alike, and returns the per-layer split.
    pub fn traced(&mut self) -> Vec<Metric> {
        let mut sums = LayerSums::default();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        for j in 0..self.corpora.len() {
            let order: &[bool] = if j % 2 == 0 {
                &[false, true]
            } else {
                &[true, false]
            };
            for &is_traced in order {
                let secs = self.run_one(j, is_traced.then_some(&mut sums));
                match (secs, is_traced) {
                    (Some(s), false) => untraced_s += s,
                    (Some(s), true) => traced_s += s,
                    (None, _) => {}
                }
            }
        }
        let overhead = if untraced_s > 0.0 {
            traced_s / untraced_s - 1.0
        } else {
            0.0
        };
        sums.metrics(overhead)
    }

    /// Runs attempted and failed (failed, or disagreed with the corpus's
    /// first outcome), and whether every outcome that repeated agreed.
    pub fn tally(&self) -> (usize, usize, bool) {
        (self.attempted, self.failed, self.correct)
    }

    /// Trimmed mean over the corpora of each corpus's median untraced
    /// run time.
    pub fn cluster_s(&self) -> f64 {
        let per_corpus: Vec<f64> = self
            .secs
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        if per_corpus.is_empty() {
            0.0
        } else {
            trimmed_mean(&per_corpus)
        }
    }

    /// Median over the untraced runs of the resident memory the run
    /// added at its peak, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        if self.peak_mb.is_empty() {
            0.0
        } else {
            median(&self.peak_mb)
        }
    }

    /// Mean first-run accuracy against the planted labels over the
    /// corpora clustered.
    pub fn accuracy(&self) -> f64 {
        let acc: Vec<f64> = self.first.iter().flatten().map(|&(_, a)| a).collect();
        acc.iter().sum::<f64>() / acc.len().max(1) as f64
    }
}
