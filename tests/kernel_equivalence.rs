//! The kernel-equivalence gate. The engine scans a model that can still
//! change by walking its PST (the interpreted kernel) and a frozen model
//! through its compiled automaton; the two must be byte-identical
//! (`f64::to_bits`, not an epsilon) — same max log-ratio bits, same
//! segment — and the compiled kernel's early exit may only skip pairs that
//! are provably below the threshold.
//!
//! The proptests prove both contracts on random PSTs, before and after
//! pruning, smoothed or not. The tests below them check the frozen-model
//! call sites end to end against the PST walk: the final assignment sweep
//! and the serve classifier. Seeding and the snapshot score pass carry the
//! same check as unit tests next to their code
//! (`seeding::tests::compiled_kernel_selects_identical_seeds`,
//! `recluster::tests::compiled_kernel_scan_is_bit_identical_to_interpreted`).

use proptest::prelude::*;

use cluseq::core::{max_similarity_compiled, max_similarity_compiled_bounded, max_similarity_pst};
use cluseq::prelude::*;
use cluseq_test_utils::{arb_pst_workload, clustered_db};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// interpreted ↔ compiled: byte-identical on arbitrary models
    /// (smoothed or not, pruned or not) and arbitrary probes — same max
    /// log-ratio bits, same segment.
    #[test]
    fn compiled_similarity_is_byte_identical(w in arb_pst_workload()) {
        let (pst, background) = w.build();
        let probe = w.probe_symbols();
        let interpreted = max_similarity_pst(&pst, &background, &probe);
        let compiled = CompiledPst::compile(&pst, &background);
        let fast = max_similarity_compiled(&compiled, &probe);
        prop_assert_eq!(
            interpreted.log_sim.to_bits(),
            fast.log_sim.to_bits(),
            "log_sim bits diverge: interpreted {} vs compiled {}",
            interpreted.log_sim,
            fast.log_sim
        );
        prop_assert_eq!(interpreted.start, fast.start);
        prop_assert_eq!(interpreted.end, fast.end);
    }

    /// Early-exit contract: for any threshold, the bounded scan either
    /// returns the exact result bit-for-bit, or prunes a pair whose true
    /// similarity really is below the threshold.
    #[test]
    fn early_exit_never_lies(w in arb_pst_workload(), threshold in -5.0f64..200.0) {
        let (pst, background) = w.build();
        let probe = w.probe_symbols();
        let exact = max_similarity_pst(&pst, &background, &probe);
        let compiled = CompiledPst::compile(&pst, &background);
        match max_similarity_compiled_bounded(&compiled, &probe, threshold) {
            BoundedSimilarity::Exact(sim) => {
                prop_assert_eq!(sim.log_sim.to_bits(), exact.log_sim.to_bits());
                prop_assert_eq!((sim.start, sim.end), (exact.start, exact.end));
            }
            BoundedSimilarity::Pruned => {
                prop_assert!(
                    exact.log_sim < threshold,
                    "pruned a pair scoring {} >= threshold {}",
                    exact.log_sim,
                    threshold
                );
            }
        }
    }
}

// ---- frozen-model call sites -------------------------------------------

fn pipeline_params(mode: ScanMode, threads: usize) -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(3)
        .with_significance(6)
        .with_max_depth(5)
        .with_max_iterations(10)
        .with_seed(5)
        .with_scan_mode(mode)
        .with_threads(threads)
}

/// The final sweep scores every sequence against the frozen final models
/// through compiled automata with early exit: its memberships and best
/// clusters must be exactly what the PST walk decides.
#[test]
fn final_sweep_matches_the_pst_walk() {
    let db = clustered_db(120, 3, 90, 30, 0.05, 77);
    for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
        for threads in [1usize, 4] {
            let outcome = Cluseq::new(pipeline_params(mode, threads)).run(&db);
            let what = format!("{mode:?} with {threads} threads");
            assert!(outcome.cluster_count() > 0, "{what}: no clusters");
            let mut members = vec![Vec::new(); outcome.cluster_count()];
            let mut best = vec![None; db.len()];
            for (id, seq, _) in db.iter() {
                let mut best_sim = f64::NEG_INFINITY;
                for (slot, cluster) in outcome.clusters.iter().enumerate() {
                    let sim = max_similarity_pst(&cluster.pst, &outcome.background, seq.symbols());
                    if sim.log_sim >= outcome.final_log_t && !seq.is_empty() {
                        members[slot].push(id);
                        if sim.log_sim > best_sim {
                            best_sim = sim.log_sim;
                            best[id] = Some(slot);
                        }
                    }
                }
            }
            assert_eq!(outcome.membership_lists(), members, "{what}: memberships");
            assert_eq!(outcome.best_cluster, best, "{what}: best clusters");
        }
    }
}

/// `ServeModel::classify` scores the served (frozen) model through
/// compiled automata: every score, segment, and the ranking must equal
/// the PST walk's, bit for bit.
#[test]
fn serve_classify_matches_the_pst_walk() {
    let db = clustered_db(120, 3, 90, 30, 0.05, 77);
    let outcome = Cluseq::new(pipeline_params(ScanMode::Incremental, 1)).run(&db);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("kernel_equivalence");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("model.cseq");
    let saved = SavedModel::from_outcome(&outcome);
    saved
        .save(&mut std::fs::File::create(&path).expect("create model file"))
        .expect("save model");
    let served = ServeModel::load(&path, None, ScanKernel::Compiled, 1).expect("load model");
    assert!(!served.automata.is_empty(), "the served model is compiled");
    for (_, seq, _) in db.iter() {
        let mut want: Vec<(usize, SegmentSimilarity)> = saved
            .clusters
            .iter()
            .enumerate()
            .map(|(k, c)| {
                (
                    k,
                    max_similarity_pst(&c.pst, &saved.background, seq.symbols()),
                )
            })
            .collect();
        want.sort_by(|a, b| b.1.log_sim.total_cmp(&a.1.log_sim));
        let got = served.classify(seq.symbols());
        assert_eq!(got.len(), want.len());
        for ((gk, g), (wk, w)) in got.iter().zip(&want) {
            assert_eq!(gk, wk);
            assert_eq!(g.log_sim.to_bits(), w.log_sim.to_bits());
            assert_eq!((g.start, g.end), (w.start, w.end));
        }
    }
}
