//! Forward-compatibility anchors for the checkpoint format: committed
//! checkpoint files — one per on-disk version — that every future reader
//! must keep loading and resuming correctly.
//!
//! Each fixture (`tests/golden/checkpoint_v{1,2,3}.ckpt`) was produced by
//! the `#[ignore]`d `regenerate_the_fixture` test at the time its format
//! was current: the first checkpoint of a fixed seeded run, with the
//! scratch directory in its stored policy scrubbed to a relative path
//! before committing. Because the whole pipeline is deterministic,
//! resuming a fixture against the same regenerated workload must still
//! land on the same final clustering as a fresh uninterrupted run — so
//! these tests fail if a format change breaks old files *or* silently
//! changes their meaning. A breaking change must bump
//! `Checkpoint::VERSION`, keep the old decode paths, and add a new
//! fixture alongside the existing ones.

use std::fs;
use std::path::PathBuf;

use cluseq::prelude::*;
use cluseq_test_utils::observe;

fn fixture_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/cluseq; the fixtures live with the
    // repo-level tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// The exact workload the fixture was generated from.
fn workload() -> SequenceDatabase {
    SyntheticSpec {
        sequences: 60,
        clusters: 2,
        avg_len: 50,
        alphabet: 12,
        outlier_fraction: 0.0,
        seed: 2003,
    }
    .generate()
}

/// The exact parameters the fixture was generated with (minus the scratch
/// checkpoint directory, which is scrubbed to `ckpts` in the fixture).
fn generation_params() -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(2)
        .with_significance(5)
        .with_max_depth(5)
        .with_max_iterations(8)
        .with_seed(17)
}

/// Loads a committed fixture, checks its structural shape, and proves
/// resuming it matches a fresh run of `params` bit for bit.
fn assert_fixture_resumes_identically(name: &str, params: CluseqParams) -> Checkpoint {
    let bytes = fs::read(fixture_path(name)).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}; regenerate with \
             `cargo test -p cluseq --test checkpoint_golden -- --ignored`",
            fixture_path(name).display()
        )
    });
    let ckpt =
        Checkpoint::load(&mut bytes.as_slice()).expect("a committed checkpoint must keep loading");

    // Structural sanity: the fixture is a mid-run boundary, not an
    // end-state, so a resume exercises real iterations.
    assert!(ckpt.completed >= 1, "fixture captures a completed boundary");
    assert!(!ckpt.stable, "fixture must not already be at the fixpoint");
    assert!(!ckpt.clusters.is_empty());
    assert_eq!(ckpt.records.len(), ckpt.completed);

    let db = workload();
    ckpt.verify_database(&db)
        .expect("the guard must keep accepting the generating workload");

    // Meaning-preservation: resuming the old file must land on the same
    // clustering as running from scratch today, including the telemetry
    // counters. The stored policy is dropped before resuming so the test
    // leaves no checkpoint files in the workspace (checkpointing on/off
    // equivalence is proven separately in checkpoint_resume.rs).
    let mut resumable = ckpt.clone();
    resumable.params = resumable.params.without_checkpoints();

    let mut fresh_report = RunReport::new();
    let fresh = Cluseq::new(params).run_observed(&db, &mut fresh_report);

    let mut resumed_report = RunReport::new();
    let resumed = Cluseq::resume_observed(resumable, &db, &mut resumed_report);

    assert_eq!(fresh.iterations, resumed.iterations);
    assert_eq!(fresh.final_log_t.to_bits(), resumed.final_log_t.to_bits());
    assert_eq!(fresh.best_cluster, resumed.best_cluster);
    assert_eq!(fresh.outliers, resumed.outliers);
    assert_eq!(fresh.history, resumed.history);
    assert_eq!(
        counters_without_recompiles(&fresh_report),
        counters_without_recompiles(&resumed_report),
        "telemetry counters must survive the format boundary"
    );
    ckpt
}

/// `counters_json` with every `pst_recompiles` value blanked. That counter
/// measures automaton builds — how the engine computed, not what it
/// computed — and the engine changed: fixtures written while the serial
/// scan still compiled each mutated model replay their old build counts,
/// while a fresh serial scan today walks the trees and compiles nothing.
/// Every other counter must still match exactly.
fn counters_without_recompiles(report: &RunReport) -> String {
    const KEY: &str = "\"pst_recompiles\":";
    let json = report.counters_json();
    let mut parts = json.split(KEY);
    let mut out = parts.next().unwrap_or_default().to_owned();
    for part in parts {
        out.push_str(KEY);
        out.push('_');
        out.push_str(part.trim_start_matches(|c: char| c.is_ascii_digit()));
    }
    out
}

/// Byte offset of the scan-kernel tag in a v2+ checkpoint: the fixed-width
/// header (magic, version, guard: 4 + 4 + 8 + 4 + 8 bytes), then the
/// params up to and including the scan-mode tag (ten 8-byte fields and
/// six 1-byte fields).
const KERNEL_TAG_AT: usize = 4 + 4 + 8 + 4 + 8 + 10 * 8 + 6;

/// The scan-kernel tag of pre-removal checkpoints, patched in an
/// in-memory copy of the v2 fixture: the exact kernels' tags (0 =
/// interpreted, which the fixture carries; 2 = batched) resume to the
/// unpatched fixture's outcome, and the removed quantized kernel's tag 3
/// is refused by name.
#[test]
fn legacy_kernel_tags_resume_exactly_and_quantized_is_refused() {
    let bytes = fs::read(fixture_path("checkpoint_v2.ckpt")).expect("v2 fixture");
    assert_eq!(
        bytes[KERNEL_TAG_AT], 0,
        "the v2 fixture carries the interpreted tag"
    );
    let db = workload();
    let resume = |bytes: &[u8]| {
        let mut ckpt = Checkpoint::load(&mut &bytes[..]).expect("exact-kernel tags load");
        ckpt.params = ckpt.params.without_checkpoints();
        observe(&Cluseq::resume(ckpt, &db))
    };
    let reference = resume(&bytes);
    for tag in [0u8, 2] {
        let mut patched = bytes.clone();
        patched[KERNEL_TAG_AT] = tag;
        assert_eq!(resume(&patched), reference, "kernel tag {tag}");
    }
    let mut patched = bytes;
    patched[KERNEL_TAG_AT] = 3;
    let err = Checkpoint::load(&mut patched.as_slice()).expect_err("quantized tag refused");
    assert!(err.to_string().contains("quantized"), "{err}");
}

#[test]
fn the_v1_fixture_still_loads_and_resumes_identically() {
    let ckpt = assert_fixture_resumes_identically("checkpoint_v1.ckpt", generation_params());
    assert_eq!(ckpt.completed, 1, "fixture captures the first boundary");
}

#[test]
fn the_v2_fixture_loads_and_resumes_identically() {
    // v2 stores a scan-kernel tag; the fixture was generated with the
    // interpreted kernel (tag 0), which loads as the engine's one
    // exact path — and resumes to the fresh run's outcome.
    let ckpt = assert_fixture_resumes_identically("checkpoint_v2.ckpt", generation_params());
    assert_eq!(ckpt.completed, 1, "fixture captures the first boundary");
    // v2 predates the incremental engine; the decode defaults are an
    // engine that is off with a cold cache — the true v2-era state.
    assert!(!ckpt.params.incremental);
    assert!(ckpt.cache.is_empty());
}

#[test]
fn the_v3_fixture_loads_and_resumes_identically() {
    let ckpt = assert_fixture_resumes_identically(
        "checkpoint_v3.ckpt",
        generation_params().with_incremental(true),
    );
    // v3 stores the incremental flag and the similarity cache; the
    // fixture was generated with the non-default engine on precisely so
    // a lossy decode (dropping the cache, falling back to off) would be
    // caught here — a resumed run with a cold cache would report
    // different pairs_scored/pairs_reused counters than the fresh run.
    assert!(ckpt.params.incremental);
    assert!(
        !ckpt.cache.is_empty(),
        "a boundary of an incremental run must carry cache columns"
    );
}

/// Regenerates the *current-format* fixture (today: v3). Run explicitly
/// after an *intentional* format revision (with a version bump and
/// back-compat decode paths for every older fixture):
///
/// ```sh
/// cargo test -p cluseq --test checkpoint_golden -- --ignored
/// ```
#[test]
#[ignore = "writes the committed fixture; run by hand after a format revision"]
fn regenerate_the_fixture() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-regen");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    let db = workload();
    Cluseq::new(
        generation_params()
            .with_incremental(true)
            .with_checkpoints(&dir, 1),
    )
    .run(&db);

    // The fixture must exercise everything v3 added, so pick the *last*
    // mid-run boundary whose similarity cache is warm (the first boundary
    // always has a cold cache: freshly seeded clusters mutate during
    // their first scan, which evicts their columns). Boundaries past the
    // first are delta files; `load_path` resolves the chain, and the
    // fixture is re-saved self-contained so the bare reader keeps
    // accepting it.
    let mut best: Option<Checkpoint> = None;
    for entry in fs::read_dir(&dir).expect("scratch dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "ckpt") {
            continue;
        }
        let ckpt = Checkpoint::load_path(&path).expect("every boundary loads");
        if ckpt.stable || ckpt.cache.is_empty() {
            continue;
        }
        if best.as_ref().is_none_or(|b| ckpt.completed > b.completed) {
            best = Some(ckpt);
        }
    }
    let mut ckpt = best.expect("some mid-run boundary must have a warm cache");

    // Scrub the machine-local scratch path before committing; the cadence
    // is preserved.
    ckpt.params = ckpt.params.with_checkpoints("ckpts", 1);

    let mut out = Vec::new();
    ckpt.save(&mut out).expect("Vec write cannot fail");
    let path = fixture_path("checkpoint_v3.ckpt");
    fs::write(&path, out).expect("write fixture");
    eprintln!(
        "fixture rewritten at {} (boundary {}, {} cache columns)",
        path.display(),
        ckpt.completed,
        ckpt.cache.len()
    );
}
