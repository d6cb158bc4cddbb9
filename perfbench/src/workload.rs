//! The named workloads: what each generates from the seed and which
//! paper parameters it clusters with. No workload sets a speed knob
//! (scan kernel, model cache, serve kernel); the system's defaults stand.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cluseq_core::{CluseqParams, ScanMode};
use cluseq_datagen::outliers::random_sequence;
use cluseq_datagen::ClusterModel;
use cluseq_seq::{Alphabet, CseqWriter, FileStore, Sequence, SequenceDatabase, SequenceStore};

/// Where a workload's corpora live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Fully resident `SequenceDatabase`.
    Memory,
    /// CSEQ v2 file plus `.csix` sidecar, read through `FileStore`.
    File,
}

/// The shape of one corpus.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sequences, outliers included.
    pub sequences: usize,
    /// Planted clusters.
    pub clusters: usize,
    /// Average length; lengths are uniform in `[avg/2, 3·avg/2]`.
    pub avg_len: usize,
    /// Alphabet size.
    pub alphabet: usize,
    /// Share of sequences that are uniform noise.
    pub outlier_fraction: f64,
}

/// One workload: its inputs, its clustering parameters, and how its
/// measuring time splits between clustering and serving.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Independent corpora; the rounds cycle through them. The cluster
    /// metrics average over them, so one corpus's luck moves them little.
    pub corpora: usize,
    /// Shape of every corpus.
    pub shape: Shape,
    /// Key of the workload's first planted cluster model; cluster `k`
    /// uses `planted_key + k · 0x51ED`, the spacing `cluseq_datagen` uses.
    /// The planted models are a property of the workload; the seed draws
    /// the sequences from them.
    pub planted_key: u64,
    /// Where the corpora are stored.
    pub backend: Backend,
    /// A fixed initial threshold `t` (§4.6 adjustment off), or `None` for
    /// the default `t` with adjustment.
    pub frozen_threshold: Option<f64>,
    /// Re-clustering scan rule and scoring threads.
    pub scan: (ScanMode, usize),
    /// Write a checkpoint after every iteration.
    pub checkpoints: bool,
    /// An iteration budget below the default cap of 50, or `None`.
    pub max_iterations: Option<usize>,
    /// Corpora clustered per round. Rounds are kept short, about a
    /// second, so that a run holds many and their median rides out the
    /// host's slow spells.
    pub round_corpora: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cluster-serial",
        corpora: 300,
        shape: Shape {
            sequences: 160,
            clusters: 4,
            avg_len: 40,
            alphabet: 20,
            outlier_fraction: 0.05,
        },
        planted_key: 0x5E41,
        backend: Backend::Memory,
        frozen_threshold: None,
        scan: (ScanMode::Incremental, 1),
        checkpoints: false,
        max_iterations: None,
        round_corpora: 20,
    },
    Workload {
        name: "cluster-bulk",
        corpora: 16,
        shape: Shape {
            sequences: 700,
            clusters: 3,
            avg_len: 150,
            alphabet: 20,
            outlier_fraction: 0.05,
        },
        planted_key: 0xB01C,
        backend: Backend::File,
        frozen_threshold: Some(5000.0),
        scan: (ScanMode::Snapshot, 2),
        checkpoints: true,
        max_iterations: Some(6),
        round_corpora: 2,
    },
    Workload {
        name: "serve-open",
        corpora: 44,
        shape: Shape {
            sequences: 240,
            clusters: 3,
            avg_len: 100,
            alphabet: 20,
            outlier_fraction: 0.05,
        },
        planted_key: 0x5E7E,
        backend: Backend::Memory,
        frozen_threshold: Some(5000.0),
        scan: (ScanMode::Incremental, 1),
        checkpoints: false,
        max_iterations: None,
        round_corpora: 4,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives independent seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated corpus, resident or on disk.
pub enum Corpus {
    /// In memory.
    Memory(SequenceDatabase),
    /// Opened from a CSEQ v2 file with its sidecar index.
    File(FileStore),
}

impl Corpus {
    /// The corpus as the engine sees it.
    pub fn store(&self) -> &dyn SequenceStore {
        match self {
            Corpus::Memory(db) => db,
            Corpus::File(store) => store,
        }
    }

    /// Planted labels, `None` for injected outliers.
    pub fn labels(&self) -> Vec<Option<u32>> {
        let store = self.store();
        (0..store.len()).map(|i| store.label(i)).collect()
    }
}

impl Workload {
    /// The planted cluster models, in label order.
    pub fn planted(&self) -> Vec<ClusterModel> {
        (0..self.shape.clusters)
            .map(|k| ClusterModel::new(self.shape.alphabet, self.planted_key + k as u64 * 0x51ED))
            .collect()
    }

    /// Clustering parameters for corpus `j`; checkpoints go to `ckpt`.
    pub fn params(&self, seed: u64, j: usize, ckpt: &Path) -> CluseqParams {
        let (mode, threads) = self.scan;
        let mut p = CluseqParams::default()
            .with_initial_clusters(self.shape.clusters)
            .with_seed(derive_seed(seed ^ 0xC1, j as u64))
            .with_scan_mode(mode)
            .with_threads(threads);
        if let Some(t) = self.frozen_threshold {
            p = p.with_initial_threshold(t).with_threshold_adjustment(false);
        }
        if self.checkpoints {
            p = p.with_checkpoints(ckpt, 1);
        }
        if let Some(cap) = self.max_iterations {
            p = p.with_max_iterations(cap);
        }
        p
    }

    /// Corpus `j` of run seed `seed`, in order: sequence `i < n - outliers`
    /// drawn from planted cluster `i mod k` (its label), then the uniform
    /// noise outliers (no label).
    fn sample(&self, seed: u64, j: usize, mut push: impl FnMut(Sequence, Option<u32>)) {
        let s = self.shape;
        let planted = self.planted();
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, j as u64));
        let outliers = (s.sequences as f64 * s.outlier_fraction) as usize;
        for i in 0..s.sequences {
            let len = rng.gen_range(s.avg_len / 2..=s.avg_len * 3 / 2).max(1);
            if i < s.sequences - outliers {
                let k = i % s.clusters;
                push(planted[k].sample_sequence(len, &mut rng), Some(k as u32));
            } else {
                push(random_sequence(s.alphabet, len, &mut rng), None);
            }
        }
    }

    /// Generates every corpus (and writes it, for file-backed workloads)
    /// into `dir`.
    pub fn generate(&self, seed: u64, dir: &Path) -> std::io::Result<Vec<Corpus>> {
        let alphabet = Alphabet::synthetic(self.shape.alphabet);
        (0..self.corpora)
            .map(|j| match self.backend {
                Backend::Memory => {
                    let mut db = SequenceDatabase::new(alphabet.clone());
                    self.sample(seed, j, |seq, label| {
                        db.push_labeled(seq, label);
                    });
                    Ok(Corpus::Memory(db))
                }
                Backend::File => {
                    let path = dir.join(format!("corpus-{j}.cseq"));
                    let mut writer = CseqWriter::create(&path, &alphabet)?;
                    let mut written = Ok(());
                    self.sample(seed, j, |seq, label| {
                        if written.is_ok() {
                            written = writer.push(seq.symbols(), label);
                        }
                    });
                    written?;
                    writer.finish()?;
                    let store = FileStore::open(&path).map_err(|e| {
                        std::io::Error::other(format!("open {}: {e}", path.display()))
                    })?;
                    Ok(Corpus::File(store))
                }
            })
            .collect()
    }
}
