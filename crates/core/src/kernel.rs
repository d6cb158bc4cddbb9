//! A frozen cluster model, compiled for scanning.
//!
//! Every scorer of a *frozen* model — seeding's farthest-first folds, the
//! snapshot score passes, the final assignment sweep, and serve's
//! classifier — scans a [`ClusterAutomaton`]: the cluster's PST flattened
//! into a [`CompiledPst`] once, then scanned per pair. A model that can
//! still change mid-scan (the serial re-clustering rule) is walked
//! directly instead, since compiling it would be thrown away at its next
//! join. Both paths are bit-identical by construction.

use cluseq_pst::{CompiledPst, Pst};
use cluseq_seq::{BackgroundModel, Symbol};

use crate::config::ScanKernel;
use crate::similarity::{
    max_similarity_compiled, max_similarity_compiled_bounded, BoundedSimilarity, SegmentSimilarity,
};

/// A cluster's frozen model, compiled into exact `f64` scan tables (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ClusterAutomaton(CompiledPst);

impl ClusterAutomaton {
    /// Compiles `pst` against `background`.
    pub fn compile(pst: &Pst, background: &BackgroundModel) -> Self {
        Self(CompiledPst::compile(pst, background))
    }

    /// Compiles `pst` for `kernel`. Returns `None` for
    /// [`ScanKernel::Interpreted`], which scans the tree directly.
    pub fn build(pst: &Pst, background: &BackgroundModel, kernel: ScanKernel) -> Option<Self> {
        kernel
            .uses_automaton()
            .then(|| Self::compile(pst, background))
    }

    /// Scores one sequence, unbounded — the interpreted kernel's bits.
    pub fn scan(&self, seq: &[Symbol]) -> SegmentSimilarity {
        max_similarity_compiled(&self.0, seq)
    }

    /// Scores one sequence with threshold early-exit (see
    /// [`max_similarity_compiled_bounded`]).
    pub fn scan_bounded(&self, seq: &[Symbol], threshold: f64) -> BoundedSimilarity {
        max_similarity_compiled_bounded(&self.0, seq, threshold)
    }

    /// [`scan_bounded`](Self::scan_bounded) driven by the caller's choice
    /// of `prune_below`: `None` scans to completion and always yields
    /// [`BoundedSimilarity::Exact`].
    pub fn scan_pruned(&self, seq: &[Symbol], prune_below: Option<f64>) -> BoundedSimilarity {
        match prune_below {
            Some(log_t) => self.scan_bounded(seq, log_t),
            None => BoundedSimilarity::Exact(self.scan(seq)),
        }
    }

    /// Heap footprint of the underlying tables.
    pub fn table_bytes(&self) -> usize {
        self.0.table_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_pst::PstParams;
    use cluseq_seq::Sequence;

    fn fixture() -> (Pst, BackgroundModel) {
        let alphabet = cluseq_seq::Alphabet::from_chars("abc".chars());
        let train = Sequence::parse_str(&alphabet, "abcabcaabbccabcbacbca").unwrap();
        let pst = Pst::from_sequence(
            3,
            PstParams::default().with_significance(2).with_max_depth(4),
            &train,
        );
        (pst, BackgroundModel::uniform(3))
    }

    #[test]
    fn interpreted_kernel_builds_no_automaton() {
        let (pst, bg) = fixture();
        assert!(ClusterAutomaton::build(&pst, &bg, ScanKernel::Interpreted).is_none());
        let a = ClusterAutomaton::build(&pst, &bg, ScanKernel::Compiled).unwrap();
        assert!(a.table_bytes() > 0);
        assert_eq!(
            a.table_bytes(),
            ClusterAutomaton::compile(&pst, &bg).table_bytes()
        );
    }
}
