//! Probes the benchmark wraps around calls into the program: a counting
//! store, process CPU time, and peak resident memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cluseq_seq::store::{StoreKind, StoreReader};
use cluseq_seq::{Alphabet, BackgroundModel, SequenceStore, Symbol};

/// Totals a [`ProbedStore`] collects over all its readers.
#[derive(Debug, Default)]
pub struct StoreCounts {
    calls: AtomicU64,
    nanos: AtomicU64,
    symbols: AtomicU64,
}

impl StoreCounts {
    /// `symbols()` calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside `symbols()`.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Symbols returned.
    pub fn symbols(&self) -> u64 {
        self.symbols.load(Ordering::Relaxed)
    }
}

/// A [`SequenceStore`] that delegates every call to `inner` and counts
/// and times the `symbols()` calls of its readers.
pub struct ProbedStore<'a> {
    inner: &'a dyn SequenceStore,
    counts: &'a StoreCounts,
}

impl<'a> ProbedStore<'a> {
    /// Wraps `inner`, adding its reads to `counts`.
    pub fn new(inner: &'a dyn SequenceStore, counts: &'a StoreCounts) -> Self {
        Self { inner, counts }
    }
}

impl SequenceStore for ProbedStore<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn alphabet(&self) -> &Alphabet {
        self.inner.alphabet()
    }

    fn label(&self, i: usize) -> Option<u32> {
        self.inner.label(i)
    }

    fn reader(&self) -> Box<dyn StoreReader + '_> {
        Box::new(ProbedReader {
            inner: self.inner.reader(),
            counts: self.counts,
            calls: 0,
            nanos: 0,
            symbols: 0,
        })
    }

    fn background(&self) -> BackgroundModel {
        self.inner.background()
    }

    fn total_symbols(&self) -> u64 {
        self.inner.total_symbols()
    }

    fn kind(&self) -> StoreKind {
        self.inner.kind()
    }
}

/// One probed cursor; keeps its counts locally and adds them to the
/// shared totals when dropped, so scan workers never contend.
struct ProbedReader<'a> {
    inner: Box<dyn StoreReader + 'a>,
    counts: &'a StoreCounts,
    calls: u64,
    nanos: u64,
    symbols: u64,
}

impl StoreReader for ProbedReader<'_> {
    fn symbols(&mut self, i: usize) -> &[Symbol] {
        let start = Instant::now();
        let out = self.inner.symbols(i);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.symbols += out.len() as u64;
        out
    }
}

impl Drop for ProbedReader<'_> {
    fn drop(&mut self) {
        self.counts.calls.fetch_add(self.calls, Ordering::Relaxed);
        self.counts.nanos.fetch_add(self.nanos, Ordering::Relaxed);
        self.counts
            .symbols
            .fetch_add(self.symbols, Ordering::Relaxed);
    }
}

/// User plus system CPU seconds this process has used so far, from
/// `/proc/self/stat` (clock ticks, assumed 100 per second as on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Hands the allocator's free memory back to the system
/// (`malloc_trim(3)`), so that a run starts from the resident set a fresh
/// process with the same live data would have, not from what earlier runs
/// left behind.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` only returns free heap pages to the system;
    // it takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Starts a new peak for [`peak_rss_mb`]: resets `VmHWM` to the current
/// resident set (Linux 4.0 and later).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`) since it
/// started or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `/proc/self/status` field given in kB, in MiB; 0 if unreadable.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
