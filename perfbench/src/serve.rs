//! The serve phase: the model trained by the clustering phase is saved,
//! loaded into an in-process `Server` with the default `ServeConfig`, and
//! driven by an open-loop generator: two threads, one connection each,
//! sending pipelined requests on a fixed schedule whatever the replies do.

use std::collections::VecDeque;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cluseq_core::persist::SavedModel;
use cluseq_core::serve::client::ServeClient;
use cluseq_core::serve::model::ServeModel;
use cluseq_core::serve::obs::ServeObs;
use cluseq_core::serve::protocol::{parse_header, ClusterScore, Request, Response};
use cluseq_core::serve::{ServeConfig, Server, ServerHandle};
use cluseq_core::trace::{quantile_nanos, HistKind, TraceShared, HIST_BUCKETS};
use cluseq_core::{CluseqOutcome, TraceSession};
use cluseq_datagen::outliers::random_sequence;
use cluseq_seq::Symbol;

use crate::stats::{
    half_crossing, median, percentile, percentile_allowed, Metric, RequestTimes, StepLatency,
};
use crate::workload::{derive_seed, Workload};

/// The latency limit `client.max_rps` must meet at p99, milliseconds.
pub const LIMIT_MS: f64 = 5.0;
/// Requests per second of the reference rate `serve_p50_ms` is taken at.
pub const REFERENCE_RPS: f64 = 12000.0;
/// Connections and generator threads.
const LANES: usize = 2;
/// Distinct queries in the pool the schedule cycles through.
const POOL: usize = 2048;
/// How long a step waits for its last replies before counting them
/// failed.
const DRAIN: Duration = Duration::from_secs(2);
/// Share of the serve budget spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.2;
/// Fewest windows of `WINDOW` requests the reference rate is
/// measured in.
pub const MIN_WINDOWS: usize = 15;
/// Most passes of the rate search (trials per rate; fewer when the budget
/// ends first), and the measuring time of one trial.
const TRIALS: usize = 8;
const TRIAL_SECS: f64 = 0.1;
/// Ratio between consecutive rates of the search grid, which starts at
/// half the reference rate: below the reference, so that a slow spell
/// that makes the reference rate miss still leaves a rate that holds.
const RATE_STEP: f64 = 1.25;
/// Requests in one reference window, and the fewest in a trial: enough
/// for a p99 (see `stats::tail_percentile`).
pub const WINDOW: usize = 1000;

/// One pooled query: its encoded request frame and the payload the
/// server must answer with, bit for bit.
pub struct Query {
    frame: Vec<u8>,
    expected: Vec<u8>,
    request: Request,
}

/// The query pool: mostly short sequences from the workload's planted
/// clusters, a tail of long ones, and some uniform-noise outliers; mostly
/// ASSIGN with a small share of SCORE and ANOMALY.
pub fn query_pool(w: &Workload, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5E7E));
    let planted = w.planted();
    let alphabet = w.shape.alphabet;
    (0..POOL)
        .map(|i| {
            let kind: f64 = rng.gen();
            let seq: Vec<Symbol> = if kind < 0.05 {
                let len = rng.gen_range(16..=64);
                random_sequence(alphabet, len, &mut rng).symbols().to_vec()
            } else {
                let len = if kind < 0.10 {
                    rng.gen_range(400..=800)
                } else {
                    rng.gen_range(16..=64)
                };
                planted[i % planted.len()]
                    .sample_sequence(len, &mut rng)
                    .symbols()
                    .to_vec()
            };
            let op: f64 = rng.gen();
            let request = if op < 0.05 {
                Request::Score { seq }
            } else if op < 0.10 {
                Request::Anomaly {
                    seq,
                    threshold: None,
                }
            } else {
                Request::Assign { seq }
            };
            Query {
                frame: request.encode_frame(),
                expected: Vec::new(),
                request,
            }
        })
        .collect()
}

/// The answer offline `SavedModel` scoring gives, encoded as the server
/// must encode it.
fn offline_answer(model: &SavedModel, request: &Request, generation: u64) -> Vec<u8> {
    let response = match request {
        Request::Assign { seq } => Response::Assign {
            generation,
            hits: model
                .assign(seq)
                .into_iter()
                .map(|(k, s)| (k as u32, s))
                .collect(),
        },
        Request::Score { seq } => Response::Score {
            generation,
            scores: model
                .classify(seq)
                .into_iter()
                .map(|(k, s)| ClusterScore {
                    slot: k as u32,
                    log_sim: s.log_sim,
                    start: s.start as u32,
                    end: s.end as u32,
                })
                .collect(),
        },
        Request::Anomaly { seq, threshold } => {
            let threshold = threshold.unwrap_or(model.log_t);
            let ranked = model.classify(seq);
            let best = ranked.first();
            let best_log_sim = best.map_or(f64::NEG_INFINITY, |(_, s)| s.log_sim);
            Response::Anomaly {
                generation,
                anomalous: best_log_sim < threshold,
                best_log_sim,
                threshold,
                best_slot: best.map(|(k, _)| *k as u32),
            }
        }
        other => unreachable!("the pool holds no {other:?} requests"),
    };
    response.encode_payload()
}

/// Generation the served model is loaded under.
const GENERATION: u64 = 1;

/// A running server plus what it took to bring it up.
pub struct Started {
    server: ServerHandle,
    registry: Option<Arc<TraceShared>>,
    /// Seconds to save the model.
    pub save_s: f64,
    /// Seconds to load it for serving.
    pub load_s: f64,
    /// Seconds from model save to a server that answers.
    pub setup_s: f64,
}

impl Started {
    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Saves `outcome`'s model to `path`, loads it for serving and starts a
/// server with the default `ServeConfig` on it, which has answered once
/// when this returns. Traced, the server records into a registry of its
/// own.
pub fn start(outcome: &CluseqOutcome, path: &Path, traced: bool) -> Result<Started, String> {
    let config = ServeConfig::default();
    let start = Instant::now();
    let file = std::fs::File::create(path).map_err(|e| format!("create model: {e}"))?;
    let mut out = BufWriter::new(file);
    SavedModel::from_outcome(outcome)
        .save(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("save model: {e}"))?;
    drop(out);
    let save_s = start.elapsed().as_secs_f64();
    let loaded = Instant::now();
    let model = ServeModel::load(path, None, config.kernel, GENERATION)?;
    let load_s = loaded.elapsed().as_secs_f64();
    let registry = traced.then(|| TraceSession::in_memory().shared_arc());
    let obs = registry.clone().map(|r| Arc::new(ServeObs::in_memory(r)));
    let server = Server::start(model, None, &config, obs).map_err(|e| format!("start: {e}"))?;
    let mut probe = ServeClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    probe.info().map_err(|e| format!("info: {e}"))?;
    Ok(Started {
        server,
        registry,
        save_s,
        load_s,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Fills in each query's expected answer from offline `SavedModel`
/// scoring of the model saved at `path`.
pub fn expect_answers(queries: &mut [Query], path: &Path) -> Result<(), String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("open model: {e}"))?;
    let offline = SavedModel::load(&mut file).map_err(|e| format!("load model: {e:?}"))?;
    for q in queries.iter_mut() {
        q.expected = offline_answer(&offline, &q.request, GENERATION);
    }
    Ok(())
}

/// One generator lane: a connection, its unparsed input, and whether a
/// step left it out of step with its replies.
struct Lane {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    dirty: bool,
}

impl Lane {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            addr,
            stream,
            buf: Vec::new(),
            dirty: false,
        })
    }

    /// Sends requests `lane, lane + LANES, …` below `count` at their due
    /// times and reads replies in between. Returns each request's
    /// timeline and how many replies were wrong.
    fn drive(
        &mut self,
        queries: &[Query],
        plan: &StepPlan,
        lane: usize,
    ) -> (Vec<RequestTimes>, usize) {
        if self.dirty {
            match Lane::connect(self.addr) {
                Ok(fresh) => *self = fresh,
                Err(_) => return (Vec::new(), 0),
            }
        }
        let due = |i: usize| plan.t0 + Duration::from_secs_f64(i as f64 / plan.rate);
        let give_up = due(plan.count.saturating_sub(1)) + DRAIN;
        let mut times = Vec::new();
        let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
        let mut wrong = 0;
        let mut next = lane;
        let mut chunk = vec![0u8; 1 << 16];
        loop {
            let now = Instant::now();
            if next < plan.count && now >= due(next) {
                let q = (plan.offset + next) % queries.len();
                if self.stream.write_all(&queries[q].frame).is_err() {
                    break;
                }
                times.push(RequestTimes {
                    due: due(next),
                    sent: Instant::now(),
                    done: None,
                });
                pending.push_back((q, times.len() - 1));
                next += LANES;
                continue;
            }
            if pending.is_empty() {
                if next >= plan.count {
                    break;
                }
                std::thread::sleep(due(next) - now);
                continue;
            }
            if now >= give_up {
                break;
            }
            let until = if next < plan.count {
                due(next)
            } else {
                give_up
            };
            match wait_readable(&self.stream, until.saturating_duration_since(now)) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => break,
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    let done = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                    while let Some(len) = frame_len(&self.buf) {
                        let Some(len) = len else {
                            self.dirty = true;
                            return (times, wrong);
                        };
                        let Some((q, t)) = pending.pop_front() else {
                            self.dirty = true;
                            return (times, wrong);
                        };
                        if self.buf[8..8 + len] == queries[q].expected[..] {
                            times[t].done = Some(done);
                        } else {
                            wrong += 1;
                        }
                        self.buf.drain(..8 + len);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
        }
        // Requests never sent (a broken connection) fail too.
        while next < plan.count {
            times.push(RequestTimes {
                due: due(next),
                sent: due(next),
                done: None,
            });
            next += LANES;
        }
        if !pending.is_empty() || !self.buf.is_empty() {
            self.dirty = true;
        }
        (times, wrong)
    }
}

/// Waits until `stream` has input or `timeout` passes; `Ok(true)` when
/// input is ready. Uses `ppoll(2)` for its nanosecond timeout: socket read
/// timeouts are rounded up to whole scheduler ticks, milliseconds, which
/// would make the generator late by as much.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 0x1;

    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call, `nfds` is 1, and a null signal mask leaves the mask as is.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// The payload length of the first complete frame in `buf`: `None` when
/// it has not fully arrived, `Some(None)` when the header is invalid.
fn frame_len(buf: &[u8]) -> Option<Option<usize>> {
    let header: &[u8; 8] = buf.get(..8)?.try_into().expect("8 bytes");
    match parse_header(header) {
        Ok(len) if buf.len() >= 8 + len as usize => Some(Some(len as usize)),
        Ok(_) => None,
        Err(_) => Some(None),
    }
}

/// One step of the open loop: `count` requests at `rate`, starting at
/// `t0`, taking queries from `offset` on in the pool.
struct StepPlan {
    t0: Instant,
    rate: f64,
    count: usize,
    offset: usize,
}

/// What one step measured.
struct Step {
    /// Every request's timeline, in due order.
    times: Vec<RequestTimes>,
    latency: StepLatency,
    /// Median latency of the step's last tenth, by due time: a backlog
    /// still growing at the end of the step shows here.
    tail_median_ms: f64,
}

impl Step {
    /// Whether the step met the latency limit without a growing backlog.
    fn meets_limit(&self) -> bool {
        self.latency.failed == 0
            && percentile_allowed(self.latency.attempted(), 99.0)
            && self.latency.latency_pct(99.0) <= LIMIT_MS
            && self.tail_median_ms <= LIMIT_MS
    }
}

/// The open-loop load generator over `LANES` connections.
pub struct OpenLoop {
    lanes: Vec<Lane>,
    offset: usize,
    /// Requests attempted over every step.
    pub attempted: usize,
    /// Requests failed (no reply, or a wrong one) over every step.
    pub failed: usize,
    /// Wrong replies over every step.
    pub wrong: usize,
}

impl OpenLoop {
    /// Connects every lane to the server at `addr`.
    pub fn new(addr: SocketAddr) -> Result<Self, String> {
        let lanes = (0..LANES)
            .map(|_| Lane::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self {
            lanes,
            offset: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
        })
    }

    fn step(&mut self, queries: &[Query], rate: f64, count: usize) -> Step {
        let plan = StepPlan {
            t0: Instant::now() + Duration::from_millis(2),
            rate,
            count,
            offset: self.offset,
        };
        self.offset = (self.offset + count) % queries.len();
        let plan = &plan;
        let results: Vec<(Vec<RequestTimes>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(lane, l)| s.spawn(move || l.drive(queries, plan, lane)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator lane panicked"))
                .collect()
        });
        let wrong: usize = results.iter().map(|(_, w)| w).sum();
        let mut times: Vec<RequestTimes> = results.into_iter().flat_map(|(t, _)| t).collect();
        times.sort_by_key(|t| t.due);
        let tail = StepLatency::from_times(&times[times.len() - times.len() / 10..]);
        let latency = StepLatency::from_times(&times);
        self.attempted += latency.attempted();
        self.failed += latency.failed;
        self.wrong += wrong;
        Step {
            tail_median_ms: if tail.attempted() == 0 {
                0.0
            } else {
                tail.latency_pct(50.0)
            },
            latency,
            times,
        }
    }

    /// A fifth of a second at the reference rate, not measured.
    pub fn warm_up(&mut self, queries: &[Query]) {
        self.step(queries, REFERENCE_RPS, (REFERENCE_RPS * 0.2) as usize);
    }

    /// `windows` windows of `WINDOW` consecutive requests at the
    /// reference rate, sent as one step.
    pub fn reference(&mut self, queries: &[Query], windows: usize) -> Vec<StepLatency> {
        let step = self.step(queries, REFERENCE_RPS, windows * WINDOW);
        step.times
            .chunks_exact(WINDOW)
            .map(StepLatency::from_times)
            .collect()
    }
}

/// The median over `windows` of `f` of each window.
pub fn across(windows: &[StepLatency], f: impl Fn(&StepLatency) -> f64) -> f64 {
    median(&windows.iter().map(f).collect::<Vec<_>>())
}

/// What the traced serve phase measured.
pub struct ServePhase {
    /// Highest rate meeting the limit: where the share of trials meeting
    /// it falls through one half.
    pub max_rps: f64,
    /// Requests attempted, failed, and answered wrongly.
    pub attempted: usize,
    /// See `attempted`.
    pub failed: usize,
    /// See `attempted`.
    pub wrong: usize,
    /// Server stage histograms over the reference windows, and the
    /// generator's side.
    pub layers: Vec<Metric>,
}

/// Runs the traced serve phase within `budget`: a warm-up, then the
/// reference rate and the rate search, interleaved, with the server
/// recording its stage histograms.
///
/// The host this runs on has slow spells lasting seconds, so neither
/// measurement is taken in one stretch. The reference rate is measured in
/// `TRIALS + 1` chunks, one before the search and one after each pass of
/// it; the search makes `TRIALS` passes over a grid of rates, one trial
/// per rate per pass. A slow spell then lands in a few reference windows
/// and a few trials of every rate alike, and the medians and shares
/// shrug it off.
pub fn traced(started: Started, queries: &[Query], budget: Duration) -> Result<ServePhase, String> {
    let start = Instant::now();
    let registry = started
        .registry
        .as_deref()
        .ok_or("the server was started untraced")?;
    let mut load = OpenLoop::new(started.addr())?;
    load.warm_up(queries);

    let total = ((REFERENCE_RPS * budget.as_secs_f64() * REFERENCE_SHARE) as usize)
        .max(MIN_WINDOWS * WINDOW);
    let chunk = (total / (TRIALS + 1) / WINDOW).max(1);
    let mut windows: Vec<StepLatency> = Vec::new();
    let mut stages = (vec![[0u64; HIST_BUCKETS]; STAGES.len()], 0u64);
    let mut reference = |load: &mut OpenLoop| {
        let before = snapshot(registry);
        windows.extend(load.reference(queries, chunk));
        let after = snapshot(registry);
        for (sum, (a, b)) in stages.0.iter_mut().zip(after.0.iter().zip(&before.0)) {
            for (s, (x, y)) in sum.iter_mut().zip(a.iter().zip(b)) {
                *s += x.saturating_sub(*y);
            }
        }
        stages.1 += after.1.saturating_sub(before.1);
    };
    let meets_limit = |load: &mut OpenLoop, rate: f64| {
        let count = ((rate * TRIAL_SECS) as usize).max(WINDOW);
        load.step(queries, rate, count).meets_limit()
    };

    // First pass: climb the grid by `RATE_STEP` until three rates in a row
    // miss the limit, which marks its top.
    reference(&mut load);
    let pass_start = Instant::now();
    let (mut rates, mut met) = (Vec::new(), Vec::new());
    let mut rate = REFERENCE_RPS / 2.0;
    let mut misses = 0;
    while misses < 3 && start.elapsed() < budget / 2 {
        let ok = meets_limit(&mut load, rate);
        rates.push(rate);
        met.push(usize::from(ok));
        misses = if ok { 0 } else { misses + 1 };
        rate *= RATE_STEP;
    }
    reference(&mut load);
    let pass = pass_start.elapsed();
    let mut passes = 1;
    while passes < TRIALS && start.elapsed() + pass < budget {
        for (r, m) in rates.iter().zip(met.iter_mut()) {
            *m += usize::from(meets_limit(&mut load, *r));
        }
        passes += 1;
        reference(&mut load);
    }
    let shares: Vec<f64> = met.iter().map(|&m| m as f64 / passes as f64).collect();
    started.shutdown();

    let mut layers = stage_layers(&stages);
    layers.extend([
        (
            "client.latency_p90_ms",
            across(&windows, |w| w.latency_pct(90.0)),
            "ms",
        ),
        (
            "client.latency_p99_ms",
            across(&windows, |w| w.latency_pct(99.0)),
            "ms",
        ),
        (
            "client.lag_ms_p99",
            across(&windows, |w| percentile(&w.lag_ms, 99.0)),
            "ms",
        ),
        (
            "client.samples",
            windows.iter().map(StepLatency::attempted).sum::<usize>() as f64,
            "count",
        ),
    ]);
    Ok(ServePhase {
        max_rps: half_crossing(&rates, &shares).unwrap_or(0.0),
        attempted: load.attempted,
        failed: load.failed,
        wrong: load.wrong,
        layers,
    })
}

type HistSnapshot = Vec<[u64; HIST_BUCKETS]>;

const STAGES: [HistKind; 7] = [
    HistKind::ServeDecode,
    HistKind::ServeQueueWait,
    HistKind::ServeBatchForm,
    HistKind::ServeScan,
    HistKind::ServeEncode,
    HistKind::ServeWriteBack,
    HistKind::ServeBatchJobs,
];

fn snapshot(registry: &TraceShared) -> (HistSnapshot, u64) {
    (
        STAGES.iter().map(|&h| registry.hist_counts(h)).collect(),
        registry.hist_sum(HistKind::ServeBatchJobs),
    )
}

/// Server stage percentiles from histogram counts summed over the
/// reference chunks, and the mean batch size.
fn stage_layers(counts: &(HistSnapshot, u64)) -> Vec<Metric> {
    let us = |i: usize, q: f64| quantile_nanos(&counts.0[i], q).map_or(0.0, |n| n as f64 / 1e3);
    let batches: u64 = counts.0[6].iter().sum();
    // Batch sizes are recorded as `jobs * 1000` nanoseconds.
    let jobs = counts.1 as f64 / 1e3;
    vec![
        ("serve.decode_us_p99", us(0, 0.99), "us"),
        ("serve.queue_wait_us_p50", us(1, 0.50), "us"),
        ("serve.queue_wait_us_p99", us(1, 0.99), "us"),
        ("serve.batch_form_us_p99", us(2, 0.99), "us"),
        ("serve.scan_us_p50", us(3, 0.50), "us"),
        ("serve.scan_us_p99", us(3, 0.99), "us"),
        ("serve.encode_us_p99", us(4, 0.99), "us"),
        ("serve.write_back_us_p99", us(5, 0.99), "us"),
        (
            "serve.batch_size_mean",
            if batches > 0 {
                jobs / batches as f64
            } else {
                0.0
            },
            "count",
        ),
    ]
}
