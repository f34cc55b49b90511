//! Measurement rules shared by every workload: phases, batches, spans,
//! order statistics, digests and the machine fingerprint.
//!
//! Two kinds of time never mix. *Virtual* time is read from
//! `SimWorld::now()` and repeats exactly for a seed; *host* time is read
//! from `Instant` here and nowhere else.

// simlint: allow-file(D2, reason = "the benchmark harness measures host wall time by design; nothing here feeds event ordering or digests")

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Run phase is cut into this many equal op batches.
pub const BATCHES: u64 = 20;
/// Untimed warm-up, as a share of the timed ops (5 %).
pub const WARMUP_DIVISOR: u64 = 20;
/// No host number is reported from less accumulated timed work.
pub const MIN_TIMED_S: f64 = 0.050;
/// `setup_s` accumulates at least this much build time …
pub const SETUP_ACCUMULATE_S: f64 = 0.5;
/// … over at least this many fresh builds …
pub const SETUP_MIN_BUILDS: usize = 5;
/// … and at most this many, once [`MIN_TIMED_S`] has accumulated (a
/// world that builds in microseconds keeps going until it has).
pub const SETUP_MAX_BUILDS: usize = 201;
/// Hard stop for builds too fast to ever accumulate [`MIN_TIMED_S`].
pub const SETUP_HARD_CAP: usize = 20_001;

// --------------------------------------------------------------------- //
// Order statistics
// --------------------------------------------------------------------- //

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of the fastest quarter of `v` (at least one sample).
///
/// Every host time the benchmark reports is this statistic over repeated
/// samples. Interference only ever makes a sample slower, and on a
/// shared machine it comes in episodes of seconds during which half the
/// samples of a run can be 5–10 % slow: the median then reads whichever
/// state the machine was in for most of the run, while the fastest
/// quarter reads the undisturbed speed. Over ten runs of each workload
/// the interquartile spread of the run-phase rate was 2–4 times smaller
/// with this than with the median.
pub fn fastest_quarter_mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len().div_ceil(4);
    s[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a, 64-bit, streaming.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash of one buffer.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

// --------------------------------------------------------------------- //
// Spans: what the benchmark calls, layer by layer
// --------------------------------------------------------------------- //

/// Declares [`Call`] — every call the benchmark makes into a layer of
/// the program — with its `(layer, function)` label, from one list.
macro_rules! calls {
    ($($(#[$doc:meta])* $variant:ident => ($layer:literal, $func:literal),)*) => {
        /// A call the benchmark makes into a layer of the program. The
        /// discriminant indexes the per-call totals.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Call { $($(#[$doc])* $variant,)* }

        const ALL_CALLS: &[Call] = &[$(Call::$variant,)*];

        impl Call {
            /// `(layer, function)` as printed in the span file.
            pub fn name(self) -> (&'static str, &'static str) {
                match self { $(Call::$variant => ($layer, $func),)* }
            }
        }
    };
}

calls! {
    /// One whole op, as the workload defines it (the root of its calls).
    Op => ("harness", "op"),
    /// One fresh build of the workload's world (the root of set-up).
    Build => ("harness", "build"),
    SanPair => ("simnet.topology", "san_pair"),
    PairOver => ("simnet.topology", "pair_over"),
    RuntimesForCluster => ("core.runtime", "runtimes_for_cluster"),
    GridStar => ("gridtopo.builder", "GridTopology::star"),
    RuntimesForGrid => ("core.runtime", "runtimes_for_grid"),
    VlinkListen => ("core.vlink", "PadicoRuntime::vlink_listen"),
    VlinkConnect => ("core.vlink", "PadicoRuntime::vlink_connect"),
    VlinkPostWrite => ("core.vlink", "VLink::post_write_bytes"),
    VlinkClose => ("core.vlink", "VLink::close"),
    CircuitCreate => ("core.circuit", "PadicoRuntime::circuit_create"),
    CircuitSend => ("core.circuit", "Circuit::send_bytes"),
    MpiNew => ("middleware.mpi", "MpiComm::new"),
    MpiSend => ("middleware.mpi", "MpiComm::send"),
    OrbActivate => ("middleware.corba", "Orb::activate"),
    OrbInvoke => ("middleware.corba", "Orb::invoke"),
    JavaBind => ("middleware.javasock", "JavaServerSocket::bind"),
    JavaConnect => ("middleware.javasock", "JavaSocket::connect"),
    JavaWrite => ("middleware.javasock", "JavaSocket::write"),
    MadOpen => ("madeleine.channel", "Madeleine::open_channel"),
    MadPack => ("madeleine.channel", "begin_packing..end_packing"),
    MadIoNew => ("netaccess.madio", "NetAccess::new"),
    MadIoSend => ("netaccess.madio", "MadIO::send_bytes"),
    TcpConnect => ("transport.tcp", "TcpStack::connect"),
    TcpSend => ("transport.tcp", "TcpConn::send_bytes"),
    ParallelConnect => ("transport.parallel", "ParallelStream::connect"),
    ParallelSend => ("transport.parallel", "ParallelStream::send_bytes"),
    SendFrame => ("simnet.frame", "SimWorld::send_frame"),
    RunWhile => ("simnet.world", "SimWorld::run_while"),
    Run => ("simnet.world", "SimWorld::run"),
    MetricsSnapshot => ("simnet.telemetry", "SimWorld::metrics_snapshot"),
    ToJson => ("simnet.telemetry", "MetricsSnapshot::to_json"),
    PathInfo => ("gridtopo.hier", "GridRoutes::path_info"),
    ApplyDelta => ("gridtopo.hier", "GridTopology::apply_delta"),
    VlinkDecision => ("core.selector", "PadicoRuntime::vlink_decision"),
    RunPartitioned => ("simnet.partition", "run_partitioned"),
    PartitionBuild => ("simnet.partition", "build closure"),
}

const CALLS: usize = ALL_CALLS.len();

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, `u32::MAX` for a root.
    pub parent: u32,
    /// Op the span belongs to (`u64::MAX` outside the run phase).
    pub op: u64,
}

/// Totals per call: how often, how long, and how long net of the calls
/// it enclosed.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    call: Call,
    start_ns: u64,
    child_ns: u64,
    log_index: u32,
}

/// Token returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[must_use]
pub struct SpanGuard(bool);

struct SpanLog {
    open: Vec<Open>,
    log: Vec<Span>,
    /// Spans beyond [`Spans::LOG_CAP`] are totalled but not kept.
    dropped: u64,
    totals: [CallTotals; CALLS],
}

/// In-memory span recorder, shared (`Rc<Spans>`) between the driver and
/// the callbacks it installs in the simulated world. Off, `enter` and
/// `exit` cost one branch each.
pub struct Spans {
    on: Cell<bool>,
    epoch: Instant,
    inner: RefCell<SpanLog>,
}

impl Spans {
    /// Raw spans kept for the span file; totals cover every span.
    pub const LOG_CAP: usize = 50_000;

    pub fn new() -> Rc<Spans> {
        Rc::new(Spans {
            on: Cell::new(false),
            epoch: Instant::now(),
            inner: RefCell::new(SpanLog {
                open: Vec::new(),
                log: Vec::new(),
                dropped: 0,
                totals: [CallTotals::default(); CALLS],
            }),
        })
    }

    /// Switches recording on or off (between batches, never inside a span).
    pub fn set_on(&self, on: bool) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.open.is_empty(), "span recorder toggled inside a span");
        if on && inner.log.capacity() == 0 {
            inner.log.reserve_exact(Self::LOG_CAP);
            inner.open.reserve(16);
        }
        self.on.set(on);
    }

    #[inline]
    pub fn enter(&self, call: Call, op: u64) -> SpanGuard {
        if !self.on.get() {
            return SpanGuard(false);
        }
        let mut inner = self.inner.borrow_mut();
        let log_index = if inner.log.len() < Self::LOG_CAP {
            let parent = inner.open.last().map_or(u32::MAX, |o| o.log_index);
            inner.log.push(Span {
                call,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            (inner.log.len() - 1) as u32
        } else {
            inner.dropped += 1;
            u32::MAX
        };
        inner.open.push(Open {
            call,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            child_ns: 0,
            log_index,
        });
        SpanGuard(true)
    }

    #[inline]
    pub fn exit(&self, guard: SpanGuard) {
        if !guard.0 {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        let o = inner.open.pop().expect("exit without enter");
        let dur = end_ns - o.start_ns;
        let t = &mut inner.totals[o.call as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = inner.open.last_mut() {
            parent.child_ns += dur;
        }
        if o.log_index != u32::MAX {
            let s = &mut inner.log[o.log_index as usize];
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Adds `count` calls totalling `ns` that ran where this recorder
    /// cannot follow (another thread); no-op while off.
    pub fn add(&self, call: Call, count: u64, ns: u64) {
        if self.on.get() {
            let t = &mut self.inner.borrow_mut().totals[call as usize];
            t.count += count;
            t.total_ns += ns;
            t.self_ns += ns;
        }
    }

    /// Totals of one call.
    pub fn totals(&self, call: Call) -> CallTotals {
        self.inner.borrow().totals[call as usize]
    }

    /// Every call with at least one span, in declaration order.
    pub fn all_totals(&self) -> Vec<(Call, CallTotals)> {
        let inner = self.inner.borrow();
        ALL_CALLS
            .iter()
            .map(|&c| (c, inner.totals[c as usize]))
            .filter(|(_, t)| t.count > 0)
            .collect()
    }

    /// The raw spans kept and how many more were only totalled.
    pub fn log(&self) -> (Vec<Span>, u64) {
        let inner = self.inner.borrow();
        (inner.log.clone(), inner.dropped)
    }
}

// --------------------------------------------------------------------- //
// Phases
// --------------------------------------------------------------------- //

/// Host seconds spent in `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Times a call repeatedly until both `min_calls` and `min_total_s` are
/// reached (at most `max_calls`). Returns
/// `(fastest_quarter_mean_s, calls, total_s)`.
pub fn repeated_call_s(
    min_calls: usize,
    max_calls: usize,
    min_total_s: f64,
    mut f: impl FnMut(),
) -> (f64, usize, f64) {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < min_calls || (total < min_total_s && samples.len() < max_calls) {
        let ((), s) = timed(&mut f);
        samples.push(s);
        total += s;
    }
    (fastest_quarter_mean(&samples), samples.len(), total)
}

/// Host timing of the run phase: one sample per batch.
#[derive(Clone, Debug, Default)]
pub struct BatchTimes {
    pub ops_per_batch: u64,
    pub seconds: Vec<f64>,
}

impl BatchTimes {
    pub fn total_s(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Ops per second at `pick(batch times)`; 0 for a run that failed
    /// before its first batch.
    fn rate(&self, pick: impl Fn(&[f64]) -> f64) -> f64 {
        if self.seconds.is_empty() {
            return 0.0;
        }
        self.ops_per_batch as f64 / pick(&self.seconds)
    }

    /// Ops per batch ÷ mean of the fastest quarter of the batch times:
    /// the reported `host_ops_per_s` (see [`fastest_quarter_mean`]).
    pub fn fast_rate(&self) -> f64 {
        self.rate(fastest_quarter_mean)
    }

    /// Ops per batch ÷ median batch time.
    pub fn median_rate(&self) -> f64 {
        self.rate(median)
    }

    pub fn min_rate(&self) -> f64 {
        self.rate(|s| s.iter().copied().fold(0.0, f64::max))
    }

    pub fn max_rate(&self) -> f64 {
        self.rate(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// (max − min) ÷ median batch rate.
    pub fn spread(&self) -> f64 {
        if self.seconds.is_empty() {
            return 0.0;
        }
        (self.max_rate() - self.min_rate()) / self.median_rate()
    }
}

// --------------------------------------------------------------------- //
// Machine fingerprint
// --------------------------------------------------------------------- //

/// Where and how a result was produced; printed with every result.
pub struct Fingerprint {
    pub cores: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub os: &'static str,
    pub arch: &'static str,
}

pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: env!("GRIDBENCH_RUSTC"),
        profile: env!("GRIDBENCH_PROFILE"),
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` does not exist. Diagnostic only.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
