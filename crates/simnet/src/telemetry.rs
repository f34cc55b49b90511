//! Unified telemetry: the metrics registry, typed event tracing and the
//! per-stream flight recorder.
//!
//! Every layer of the stack used to expose its own ad-hoc stats surface
//! (anonymous tuples, per-crate structs, free-form trace strings). This
//! module unifies them:
//!
//! * [`MetricsRegistry`] — counters, gauges and log₂-bucketed histograms
//!   keyed by a hierarchical dotted name plus sorted labels
//!   (`relay.proxy.bytes_forward{gw=5}`). Components either register
//!   live instruments once, or register a *collector* closure that mirrors
//!   an existing stats struct at scrape time. A scrape produces a
//!   [`MetricsSnapshot`] whose iteration order (and therefore JSON) is
//!   deterministic: identical seeded runs render bit-identical documents.
//! * [`EventRing`] / [`TraceEvent`] — typed, allocation-free event records
//!   with virtual timestamps and [`CauseId`] correlation. The ring
//!   evicts oldest-first at capacity and counts what it evicted.
//! * [`FlightRecorder`] — a bounded per-stream log of lifecycle
//!   transitions (dial, credit stall, migration, re-dial, close) so a
//!   fault-injection failure prints a forensic timeline instead of a bare
//!   assert.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::frame::ProtoId;
use crate::network::NetworkId;
use crate::node::NodeId;
use crate::time::SimTime;

// --------------------------------------------------------------------- //
// Metric keys
// --------------------------------------------------------------------- //

/// Canonical metric key: `name{k1=v1,k2=v2}` with labels sorted by key
/// (no braces when there are no labels). Every registry and snapshot API
/// keys metrics by this string.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        !name.contains(['{', '}', '"', '\\']),
        "metric names must stay JSON-safe: {name}"
    );
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    // Exact size: a snapshot keeps every key alive, so slack adds up.
    let labels_len: usize = sorted.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
    let len = name.len() + 1 + labels_len;
    let mut key = String::with_capacity(len);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        debug_assert!(
            !k.contains(['{', '}', '"', '\\', '=', ',']) && !v.contains(['{', '}', '"', '\\']),
            "metric labels must stay JSON-safe: {k}={v}"
        );
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    debug_assert_eq!(key.len(), len);
    key
}

// --------------------------------------------------------------------- //
// Log₂ histogram
// --------------------------------------------------------------------- //

/// A log₂-bucketed histogram of `u64` samples. Bucket `k` counts samples
/// `v` with `2^(k-1) <= v < 2^k` (bucket 0 counts zeros), so byte sizes
/// and durations compress into at most 65 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty `(bucket, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b as u32, c))
            .collect()
    }

    /// Accumulates another histogram into this one, bucket-wise.
    pub fn absorb(&mut self, other: &Log2Histogram) {
        for (b, c) in other.buckets() {
            self.counts[b as usize] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

// --------------------------------------------------------------------- //
// Live instruments
// --------------------------------------------------------------------- //

/// A monotonically increasing counter handle (cloned handles share the
/// same underlying cell).
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.set(self.0.get() + delta);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A gauge handle: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.set(value);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.set(self.0.get() + delta);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// A shared histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Rc<RefCell<Log2Histogram>>);

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.0.borrow_mut().observe(value);
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> Log2Histogram {
        self.0.borrow().clone()
    }
}

// --------------------------------------------------------------------- //
// Snapshot
// --------------------------------------------------------------------- //

/// One scraped metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(i64),
    /// Log₂ distribution (count, sum, non-empty buckets). Boxed: the 65
    /// fixed buckets would otherwise dominate every entry's footprint.
    Histogram(Box<Log2Histogram>),
}

/// Accumulates metric values during a scrape. Counters merge by addition
/// when several components report under the same key; gauges and
/// histograms overwrite.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    entries: BTreeMap<String, MetricValue>,
}

impl SnapshotBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports a counter value.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = metric_key(name, labels);
        match self.entries.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += value,
            other => *other = MetricValue::Counter(value),
        }
    }

    /// Reports a gauge value.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.entries
            .insert(metric_key(name, labels), MetricValue::Gauge(value));
    }

    /// Reports a histogram.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], value: Log2Histogram) {
        self.entries.insert(
            metric_key(name, labels),
            MetricValue::Histogram(Box::new(value)),
        );
    }

    /// Finishes the scrape.
    pub fn finish(self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.entries,
        }
    }
}

/// A deterministic point-in-time scrape of every registered metric,
/// sorted by canonical key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under a canonical key (see [`metric_key`]).
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.get(key)
    }

    /// Counter value under a canonical key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.entries.get(key) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value under a canonical key.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        match self.entries.get(key) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Sum of every counter whose *name* (the part before any `{`)
    /// matches `name` exactly — i.e. the same metric summed over all label
    /// sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name || k.starts_with(name) && k[name.len()..].starts_with('{')
            })
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Iterates `(key, value)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `(key, value)` pairs whose key starts with `prefix`, in order.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a MetricValue)> + 'a {
        self.entries
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the snapshot as a JSON document. Keys are sorted, numbers
    /// are integers, histograms become
    /// `{"count": …, "sum": …, "buckets": {"<bucket>": count, …}}` — the
    /// output is bit-identical across identical seeded runs.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"metrics\": {\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let _ = write!(s, "    \"{key}\": ");
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(s, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(s, "{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        s,
                        "{{\"count\": {}, \"sum\": {}, \"buckets\": {{",
                        h.count(),
                        h.sum()
                    );
                    for (j, (bucket, count)) in h.buckets().iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(s, "\"{bucket}\": {count}");
                    }
                    s.push_str("}}");
                }
            }
            s.push_str(if i + 1 == self.entries.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Like [`to_json`](Self::to_json), but with every entry whose key
    /// starts with one of `prefixes` omitted. The comparison surface for
    /// cross-executor equivalence: executor-internal bookkeeping
    /// (`sim.executor.*`) exists only on partition shards and is
    /// stripped before asserting byte-identity with the single queue.
    pub fn to_json_excluding(&self, prefixes: &[&str]) -> String {
        let filtered = MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| !prefixes.iter().any(|p| k.starts_with(p)))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        };
        filtered.to_json()
    }

    /// Merges per-shard snapshots of one partitioned run into the
    /// single-world view: counters add, gauges take the maximum (mirror
    /// worlds report identical structural gauges, and per-gateway
    /// high-water marks live in exactly one world each — the others hold
    /// zero), histograms accumulate bucket-wise.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
        let mut entries: BTreeMap<String, MetricValue> = BTreeMap::new();
        for part in parts {
            for (key, value) in &part.entries {
                match entries.entry(key.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        match (e.get_mut(), value) {
                            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                                a.absorb(b);
                            }
                            (slot, other) => *slot = other.clone(),
                        }
                    }
                }
            }
        }
        MetricsSnapshot { entries }
    }
}

/// Cross-checks the conservation laws every quiesced snapshot must
/// obey, returning one human-readable line per violation (empty ==
/// healthy):
///
/// * per simulated network, frames dropped + unclaimed ≤ frames sent
///   (a network can only lose what actually entered it);
/// * events executed + cancelled ≤ events scheduled (an event ends one
///   way at most — more means `SimWorld::cancel` was handed the id of an
///   event that had already fired);
/// * no stream left parked on trunk memory, and no received byte left
///   unconsumed in trunk receive buffers;
/// * on a partitioned run, every frame a shard world emitted across the
///   boundary was injected into another (`sim.executor.cross_out ==
///   cross_in`; a merged snapshot sums both over the shards).
pub fn conservation_violations(snap: &MetricsSnapshot) -> Vec<String> {
    let mut violations = Vec::new();

    // Per-network frame accounting: a network cannot drop or strand more
    // frames than were ever pushed onto it.
    let sent_keys: Vec<String> = snap
        .with_prefix("sim.net.frames_sent{")
        .map(|(k, _)| k.to_string())
        .collect();
    for key in sent_keys {
        let labels = &key["sim.net.frames_sent".len()..];
        let sent = snap.counter(&key).unwrap_or(0);
        let dropped = snap
            .counter(&format!("sim.net.frames_dropped{labels}"))
            .unwrap_or(0);
        let unclaimed = snap
            .counter(&format!("sim.net.frames_unclaimed{labels}"))
            .unwrap_or(0);
        if dropped + unclaimed > sent {
            violations.push(format!(
                "frame over-accounting on net {labels}: dropped {dropped} \
                 + unclaimed {unclaimed} > sent {sent}"
            ));
        }
    }

    // Event accounting: every scheduled event is executed, cancelled or
    // still pending — never two of those. `SimWorld::cancel` refuses fired
    // ids, so this holds on every run; the gate keeps it that way.
    let scheduled = snap.counter("sim.world.events_scheduled").unwrap_or(0);
    let executed = snap.counter("sim.world.events_executed").unwrap_or(0);
    let cancelled = snap.counter("sim.world.events_cancelled").unwrap_or(0);
    if executed + cancelled > scheduled {
        violations.push(format!(
            "event over-accounting: executed {executed} + cancelled {cancelled} \
             > scheduled {scheduled}"
        ));
    }

    // Trunk memory fully drained: nothing parked, nothing buffered.
    for (key, _) in snap.with_prefix("trunk.memory.parked_streams{") {
        if let Some(parked) = snap.gauge(key) {
            if parked != 0 {
                violations.push(format!("{parked} streams left parked at {key}"));
            }
        }
    }
    for (key, _) in snap.with_prefix("trunk.memory.recv_occupancy{") {
        if let Some(held) = snap.gauge(key) {
            if held != 0 {
                violations.push(format!(
                    "{held} bytes left in trunk receive buffers at {key}"
                ));
            }
        }
    }

    // Cross-shard conservation: no frame vanishes or duplicates in transit
    // between shard worlds.
    if let Some(cross_out) = snap.counter("sim.executor.cross_out") {
        let cross_in = snap.counter("sim.executor.cross_in").unwrap_or(0);
        if cross_out != cross_in {
            violations.push(format!(
                "cross-shard frame leak: cross_out {cross_out} != cross_in {cross_in}"
            ));
        }
    }

    violations
}

/// Concatenates labeled snapshots into one deterministic digest string —
/// the comparison surface for partitioned executor runs, where each
/// shard world produces its own snapshot and "bit-for-bit identical"
/// must hold over the whole fleet, not one world.
///
/// The caller supplies parts in a canonical order (e.g. sorted by shard
/// index); the digest is exactly `<header>\n<snapshot JSON>` per part.
pub fn merged_digest<'a>(parts: impl Iterator<Item = (String, &'a MetricsSnapshot)>) -> String {
    let mut out = String::new();
    for (header, snapshot) in parts {
        out.push_str(&header);
        out.push('\n');
        out.push_str(&snapshot.to_json());
    }
    out
}

// --------------------------------------------------------------------- //
// Registry
// --------------------------------------------------------------------- //

type Collector = Box<dyn Fn(&mut SnapshotBuilder)>;

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    collectors: Vec<Collector>,
}

/// The shared metrics registry. Cloning the handle shares the registry;
/// one lives on every [`crate::SimWorld`] (`world.metrics`) so each layer
/// of the stack registers into the same namespace.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves, if the key is already registered) the
    /// counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner
            .borrow_mut()
            .counters
            .entry(metric_key(name, labels))
            .or_default()
            .clone()
    }

    /// Registers (or retrieves) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner
            .borrow_mut()
            .gauges
            .entry(metric_key(name, labels))
            .or_default()
            .clone()
    }

    /// Registers (or retrieves) the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.inner
            .borrow_mut()
            .histograms
            .entry(metric_key(name, labels))
            .or_default()
            .clone()
    }

    /// Registers a collector closure that mirrors an existing stats
    /// surface into the snapshot at every scrape.
    pub fn register_collector(&self, f: impl Fn(&mut SnapshotBuilder) + 'static) {
        self.inner.borrow_mut().collectors.push(Box::new(f));
    }

    /// Number of registered collectors.
    pub fn collector_count(&self) -> usize {
        self.inner.borrow().collectors.len()
    }

    /// Scrapes every instrument and collector into `builder`.
    pub fn collect_into(&self, builder: &mut SnapshotBuilder) {
        let inner = self.inner.borrow();
        for (key, c) in &inner.counters {
            match builder
                .entries
                .entry(key.clone())
                .or_insert(MetricValue::Counter(0))
            {
                MetricValue::Counter(v) => *v += c.get(),
                other => *other = MetricValue::Counter(c.get()),
            }
        }
        for (key, g) in &inner.gauges {
            builder
                .entries
                .insert(key.clone(), MetricValue::Gauge(g.get()));
        }
        for (key, h) in &inner.histograms {
            builder
                .entries
                .insert(key.clone(), MetricValue::Histogram(Box::new(h.snapshot())));
        }
        for collector in &inner.collectors {
            collector(builder);
        }
    }

    /// Scrapes a standalone snapshot (instruments + collectors only; the
    /// world adds its own counters in `SimWorld::metrics_snapshot`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut builder = SnapshotBuilder::new();
        self.collect_into(&mut builder);
        builder.finish()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("collectors", &inner.collectors.len())
            .finish()
    }
}

// --------------------------------------------------------------------- //
// Typed event tracing
// --------------------------------------------------------------------- //

/// Correlates the records of one logical journey (e.g. one relayed
/// stream's credit stalls and its migration to another gateway).
/// Allocated from [`EventRing::next_cause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CauseId(pub u64);

impl std::fmt::Display for CauseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One typed, allocation-free trace event. Virtual timestamps live on the
/// enclosing [`TimedEvent`]; a relayed stream's events carry its id as
/// their [`TraceEvent::cause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame was accepted for transmission on a network.
    FrameSent {
        /// Network carrying the frame.
        net: NetworkId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Protocol.
        proto: ProtoId,
        /// Payload bytes.
        bytes: u32,
    },
    /// The loss model discarded a frame at transmit time.
    FrameLost {
        /// Network carrying the frame.
        net: NetworkId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Protocol.
        proto: ProtoId,
        /// Payload bytes.
        bytes: u32,
    },
    /// A frame arrived at a node with no registered handler.
    FrameUnclaimed {
        /// Network that delivered it.
        net: NetworkId,
        /// Destination node.
        dst: NodeId,
        /// Protocol nobody claimed.
        proto: ProtoId,
    },
    /// A relayed stream leg (un)stalled on trunk credits.
    CreditStall {
        /// Gateway-side node of the stalled leg.
        node: NodeId,
        /// Stream id (connection id of the failover stream).
        stream: u64,
    },
    /// The stalled stream resumed.
    CreditResume {
        /// Gateway-side node of the leg.
        node: NodeId,
        /// Stream id (connection id of the failover stream).
        stream: u64,
    },
    /// A relayed stream migrated off a dead trunk towards a new gateway.
    StreamMigrated {
        /// Stream id (connection id of the failover stream).
        stream: u64,
        /// Gateway the stream was using.
        from: NodeId,
        /// Gateway it re-resolved to.
        to: NodeId,
    },
    /// A gateway was marked down in a knowledge base.
    GatewayDown {
        /// The dead gateway.
        node: NodeId,
    },
    /// A down gateway resumed its backbone role.
    GatewayRestored {
        /// The recovered gateway.
        node: NodeId,
    },
    /// A backbone link flapped down in the routing tables.
    LinkDown {
        /// The masked network.
        net: NetworkId,
    },
    /// A flapped backbone link came back up.
    LinkUp {
        /// The restored network.
        net: NetworkId,
    },
    /// A new site was admitted into the running grid.
    SiteAdmitted {
        /// Site index in the layout.
        site: u32,
        /// Gateways the site brought.
        gateways: u32,
        /// Total member nodes (gateways included).
        nodes: u32,
    },
    /// A site began its graceful drain: streams quiesce, credits return,
    /// trunks retire.
    SiteDraining {
        /// Site index in the layout.
        site: u32,
    },
    /// The drained site left the grid; its routes are withdrawn.
    SiteDrained {
        /// Tombstoned site index.
        site: u32,
        /// Trunks retired during the drain.
        trunks_retired: u32,
    },
    /// The routing tables reconverged after one churn delta.
    Reconverged {
        /// Sites whose intra tables were recomputed (0 for pure flaps).
        sites_recomputed: u32,
        /// Gateways in the rebuilt backbone graph.
        backbone_gateways: u32,
    },
}

impl TraceEvent {
    /// The journey id carried by the event, when it has one: a relayed
    /// stream's id, drawn from [`EventRing::next_cause`] when the stream
    /// is dialed, so [`EventRing::journey`] gathers its stalls, resumes
    /// and migrations.
    pub fn cause(&self) -> Option<CauseId> {
        match self {
            TraceEvent::CreditStall { stream, .. }
            | TraceEvent::CreditResume { stream, .. }
            | TraceEvent::StreamMigrated { stream, .. } => Some(CauseId(*stream)),
            _ => None,
        }
    }
}

/// A [`TraceEvent`] plus the virtual time at which it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Virtual timestamp.
    pub time: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// The bounded typed-event sink: a ring buffer that evicts oldest-first
/// at capacity and counts evictions. Disabled by default — recording then
/// costs one branch and allocates nothing.
#[derive(Debug)]
pub struct EventRing {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TimedEvent>,
    dropped: u64,
    next_cause: u64,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing {
            enabled: false,
            capacity: 65_536,
            events: VecDeque::new(),
            dropped: 0,
            next_cause: 0,
        }
    }
}

impl EventRing {
    /// Creates a disabled ring with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Disables recording (existing events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the ring capacity; the oldest events are evicted immediately
    /// if the ring already exceeds it.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.events.len() > capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Allocates a fresh journey id (works while disabled too — ids stay
    /// stable whether or not anyone is watching).
    pub fn next_cause(&mut self) -> CauseId {
        self.next_cause += 1;
        CauseId(self.next_cause)
    }

    /// Records an event if enabled, evicting the oldest at capacity.
    pub fn record(&mut self, time: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        if self.capacity > 0 {
            self.events.push_back(TimedEvent { time, event });
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (oldest-first) since the last [`EventRing::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The journey of one cause id: every held event carrying it, in
    /// chronological order.
    pub fn journey(&self, cause: CauseId) -> Vec<TimedEvent> {
        self.events
            .iter()
            .filter(|e| e.event.cause() == Some(cause))
            .copied()
            .collect()
    }

    /// Clears events and the eviction counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

// --------------------------------------------------------------------- //
// Flight recorder
// --------------------------------------------------------------------- //

/// One lifecycle transition of a relayed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamTransition {
    /// First dial of the stream's onward leg through a gateway.
    Dialed {
        /// Gateway dialed.
        gateway: NodeId,
    },
    /// The stream's trunk stalled on exhausted credits.
    CreditStalled,
    /// The stalled trunk resumed.
    CreditResumed,
    /// The carrier under the stream died.
    CarrierDead {
        /// Gateway whose trunk died.
        gateway: NodeId,
    },
    /// The stream re-resolved its route to a surviving gateway.
    Migrated {
        /// Old gateway.
        from: NodeId,
        /// New gateway.
        to: NodeId,
    },
    /// The stream re-dialed (same or new gateway) after a carrier death.
    Redialed {
        /// Gateway re-dialed.
        gateway: NodeId,
    },
    /// Unacknowledged bytes replayed onto the fresh connection.
    Replayed {
        /// Bytes resent.
        bytes: u64,
    },
    /// Orderly close.
    Closed,
    /// The stream gave up (no surviving route).
    Failed,
}

impl std::fmt::Display for StreamTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamTransition::Dialed { gateway } => write!(f, "dialed via {gateway}"),
            StreamTransition::CreditStalled => write!(f, "credit stall"),
            StreamTransition::CreditResumed => write!(f, "credit resume"),
            StreamTransition::CarrierDead { gateway } => write!(f, "carrier dead at {gateway}"),
            StreamTransition::Migrated { from, to } => write!(f, "migrated {from} -> {to}"),
            StreamTransition::Redialed { gateway } => write!(f, "re-dialed via {gateway}"),
            StreamTransition::Replayed { bytes } => write!(f, "replayed {bytes} unacked bytes"),
            StreamTransition::Closed => write!(f, "closed"),
            StreamTransition::Failed => write!(f, "failed (no surviving route)"),
        }
    }
}

/// A bounded per-stream log of the last N lifecycle transitions, kept
/// cheap enough to stay always-on. [`FlightRecorder::dump`] renders the
/// forensic timeline fault-injection failures print.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    label: String,
    capacity: usize,
    entries: VecDeque<(SimTime, StreamTransition)>,
    dropped: u64,
}

impl FlightRecorder {
    /// Default number of transitions retained per stream.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Creates a recorder for the stream labelled `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_capacity(label, Self::DEFAULT_CAPACITY)
    }

    /// Creates a recorder retaining the last `capacity` transitions.
    pub fn with_capacity(label: impl Into<String>, capacity: usize) -> Self {
        FlightRecorder {
            label: label.into(),
            capacity: capacity.max(1),
            entries: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The stream label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records a transition, evicting the oldest past capacity.
    pub fn record(&mut self, time: SimTime, transition: StreamTransition) {
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((time, transition));
    }

    /// Retained `(time, transition)` entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &(SimTime, StreamTransition)> {
        self.entries.iter()
    }

    /// Transitions evicted past the retention window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained timeline, one transition per line.
    pub fn dump(&self) -> String {
        let mut s = format!(
            "flight recorder [{}] — last {} transitions ({} evicted):\n",
            self.label,
            self.entries.len(),
            self.dropped
        );
        for (time, transition) in &self.entries {
            let _ = writeln!(s, "  [{:>14}] {}", time.to_string(), transition);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn metric_keys_sort_labels_canonically() {
        assert_eq!(metric_key("a.b", &[]), "a.b");
        assert_eq!(metric_key("a.b", &[("z", "1"), ("a", "2")]), "a.b{a=2,z=1}");
    }

    #[test]
    fn counters_merge_and_gauges_overwrite() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.count", &[("n", "1")]);
        c.add(3);
        reg.counter("x.count", &[("n", "1")]).add(4); // same instrument
        reg.gauge("x.gauge", &[]).set(-5);
        reg.register_collector(|b| b.counter("x.count", &[("n", "1")], 10));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x.count{n=1}"), Some(17));
        assert_eq!(snap.gauge("x.gauge"), Some(-5));
        assert_eq!(snap.counter_total("x.count"), 17);
    }

    #[test]
    fn snapshot_json_is_sorted_and_deterministic() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter("b.z", &[]).add(2);
            reg.counter("a.z", &[("gw", "3")]).add(1);
            let h = reg.histogram("a.h", &[]);
            h.observe(0);
            h.observe(1);
            h.observe(1500);
            reg.snapshot().to_json()
        };
        let json = build();
        assert_eq!(json, build(), "identical runs render bit-identically");
        let a = json.find("a.h").unwrap();
        let b = json.find("a.z").unwrap();
        let c = json.find("b.z").unwrap();
        assert!(a < b && b < c, "keys are sorted: {json}");
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"buckets\": {\"0\": 1, \"1\": 1, \"11\": 1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn log2_histogram_buckets_powers_of_two() {
        let mut h = Log2Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2057);
        // 0 -> b0; 1 -> b1; 2,3 -> b2; 4 -> b3; 1023 -> b10; 1024 -> b11.
        assert_eq!(
            h.buckets(),
            vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1), (11, 1)]
        );
    }

    #[test]
    fn event_ring_evicts_oldest_and_counts() {
        let mut ring = EventRing::new();
        ring.enable();
        ring.set_capacity(2);
        for i in 0..5u64 {
            ring.record(
                SimTime::from_nanos(i),
                TraceEvent::GatewayDown {
                    node: NodeId(i as u32),
                },
            );
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.events().map(|e| e.time.as_nanos()).collect();
        assert_eq!(kept, vec![3, 4], "oldest evicted first");
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = EventRing::new();
        ring.record(SimTime::ZERO, TraceEvent::GatewayDown { node: NodeId(0) });
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn journeys_filter_by_cause() {
        let mut ring = EventRing::new();
        ring.enable();
        let a = ring.next_cause();
        let b = ring.next_cause();
        assert_ne!(a, b);
        let (gw, spare) = (NodeId(4), NodeId(5));
        ring.record(
            SimTime::from_nanos(1),
            TraceEvent::CreditStall {
                node: gw,
                stream: a.0,
            },
        );
        ring.record(
            SimTime::from_nanos(2),
            TraceEvent::CreditStall {
                node: gw,
                stream: b.0,
            },
        );
        ring.record(SimTime::from_nanos(3), TraceEvent::GatewayDown { node: gw });
        ring.record(
            SimTime::from_nanos(4),
            TraceEvent::StreamMigrated {
                stream: a.0,
                from: gw,
                to: spare,
            },
        );
        ring.record(
            SimTime::from_nanos(5),
            TraceEvent::CreditResume {
                node: spare,
                stream: a.0,
            },
        );
        let journey = ring.journey(a);
        assert_eq!(journey.len(), 3, "{journey:?}");
        assert!(matches!(
            journey[1].event,
            TraceEvent::StreamMigrated { to: NodeId(5), .. }
        ));
        assert!(matches!(
            journey[2].event,
            TraceEvent::CreditResume {
                node: NodeId(5),
                ..
            }
        ));
        assert_eq!(ring.journey(b).len(), 1);
    }

    #[test]
    fn flight_recorder_keeps_last_n_and_dumps() {
        let mut fr = FlightRecorder::with_capacity("vl#7", 3);
        fr.record(
            SimTime::from_micros(1),
            StreamTransition::Dialed { gateway: NodeId(4) },
        );
        fr.record(SimTime::from_micros(2), StreamTransition::CreditStalled);
        fr.record(SimTime::from_micros(3), StreamTransition::CreditResumed);
        fr.record(
            SimTime::from_micros(4),
            StreamTransition::Migrated {
                from: NodeId(4),
                to: NodeId(5),
            },
        );
        fr.record(SimTime::from_micros(5), StreamTransition::Closed);
        assert_eq!(fr.entries().count(), 3);
        assert_eq!(fr.dropped(), 2);
        let dump = fr.dump();
        assert!(dump.contains("vl#7"), "{dump}");
        assert!(dump.contains("migrated"), "{dump}");
        assert!(dump.contains("closed"), "{dump}");
        assert!(!dump.contains("dialed via"), "evicted: {dump}");
    }
}
