//! The traced run: the workload's same generated inputs driven through
//! a minimal single-thread host that owns the same `PeerNode`s, delivers
//! frames FIFO and injects no faults, with spans recorded around calls
//! into each layer's public functions.
//!
//! Per delivered frame the host records a `host.deliver` span (query id
//! and hop from the frame header) with children:
//!
//! * `framing.encode` / `framing.decode` — `encode_frame` and a
//!   `FrameDecoder` round trip, for frames that cross a socket on the
//!   TCP driver (self-sends never do);
//! * `replay` (`mqp` frames) — the hop replayed through the public layer
//!   calls: `Frame::decode` → `Mqp::from_wire` → `Processor::process`
//!   (with a `ServerContext` wrapper over the receiving `Peer` timing
//!   `bind_urn`/`route` and `local_url_data`) → `Mqp::to_wire` →
//!   `Frame::encode`. Its outcome must equal the live `on_message`'s
//!   byte for byte, or it counts in `trace.replay_mismatch`;
//! * `catalog.register` / `durable.write` (`reg` frames at the durable
//!   meta index) — the registration replayed into a shadow copy of
//!   meta's catalog, taken when tracing starts, and its journal
//!   (`Catalog::register`, then `DurableCatalog::log` + `maybe_compact`);
//! * `xml.result_parse` (`res` frames) — the client's result reparse;
//! * `node.on_message.<kind>` — the live `PeerNode::on_message`.
//!
//! The multi-origin defense stays off (the default), so `Peer::process`
//! and the replay run the same code. Spans stay in memory and are
//! written to `.bench_out/` when the run ends.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mqp_algebra::plan::{Plan, UrlRef, UrnRef};
use mqp_catalog::durable::{CatalogOp, DurableCatalog, SharedDisk};
use mqp_catalog::{Catalog, ServerId};
use mqp_core::{Action, Mqp, Outcome, Policy, QueryId, QueryOutcome, ServerContext};
use mqp_peer::framing::{encode_frame, FrameDecoder};
use mqp_peer::wire::{Frame, MqpFrame, ResultFrame};
use mqp_peer::{Directory, Effect, Peer, PeerNode};
use mqp_xml::Batch;

use crate::disk::{CountingDisk, DiskCounters, DiskSnapshot};
use crate::loadgen::{judge, kind_of, Phase};
use crate::measure::{mean, median};
use crate::worlds::{Driver, Workload, META};

const NONE: u32 = u32::MAX;
/// Wall-clock budget of the traced pass; the untraced comparison pass
/// then runs the same number of queries.
const TRACE_BUDGET_S: f64 = 4.0;

struct Span {
    qid: u64,
    hop: u64,
    parent: u32,
    layer: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans and per-call counts, kept in memory.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    qid: u64,
    hop: u64,
    counts: HashMap<&'static str, Vec<f64>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            qid: 0,
            hop: 0,
            counts: HashMap::new(),
        }
    }

    fn open(&mut self, layer: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            qid: self.qid,
            hop: self.hop,
            parent: self.stack.last().copied().unwrap_or(NONE),
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.dur_ns = now - s.start_ns;
        self.stack.pop();
    }

    fn count(&mut self, name: &'static str, v: f64) {
        self.counts.entry(name).or_default().push(v);
    }
}

/// Runs `f` inside a span. The tracer is not borrowed while `f` runs,
/// so `f` may itself open spans.
fn span<R>(tracer: &RefCell<Tracer>, layer: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().open(layer);
    let r = f();
    tracer.borrow_mut().close(id);
    r
}

/// A `ServerContext` over a peer that times the catalog and store calls
/// the processor makes.
struct TimedCtx<'a> {
    peer: &'a Peer,
    tracer: &'a RefCell<Tracer>,
}

impl ServerContext for TimedCtx<'_> {
    fn id(&self) -> ServerId {
        ServerContext::id(self.peer)
    }

    fn now(&self) -> u64 {
        ServerContext::now(self.peer)
    }

    fn local_url_data(&self, url: &UrlRef) -> Option<Batch> {
        let r = self.timed("store.lookup", "store.lookup_miss", || {
            self.peer.local_url_data(url)
        });
        if let Some(items) = &r {
            self.tracer
                .borrow_mut()
                .count("store.items", items.len() as f64);
        }
        r
    }

    fn bind_urn(&self, urn: &UrnRef) -> Option<(Plan, String, u32)> {
        self.timed("catalog.bind", "catalog.bind_miss", || {
            self.peer.bind_urn(urn)
        })
    }

    fn route(&self, plan: &Plan, visited: &[ServerId]) -> Option<ServerId> {
        self.timed("catalog.route", "catalog.route_miss", || {
            self.peer.route(plan, visited)
        })
    }
}

impl TimedCtx<'_> {
    /// Times `f` as `hit`, or as `miss` when it finds nothing: a peer
    /// without the data or catalog entries answers in a few
    /// nanoseconds, and mixing those calls in would make the per-call
    /// median describe neither kind.
    fn timed<R>(
        &self,
        hit: &'static str,
        miss: &'static str,
        f: impl FnOnce() -> Option<R>,
    ) -> Option<R> {
        let id = self.tracer.borrow_mut().open(hit);
        let r = f();
        let mut t = self.tracer.borrow_mut();
        t.close(id);
        if r.is_none() {
            t.spans[id as usize].layer = miss;
        }
        r
    }
}

/// What the live `on_message` of an `mqp` frame should do, per replay.
#[derive(Debug, PartialEq)]
enum Expected {
    Send { to: usize, bytes: Vec<u8> },
    Complete { failure: Option<String> },
    Undecodable,
}

/// Query id and hop from a frame's header line, without a decode.
fn header(bytes: &[u8]) -> (Option<u64>, u64) {
    let end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len());
    let line = std::str::from_utf8(&bytes[..end]).unwrap_or("");
    let t: Vec<&str> = line.split(' ').collect();
    let qid = t.get(1).and_then(|s| s.parse().ok());
    let hop = match t[0] {
        "mqp" | "res" => t.get(3).and_then(|s| s.parse().ok()).unwrap_or(0),
        _ => 0,
    };
    (qid, hop)
}

fn kind_layer(kind: &str) -> &'static str {
    match kind {
        "mqp" => "node.on_message.mqp",
        "res" => "node.on_message.res",
        "reg" | "rereg" => "node.on_message.reg",
        _ => "node.on_message.other",
    }
}

/// The single-thread host.
struct Host<'w> {
    wl: &'w Workload,
    nodes: Vec<PeerNode>,
    queue: VecDeque<(usize, usize, Vec<u8>)>,
    epoch: Instant,
    framing: bool,
    outcomes: HashMap<u64, QueryOutcome>,
    tracer: Option<RefCell<Tracer>>,
    mismatches: Vec<String>,
    /// Shadow of the durable meta index's catalog and journal, for the
    /// registration replay.
    shadow: Option<(Catalog, DurableCatalog)>,
    meta_disk: Option<Arc<DiskCounters>>,
    /// Time spent in work only the traced host does: framing round
    /// trips, hop and registration replays, result reparses.
    replay_ns: u64,
    writes: u64,
    stuck: u64,
    current: u64,
}

impl<'w> Host<'w> {
    fn new(wl: &'w Workload, policy: Option<Policy>) -> Self {
        let mut world = wl.world();
        if let Some(policy) = policy {
            world.peers = world
                .peers
                .into_iter()
                .map(|p| p.with_policy(policy))
                .collect();
        }
        let directory = Arc::new(Directory::new(
            world.peers.iter().map(|p| p.id().clone()).collect(),
        ));
        let nodes = world
            .peers
            .into_iter()
            .enumerate()
            .map(|(i, p)| PeerNode::new(i, p, Arc::clone(&directory)))
            .collect();
        Host {
            wl,
            nodes,
            queue: VecDeque::new(),
            epoch: Instant::now(),
            framing: wl.driver == Driver::Tcp,
            outcomes: HashMap::new(),
            tracer: None,
            mismatches: Vec::new(),
            shadow: None,
            meta_disk: world.disk.map(|(_, c)| c),
            replay_ns: 0,
            writes: 0,
            stuck: 0,
            current: 0,
        }
    }

    /// Starts tracing. On the durable meta index this also snapshots
    /// meta's catalog, as it stands now, into the shadow the
    /// registration replay writes to, so the shadow's writes take the
    /// same refresh-or-insert path as meta's own.
    fn install_tracer(&mut self) {
        if self.meta_disk.is_some() {
            let catalog = self.nodes[META].peer().catalog().clone();
            let mut journal = DurableCatalog::new(SharedDisk::new(CountingDisk::new(Arc::new(
                DiskCounters::default(),
            ))));
            let _ = journal.seed(&catalog);
            self.shadow = Some((catalog, journal));
        }
        self.tracer = Some(RefCell::new(Tracer::new()));
    }

    fn front(&self) -> usize {
        self.nodes.len()
    }

    /// Submits query `idx` (qid = idx) as the drivers' front-ends do,
    /// and delivers frames FIFO until the network is quiet.
    fn run_query(&mut self, idx: u64) {
        let q = self.wl.query(idx);
        let front = self.front();
        self.current = idx;
        if let Some(e) = q.reg {
            self.queue
                .push_back((front, META, Frame::Register(e).encode()));
        }
        let plan = Mqp::without_original(q.plan).to_wire();
        let qid = QueryId::new(idx);
        self.queue
            .push_back((front, 0, Frame::Submit { qid, plan }.encode()));
        while let Some((from, to, bytes)) = self.queue.pop_front() {
            self.deliver(from, to, bytes);
        }
    }

    fn deliver(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        if to >= self.nodes.len() {
            return; // the front-end slot is not a peer; outcomes arrive as effects
        }
        let now = self.epoch.elapsed().as_micros() as u64;
        let kind = Frame::kind(&bytes).to_owned();
        let Some(tracer) = self.tracer.take() else {
            let effects = self.nodes[to].on_message(from, &bytes, now);
            self.apply(to, effects);
            return;
        };
        let (qid, hop) = header(&bytes);
        {
            let mut t = tracer.borrow_mut();
            t.qid = qid.filter(|q| *q < 1 << 63).unwrap_or(self.current);
            t.hop = hop;
        }
        let root = tracer.borrow_mut().open("host.deliver");
        // Everything up to the live `on_message` is work the untraced
        // host does not do; its time is kept apart so that
        // `trace.overhead_frac` measures the spans, not the replays.
        let extra = Instant::now();
        let bytes = if self.framing && from != to {
            let framed = span(&tracer, "framing.encode", || encode_frame(&bytes));
            span(&tracer, "framing.decode", || {
                let mut d = FrameDecoder::new();
                d.push(&framed);
                d.next().ok().flatten()
            })
            .unwrap_or(bytes)
        } else {
            bytes
        };
        let expected = (kind == "mqp")
            .then(|| span(&tracer, "replay", || self.replay(&tracer, to, &bytes, now)));
        if kind == "reg" && to == META {
            self.replay_register(&tracer, &bytes);
        }
        if kind == "res" {
            if let Ok(Frame::Result(rf)) = Frame::decode(&bytes) {
                let wrapped = format!("<results>{}</results>", rf.items);
                span(&tracer, "xml.result_parse", || {
                    mqp_xml::parse(&wrapped).is_ok()
                });
            }
        }
        self.replay_ns += extra.elapsed().as_nanos() as u64;
        let node = &mut self.nodes[to];
        let effects = span(&tracer, kind_layer(&kind), || {
            node.on_message(from, &bytes, now)
        });
        if let Some(exp) = expected {
            if !replay_matches(&exp, &effects) {
                self.mismatches.push(format!(
                    "replay of {kind} hop {hop} for query {:?} at node {to} disagrees with on_message: replay {exp:?}",
                    qid
                ));
            }
        }
        tracer.borrow_mut().close(root);
        self.tracer = Some(tracer);
        self.apply(to, effects);
    }

    fn apply(&mut self, at: usize, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, bytes } => self.queue.push_back((at, to, bytes)),
                Effect::Ack { to, qid } => {
                    self.queue.push_back((at, to, Frame::Ack { qid }.encode()));
                }
                Effect::Complete(o) => {
                    self.outcomes.entry(o.qid.raw()).or_insert(o);
                }
                _ => {}
            }
        }
    }

    /// Replays one `mqp` hop at node `to` through the public layer calls.
    fn replay(&mut self, tracer: &RefCell<Tracer>, to: usize, bytes: &[u8], now: u64) -> Expected {
        let node = &self.nodes[to];
        let peer = node.peer();
        let Ok(Frame::Mqp(mf)) = span(tracer, "wire.decode", || Frame::decode(bytes)) else {
            return Expected::Undecodable;
        };
        let len = mf.envelope.len() as f64;
        tracer.borrow_mut().count("wire.decode_owned_bytes", len);
        tracer.borrow_mut().count("envelope.bytes", len);
        let Ok(mut mqp) = span(tracer, "envelope.parse", || Mqp::from_wire(&mf.envelope)) else {
            return Expected::Undecodable;
        };
        peer.set_clock(now);
        let ctx = TimedCtx { peer, tracer };
        let outcome = span(tracer, "processor.process", || {
            peer.processor().process(&mut mqp, &ctx)
        });
        match outcome {
            Outcome::Forward { to: server } => {
                let Some(next) = node.directory().node_of(&server) else {
                    return Expected::Complete {
                        failure: Some(format!("route to unknown server {server}")),
                    };
                };
                let wire = span(tracer, "envelope.serialize", || mqp.to_wire());
                let mut meter = mf.meter;
                meter.hops += 1;
                meter.mqp_bytes += wire.len() as u64;
                let frame = Frame::Mqp(MqpFrame {
                    qid: mf.qid,
                    meter,
                    envelope: wire,
                });
                let bytes = span(tracer, "wire.encode", || frame.encode());
                Expected::Send { to: next, bytes }
            }
            Outcome::Complete { target, items } => {
                let bound_by = mqp
                    .provenance()
                    .iter()
                    .find(|v| v.action == Action::Bound)
                    .map(|v| v.server.clone());
                let audit_clean = mqp
                    .original()
                    .map(|o| mqp_core::unaccounted_sources(o, mqp.provenance()).is_empty());
                let client = target
                    .as_deref()
                    .and_then(|t| t.rsplit_once('#'))
                    .and_then(|(c, _)| node.directory().node_of(&ServerId::new(c)));
                let items_xml: String = span(tracer, "envelope.serialize", || {
                    items.iter().map(mqp_xml::serialize).collect()
                });
                match (client, mf.qid) {
                    (Some(client), Some(qid)) => {
                        let mut meter = mf.meter;
                        meter.hops += 1;
                        let frame = Frame::Result(ResultFrame {
                            qid,
                            meter,
                            audit_clean,
                            bound_by,
                            items: items_xml,
                        });
                        let bytes = span(tracer, "wire.encode", || frame.encode());
                        Expected::Send { to: client, bytes }
                    }
                    _ => Expected::Complete { failure: None },
                }
            }
            Outcome::Stuck { reason } => {
                self.stuck += 1;
                Expected::Complete {
                    failure: Some(reason),
                }
            }
        }
    }

    /// Replays a registration into the shadow catalog and journal.
    fn replay_register(&mut self, tracer: &RefCell<Tracer>, bytes: &[u8]) {
        let Some((catalog, journal)) = self.shadow.as_mut() else {
            return;
        };
        let Ok(Frame::Register(entry)) = Frame::decode(bytes) else {
            return;
        };
        self.writes += 1;
        let op = CatalogOp::Register(entry.clone());
        span(tracer, "catalog.register", || catalog.register(entry));
        span(tracer, "durable.write", || {
            let _ = journal.log(&op);
            let _ = journal.maybe_compact(catalog);
        });
    }
}

/// The live effects agree with the replay: the same next hop and bytes,
/// the same completion, or the same stuck reason.
fn replay_matches(exp: &Expected, effects: &[Effect]) -> bool {
    match exp {
        Expected::Send { to, bytes } => effects
            .iter()
            .any(|e| matches!(e, Effect::Send { to: t, bytes: b } if t == to && b == bytes)),
        Expected::Complete { failure } => effects
            .iter()
            .any(|e| matches!(e, Effect::Complete(o) if &o.failure == failure)),
        Expected::Undecodable => false,
    }
}

/// The traced run's results.
pub struct Report {
    pub queries: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Median over queries of timed latency minus traced in-process time.
    pub wait_ms_p50: f64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Drives the timed window's queries through the traced host, then the
/// same queries through an untraced host, and derives the per-layer
/// metrics. `peer_cpu_ms_per_query` is the real driver's peer-thread CPU
/// per query, against which the in-process layers are compared.
pub fn traced_run(wl: &Workload, timed: &Phase, peer_cpu_ms_per_query: f64) -> Report {
    let first = timed.first;
    let mut problems = Vec::new();

    let mut host = Host::new(wl, None);
    for idx in 0..first {
        host.run_query(idx);
    }
    let disk0 = host
        .meta_disk
        .as_ref()
        .map(|c| c.snapshot())
        .unwrap_or_default();
    host.install_tracer();
    let start = Instant::now();
    let mut n = 0u64;
    while n < timed.submitted.max(1) && start.elapsed().as_secs_f64() < TRACE_BUDGET_S {
        host.run_query(first + n);
        n += 1;
    }
    let traced_s = start.elapsed().as_secs_f64();
    let disk1 = host
        .meta_disk
        .as_ref()
        .map(|c| c.snapshot())
        .unwrap_or_default();

    let mut plain = Host::new(wl, None);
    for idx in 0..first {
        plain.run_query(idx);
    }
    let start = Instant::now();
    for idx in first..first + n {
        plain.run_query(idx);
    }
    let plain_s = start.elapsed().as_secs_f64();

    // Check the traced host's outcomes like the timed run's.
    let mut hops = Vec::new();
    for idx in first..first + n {
        match host.outcomes.get(&idx) {
            None => problems.push(format!(
                "traced host: {} never completed",
                wl.query(idx).label
            )),
            Some(o) => {
                hops.push(o.hops as f64);
                if let Err(why) = judge(wl, &wl.query(idx).answers, o) {
                    problems.push(format!("traced host: {} -> {why}", wl.query(idx).label));
                }
            }
        }
    }
    let replay_mismatch = host.mismatches.len() as f64;
    problems.extend(host.mismatches.iter().take(5).cloned());

    let tracer = host.tracer.take().expect("traced").into_inner();
    let mut by_layer: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut child_ns = vec![0u64; tracer.spans.len()];
    let mut inproc_ns: HashMap<u64, u64> = HashMap::new();
    for s in &tracer.spans {
        by_layer.entry(s.layer).or_default().push(us(s.dur_ns));
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.dur_ns;
        }
        if s.layer.starts_with("node.on_message") || s.layer.starts_with("framing.") {
            *inproc_ns.entry(s.qid).or_default() += s.dur_ns;
        }
    }
    let processor_self: Vec<f64> = tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.layer == "processor.process")
        .map(|(i, s)| us(s.dur_ns - child_ns[i]))
        .collect();
    let med = |layer: &str| by_layer.get(layer).map_or(0.0, |v| median(v));
    let count_mean = |name: &str| tracer.counts.get(name).map_or(0.0, |v| mean(v));
    let count_med = |name: &str| tracer.counts.get(name).map_or(0.0, |v| median(v));
    let per_query_med = |layer: &str| {
        let mut per: HashMap<u64, f64> = HashMap::new();
        for s in tracer.spans.iter().filter(|s| s.layer == layer) {
            *per.entry(s.qid).or_default() += us(s.dur_ns);
        }
        median(&per.into_values().collect::<Vec<_>>())
    };

    let waits: Vec<f64> = timed
        .done
        .iter()
        .filter_map(|d| {
            inproc_ns
                .get(&d.idx)
                .map(|ns| d.latency_ms - *ns as f64 / 1e6)
        })
        .collect();
    let writes = host.writes.max(1) as f64;
    let dd = DiskSnapshot {
        wal_bytes: disk1.wal_bytes - disk0.wal_bytes,
        snapshot_bytes: disk1.snapshot_bytes - disk0.snapshot_bytes,
        syncs: disk1.syncs - disk0.syncs,
        appends: disk1.appends - disk0.appends,
        busy_ns: disk1.busy_ns - disk0.busy_ns,
    };
    let has_disk = host.meta_disk.is_some();
    let per_write = |v: u64| if has_disk { v as f64 / writes } else { 0.0 };
    let entries = host
        .nodes
        .iter()
        .map(|nd| nd.peer().catalog().entries().len())
        .max()
        .unwrap_or(0);
    let nq = n.max(1) as f64;

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_owned(), v, unit));
    put("framing.encode_us_per_frame", med("framing.encode"), "us");
    put("framing.decode_us_per_frame", med("framing.decode"), "us");
    put("node.on_message_us.mqp", med("node.on_message.mqp"), "us");
    put("node.on_message_us.res", med("node.on_message.res"), "us");
    put("node.on_message_us.reg", med("node.on_message.reg"), "us");
    put(
        "node.on_message_us.other",
        med("node.on_message.other"),
        "us",
    );
    put("node.hops_per_query", mean(&hops), "count");
    put("wire.decode_us_per_hop", med("wire.decode"), "us");
    put("wire.encode_us_per_hop", med("wire.encode"), "us");
    put(
        "wire.decode_owned_bytes_per_hop",
        count_med("wire.decode_owned_bytes"),
        "bytes",
    );
    put("envelope.parse_us_per_hop", med("envelope.parse"), "us");
    put(
        "envelope.serialize_us_per_hop",
        med("envelope.serialize"),
        "us",
    );
    put(
        "envelope.bytes_per_hop",
        count_med("envelope.bytes"),
        "bytes",
    );
    put("processor.self_us_per_hop", median(&processor_self), "us");
    put("processor.stuck_per_query", host.stuck as f64 / nq, "count");
    put("catalog.bind_us_per_call", med("catalog.bind"), "us");
    put("catalog.route_us_per_call", med("catalog.route"), "us");
    put(
        "catalog.register_us_per_write",
        med("catalog.register"),
        "us",
    );
    put("catalog.entries", entries as f64, "count");
    put("store.lookup_us_per_call", med("store.lookup"), "us");
    put("store.items_per_call", count_mean("store.items"), "count");
    put(
        "durable.us_per_write",
        by_layer.get("durable.write").map_or(0.0, |v| mean(v)),
        "us",
    );
    put(
        "durable.wal_bytes_per_write",
        per_write(dd.wal_bytes),
        "bytes",
    );
    put(
        "durable.snapshot_bytes_per_write",
        per_write(dd.snapshot_bytes),
        "bytes",
    );
    put("durable.syncs_per_write", per_write(dd.syncs), "count");
    put(
        "xml.result_parse_us_per_query",
        per_query_med("xml.result_parse"),
        "us",
    );
    // Span overhead: the traced pass without its replays, against the
    // untraced pass over the same queries.
    let spans_s = traced_s - host.replay_ns as f64 / 1e9;
    put(
        "trace.overhead_frac",
        spans_s / plain_s.max(1e-9) - 1.0,
        "fraction",
    );
    put("trace.replay_mismatch", replay_mismatch, "count");

    // Where a query's time goes: each layer's total per query, plus the
    // driver's peer-thread CPU spent outside `on_message`.
    let total = |layer: &str| by_layer.get(layer).map_or(0.0, |v| v.iter().sum::<f64>()) / nq;
    let on_message: f64 = ["mqp", "res", "reg", "other"]
        .iter()
        .map(|k| total(&format!("node.on_message.{k}")))
        .sum();
    let host_outside_us = (peer_cpu_ms_per_query * 1e3 - on_message).max(0.0);
    let shares: Vec<(&str, f64)> = vec![
        ("framing", total("framing.encode") + total("framing.decode")),
        ("wire", total("wire.decode") + total("wire.encode")),
        (
            "envelope",
            total("envelope.parse") + total("envelope.serialize"),
        ),
        ("processor", processor_self.iter().sum::<f64>() / nq),
        (
            "catalog",
            total("catalog.bind") + total("catalog.route") + total("catalog.register"),
        ),
        ("store", total("store.lookup")),
        ("durable", total("durable.write")),
        ("xml", total("xml.result_parse")),
        ("host", host_outside_us),
    ];
    for (layer, v) in &shares {
        let name = match *layer {
            "processor" => "processor.self_us_per_query".to_owned(),
            "host" => "host.outside_node_us_per_query".to_owned(),
            l => format!("{l}.us_per_query"),
        };
        put(&name, *v, "us");
    }
    put("node.on_message_us_per_query", on_message, "us");
    let mut ranked = shares.clone();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut notes = Vec::new();
    let mut line = String::from("time per query (us), by layer:");
    for (layer, v) in &ranked {
        let _ = write!(line, " {layer} {v:.1};");
    }
    let _ = write!(line, " live on_message total {on_message:.1}");
    notes.push(line);
    notes.push(format!(
        "dominant layer: {} ({:.1} us/query; peer-thread CPU {:.1} us/query); median driver wait {:.3} ms/query",
        ranked[0].0,
        ranked[0].1,
        peer_cpu_ms_per_query * 1e3,
        median(&waits)
    ));
    if let Err(e) = write_spans(wl, &tracer) {
        notes.push(format!("could not write spans: {e}"));
    }
    if has_disk {
        notes.push(format!(
            "durable meta disk: {} appends, {:.2} us of disk calls per write",
            dd.appends,
            us(dd.busy_ns) / writes
        ));
    }
    Report {
        queries: n,
        metrics: m,
        wait_ms_p50: median(&waits),
        problems,
        notes,
    }
}

/// What the deferment-defect reproduction found.
pub struct DefectRepro {
    pub tried: u64,
    /// Queries that ended `defer-stuck`.
    pub stuck: u64,
    /// The first of them, with its reason.
    pub example: Option<String>,
    pub problems: Vec<String>,
}

/// Reproduces the Figure-3 deferment defect: `idxs` (long favourites
/// lists) run on the single-thread host with every peer at the
/// program's default `Policy` (`defer_bytes` 64 KiB). Each must end
/// either `defer-stuck` (the defect) or with the reference answer (the
/// defect fixed); anything else is a mismatch.
pub fn reproduce_defect(wl: &Workload, idxs: &[u64]) -> DefectRepro {
    let mut host = Host::new(wl, Some(Policy::default()));
    let mut r = DefectRepro {
        tried: 0,
        stuck: 0,
        example: None,
        problems: Vec::new(),
    };
    for &idx in idxs {
        host.run_query(idx);
        r.tried += 1;
        let q = wl.query(idx);
        let verdict = match host.outcomes.get(&idx) {
            None => Err("never-completed: no outcome".to_owned()),
            Some(o) => judge(wl, &q.answers, o),
        };
        match verdict {
            Ok(()) => {}
            Err(why) if kind_of(&why) == "defer-stuck" => {
                r.stuck += 1;
                r.example
                    .get_or_insert_with(|| format!("{} -> {why}", q.label));
            }
            Err(why) => r
                .problems
                .push(format!("{} at the default policy -> {why}", q.label)),
        }
    }
    r
}

/// Writes the spans as TSV under `.bench_out/` in the working directory.
fn write_spans(wl: &Workload, tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let mut out = String::from("id\tparent\tqid\thop\tlayer\tstart_ns\tdur_ns\n");
    for (i, s) in tracer.spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "-".to_owned()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.qid, s.hop, s.layer, s.start_ns, s.dur_ns
        );
    }
    std::fs::write(
        format!(".bench_out/trace-{}-seed{}.tsv", wl.name, wl.seed),
        out,
    )
}
