//! The three workloads: seeded worlds, the query stream each one
//! submits, and the ground truth every outcome is checked against.
//!
//! Everything here is a pure function of the workload seed: query `i`
//! (and the registration sent with it) is derived from `(seed, i)`, so
//! the timed run and the traced run replay exactly the same inputs.

use std::collections::HashMap;
use std::sync::Arc;

use mqp_algebra::plan::{JoinCond, Plan, UrnRef};
use mqp_catalog::durable::{DurableCatalog, SharedDisk};
use mqp_catalog::CatalogEntry;
use mqp_core::Policy;
use mqp_namespace::{Hierarchy, InterestArea, Namespace, Urn};
use mqp_peer::Peer;
use mqp_xml::{xpath, Element};

use crate::disk::{CountingDisk, DiskCounters};

/// The transport a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `mqp_peer::tcp`: one OS thread and one loopback listener per peer.
    Tcp,
    /// `mqp_peer::cluster`: one OS thread per peer over in-process channels.
    Threaded,
}

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Discipline {
    /// Submit on a fixed schedule regardless of completions.
    Open { rate_qps: f64 },
    /// Keep at most `window` queries in flight.
    Closed { window: usize },
}

/// One generated query: the plan, an optional catalog registration the
/// generator sends to the meta index just before it, and the accepted
/// answers (each a sorted list of item keys).
pub struct Query {
    pub plan: Plan,
    pub reg: Option<CatalogEntry>,
    pub answers: Vec<Vec<String>>,
    /// Short label naming the query in mismatch reports.
    pub label: String,
}

/// A built world: the peers handed to a driver, plus the durable meta
/// index's disk (catalog workload only).
pub struct World {
    pub peers: Vec<Peer>,
    pub disk: Option<(SharedDisk, Arc<DiskCounters>)>,
}

/// Node that submits every query (the client peer).
pub const CLIENT: usize = 0;
/// Node of the meta index in every world.
pub const META: usize = 1;

/// SplitMix64: the benchmark's own seeded generator, so inputs never
/// depend on a library's RNG stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// The generator for query `i` of a run seeded with `seed`.
    pub fn for_query(seed: u64, i: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn cds_area(city: &str) -> InterestArea {
    InterestArea::parse(&[&[city, "Music/CDs"]])
}

fn item(title: &str, price: &str) -> Element {
    Element::new("item")
        .child(Element::new("title").text(title))
        .child(Element::new("price").text(price))
}

fn area_urn(area: InterestArea) -> Plan {
    Plan::Urn(UrnRef::new(Urn::area(area)))
}

// ----------------------------------------------------------------------
// market-tcp: the E13 paired-seller market
// ----------------------------------------------------------------------

/// Seller pairs: client + meta + 2 × 124 sellers = 250 peers.
pub const MARKET_PAIRS: usize = 124;
/// The one offered rate, well below the TCP driver's capacity.
pub const MARKET_RATE_QPS: f64 = 300.0;

fn market_city(p: usize) -> String {
    format!("USA/City-{p:03}")
}

fn market_title(j: usize) -> String {
    format!("Album-{j:04}")
}

fn market_world() -> World {
    let mut loc = Hierarchy::new("Location");
    for p in 0..MARKET_PAIRS {
        loc.add(market_city(p).as_str());
    }
    let ns = Arc::new(Namespace::new([
        loc,
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ]));
    let client = Peer::new("client", Arc::clone(&ns)).with_default_route("meta");
    let mut meta = Peer::new("meta", Arc::clone(&ns));
    let mut peers = Vec::with_capacity(2 + 2 * MARKET_PAIRS);
    let mut sellers = Vec::with_capacity(2 * MARKET_PAIRS);
    for j in 0..2 * MARKET_PAIRS {
        let mut s = Peer::new(format!("seller-{j}"), Arc::clone(&ns));
        s.add_collection(
            "cds",
            cds_area(&market_city(j / 2)),
            [item(&market_title(j), &format!("{}.99", j % 40))],
        );
        meta.catalog_mut().register(s.base_entry());
        sellers.push(s);
    }
    peers.push(client);
    peers.push(meta);
    peers.extend(sellers);
    World { peers, disk: None }
}

/// The soak's three shapes in turn — Or-pair, direct URL, city-area
/// URN bound at meta — each over a seeded pair.
fn market_query(seed: u64, i: u64) -> Query {
    let p = Rng::for_query(seed, i).below(MARKET_PAIRS as u64) as usize;
    let (even, odd) = (2 * p, 2 * p + 1);
    let url = |j: usize| Plan::url(format!("mqp://seller-{j}/"));
    let (plan, answers, shape) = match i % 3 {
        0 => (
            Plan::or([url(even), url(odd)]),
            vec![vec![market_title(even)], vec![market_title(odd)]],
            "or",
        ),
        1 => (url(odd), vec![vec![market_title(odd)]], "url"),
        _ => (
            area_urn(cds_area(&market_city(p))),
            vec![vec![market_title(even), market_title(odd)]],
            "area",
        ),
    };
    Query {
        plan,
        reg: None,
        answers,
        label: format!("q{i} {shape} pair {p}"),
    }
}

// ----------------------------------------------------------------------
// fig3-threaded: favourites ⋈ track listings ⋈ σ(price<10)(for-sale)
// ----------------------------------------------------------------------

pub const FIG3_ALBUMS: usize = 1000;
pub const FIG3_TRACKS: usize = 8;
pub const FIG3_SELLERS: usize = 4;
/// One query in this many carries a long favourites list.
pub const FIG3_TAIL_EVERY: u64 = 10;
/// Long lists hold `FIG3_TAIL_MIN..FIG3_TAIL_MIN + FIG3_TAIL_SPAN` songs;
/// short ones `1..=FIG3_SHORT_MAX`.
pub const FIG3_TAIL_MIN: u64 = 64;
pub const FIG3_TAIL_SPAN: u64 = 17;
pub const FIG3_SHORT_MAX: u64 = 8;
/// Closed-loop window: 2 × nproc on the 2-core reference machine, fixed
/// so the offered load does not depend on the host.
pub const FIG3_WINDOW: usize = 4;
/// `Policy::defer_bytes` of every peer in the Figure-3 world: deferment
/// off. At the program's default (64 KiB) the long favourites lists end
/// `Stuck` — a seller defers a join whose estimate exceeds the
/// threshold, and no unvisited server can finish it — so the timed
/// stream, which must complete every query, runs with the threshold
/// raised, and each run reproduces the defect separately at the default
/// (see `trace::reproduce_defect`).
pub const FIG3_DEFER_BYTES: f64 = f64::MAX;

fn fig3_album(a: usize) -> String {
    format!("Album-{a:04}")
}

/// Seed of the Figure-3 world's stock. The world is fixed; `--seed`
/// varies the query stream (each query's favourites).
const FIG3_WORLD_SEED: u64 = 7;

/// Per-seller stock: `(album, price)` with prices in cents.
pub struct Fig3Data {
    stock: Vec<Vec<(usize, u32)>>,
    /// album → every sub-$10 listing's key across all sellers.
    cheap: HashMap<usize, Vec<String>>,
}

fn price_text(cents: u32) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

impl Fig3Data {
    fn new() -> Self {
        let mut rng = Rng::new(FIG3_WORLD_SEED);
        let mut stock = Vec::with_capacity(FIG3_SELLERS);
        let mut cheap: HashMap<usize, Vec<String>> = HashMap::new();
        for _ in 0..FIG3_SELLERS {
            let mut items = Vec::new();
            for a in 0..FIG3_ALBUMS {
                if rng.below(2) == 0 {
                    continue;
                }
                let cents = 300 + rng.below(2200) as u32;
                if cents < 1000 {
                    cheap.entry(a).or_default().push(format!(
                        "{}|{}",
                        fig3_album(a),
                        price_text(cents)
                    ));
                }
                items.push((a, cents));
            }
            stock.push(items);
        }
        Fig3Data { stock, cheap }
    }
}

fn fig3_world(data: &Fig3Data) -> World {
    let ns = Arc::new(Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland"]),
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ]));
    let pdx = cds_area("USA/OR/Portland");
    let mut peers = Vec::with_capacity(3 + FIG3_SELLERS);
    peers.push(Peer::new("client", Arc::clone(&ns)).with_default_route("meta"));
    let mut meta = Peer::new("meta", Arc::clone(&ns));
    meta.catalog_mut()
        .map_urn("urn:CD:TrackListings", "trackdb", None);
    let mut tracks = Vec::with_capacity(FIG3_ALBUMS * FIG3_TRACKS);
    for a in 0..FIG3_ALBUMS {
        for t in 0..FIG3_TRACKS {
            tracks.push(
                Element::new("track")
                    .child(Element::new("title").text(format!("Song-{a:04}-{t}")))
                    .child(Element::new("album").text(fig3_album(a))),
            );
        }
    }
    let mut trackdb = Peer::new("trackdb", Arc::clone(&ns));
    trackdb.add_collection("tracks", pdx.clone(), tracks);
    let mut sellers = Vec::with_capacity(FIG3_SELLERS);
    for (s, stock) in data.stock.iter().enumerate() {
        let id = format!("cd-seller-{s}");
        let mut seller = Peer::new(id.clone(), Arc::clone(&ns));
        seller.add_collection(
            "cds",
            pdx.clone(),
            stock.iter().map(|&(a, cents)| {
                item(&fig3_album(a), &price_text(cents))
                    .child(Element::new("location").text("USA/OR/Portland"))
            }),
        );
        meta.catalog_mut().map_urn(
            "urn:ForSale:Portland-CDs",
            id,
            Some("/data[@id='cds']".to_owned()),
        );
        sellers.push(seller);
    }
    peers.push(meta);
    peers.push(trackdb);
    peers.extend(sellers);
    let policy = Policy::default().with_defer_bytes(FIG3_DEFER_BYTES);
    let peers = peers.into_iter().map(|p| p.with_policy(policy)).collect();
    World { peers, disk: None }
}

/// Whether query `i` carries a long favourites list (the tail that the
/// deferment defect strands at the default `Policy::defer_bytes`).
pub fn fig3_long(seed: u64, i: u64) -> bool {
    fig3_favourites(seed, i) >= FIG3_TAIL_MIN
}

/// Number of favourite songs query `i` carries.
pub fn fig3_favourites(seed: u64, i: u64) -> u64 {
    let mut rng = Rng::for_query(seed, i);
    if rng.below(FIG3_TAIL_EVERY) == 0 {
        FIG3_TAIL_MIN + rng.below(FIG3_TAIL_SPAN)
    } else {
        1 + rng.below(FIG3_SHORT_MAX)
    }
}

fn fig3_query(data: &Fig3Data, seed: u64, i: u64) -> Query {
    let n = fig3_favourites(seed, i);
    let mut rng = Rng::for_query(seed ^ 0x5eed, i);
    let mut favourites = Vec::with_capacity(n as usize);
    let mut expect = Vec::new();
    for _ in 0..n {
        let a = rng.below(FIG3_ALBUMS as u64) as usize;
        let t = rng.below(FIG3_TRACKS as u64);
        favourites.push(
            Element::new("song").child(Element::new("title").text(format!("Song-{a:04}-{t}"))),
        );
        if let Some(keys) = data.cheap.get(&a) {
            expect.extend(keys.iter().cloned());
        }
    }
    expect.sort();
    // The exact plan of Figure 3.
    let inner = Plan::join(
        JoinCond::on("title", "title"),
        Plan::data(favourites),
        Plan::urn("urn:CD:TrackListings"),
    );
    let plan = Plan::join(
        JoinCond::on("track/album", "title"),
        inner,
        Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs")),
    );
    Query {
        plan,
        reg: None,
        answers: vec![expect],
        label: format!("q{i} fig3 {n} favourites"),
    }
}

// ----------------------------------------------------------------------
// catalog-threaded: a 10k-entry durable meta index
// ----------------------------------------------------------------------

/// Live seller pairs, one city each.
pub const CATALOG_LIVE_PAIRS: usize = 4;
/// Items each live seller holds.
pub const CATALOG_ITEMS: usize = 6;
/// Base entries in meta's catalog at start (live sellers included).
pub const CATALOG_ENTRIES: usize = 10_000;
/// Cities the phantom sellers are spread over (none of them live).
pub const CATALOG_GHOST_CITIES: u64 = 1000;
/// Registrations cycle over this many phantoms that grow (each by one
/// fixed second city) and this many new phantom names (each at a fixed
/// city). Every one of them has registered once by the end of warm-up,
/// so in the measured window each registration is a journaled refresh
/// of a known entry and the catalog stays at `CATALOG_ENTRIES +
/// CATALOG_CYCLE` entries: the cost per query does not drift with the
/// number of queries a run completed.
pub const CATALOG_CYCLE: u64 = 256;
/// Warm-up queries: two per cycle slot (one grow, one new).
pub const CATALOG_WARMUP: u64 = 2 * CATALOG_CYCLE;

fn live_city(c: usize) -> String {
    format!("USA/Live-{c}")
}

fn ghost_city(g: u64) -> String {
    format!("USA/Ghost-{g:04}")
}

fn live_title(j: usize, k: usize) -> String {
    format!("Live-{j}-{k}")
}

fn phantoms() -> usize {
    CATALOG_ENTRIES - 2 * CATALOG_LIVE_PAIRS
}

fn catalog_world() -> World {
    let mut loc = Hierarchy::new("Location");
    for c in 0..CATALOG_LIVE_PAIRS {
        loc.add(live_city(c).as_str());
    }
    let ns = Arc::new(Namespace::new([
        loc,
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ]));
    let mut peers = Vec::with_capacity(2 + 2 * CATALOG_LIVE_PAIRS);
    peers.push(Peer::new("client", Arc::clone(&ns)).with_default_route("meta"));
    let mut meta = Peer::new("meta", Arc::clone(&ns));
    let mut sellers = Vec::new();
    for j in 0..2 * CATALOG_LIVE_PAIRS {
        let mut s = Peer::new(format!("live-{j}"), Arc::clone(&ns));
        s.add_collection(
            "cds",
            cds_area(&live_city(j / 2)),
            (0..CATALOG_ITEMS).map(|k| item(&live_title(j, k), &format!("{}.50", 3 + k))),
        );
        meta.catalog_mut().register(s.base_entry());
        sellers.push(s);
    }
    for k in 0..phantoms() {
        meta.catalog_mut().register(CatalogEntry::base(
            format!("phantom-{k}"),
            cds_area(&ghost_city(k as u64 % CATALOG_GHOST_CITIES)),
        ));
    }
    let counters = Arc::new(DiskCounters::default());
    let disk = SharedDisk::new(CountingDisk::new(Arc::clone(&counters)));
    // The default cadence: sync every op, snapshot every 64 records.
    meta.enable_durability(DurableCatalog::new(disk.clone()));
    peers.push(meta);
    peers.extend(sellers);
    World {
        peers,
        disk: Some((disk, counters)),
    }
}

/// A city-area URN for a seeded live city, plus one registration:
/// even queries grow a phantom's area by its second city, odd ones
/// register a new phantom (see [`CATALOG_CYCLE`]).
fn catalog_query(seed: u64, i: u64) -> Query {
    let c = Rng::for_query(seed, i).below(CATALOG_LIVE_PAIRS as u64) as usize;
    let slot = (i / 2 + seed % CATALOG_CYCLE) % CATALOG_CYCLE;
    let reg = if i.is_multiple_of(2) {
        let k = slot * (phantoms() as u64 / CATALOG_CYCLE);
        let second = (k + CATALOG_GHOST_CITIES / 2) % CATALOG_GHOST_CITIES;
        CatalogEntry::base(format!("phantom-{k}"), cds_area(&ghost_city(second)))
    } else {
        let city = ghost_city(slot * 7 % CATALOG_GHOST_CITIES);
        CatalogEntry::base(format!("phantom-new-{slot}"), cds_area(&city))
    };
    let mut expect: Vec<String> = (2 * c..2 * c + 2)
        .flat_map(|j| (0..CATALOG_ITEMS).map(move |k| live_title(j, k)))
        .collect();
    expect.sort();
    Query {
        plan: area_urn(cds_area(&live_city(c))),
        reg: Some(reg),
        answers: vec![expect],
        label: format!("q{i} area live-city {c}"),
    }
}

// ----------------------------------------------------------------------
// The workload table
// ----------------------------------------------------------------------

enum Kind {
    Market,
    Fig3(Fig3Data),
    Catalog,
}

/// One named workload, instantiated for a seed.
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub discipline: Discipline,
    /// Queries run before the measured window (links connect, caches
    /// fill); checked, not measured.
    pub warmup: u64,
    /// World builds + driver spawns per run; `setup_s` is their median.
    /// The first spawn in a process runs cold (about twice as long on
    /// market-tcp), so the median needs several more. Each TCP cluster
    /// leaves about 250 sockets in TIME_WAIT for a minute, and bind(0)
    /// slows once they fill half the port range, so market-tcp stops at
    /// 7 (about 2,700 sockets a run with its own links).
    pub setups: usize,
    pub seed: u64,
    kind: Kind,
}

pub const NAMES: [&str; 3] = ["market-tcp", "fig3-threaded", "catalog-threaded"];

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, driver, discipline, warmup, setups, kind) = match name {
            "market-tcp" => (
                NAMES[0],
                Driver::Tcp,
                Discipline::Open {
                    rate_qps: MARKET_RATE_QPS,
                },
                3 * MARKET_PAIRS as u64,
                7,
                Kind::Market,
            ),
            "fig3-threaded" => (
                NAMES[1],
                Driver::Threaded,
                Discipline::Closed {
                    window: FIG3_WINDOW,
                },
                20,
                9,
                Kind::Fig3(Fig3Data::new()),
            ),
            "catalog-threaded" => (
                NAMES[2],
                Driver::Threaded,
                Discipline::Closed { window: 4 },
                CATALOG_WARMUP,
                5,
                Kind::Catalog,
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            driver,
            discipline,
            warmup,
            setups,
            seed,
            kind,
        })
    }

    /// Builds the peers (catalog registrations included).
    pub fn world(&self) -> World {
        match &self.kind {
            Kind::Market => market_world(),
            Kind::Fig3(data) => fig3_world(data),
            Kind::Catalog => catalog_world(),
        }
    }

    /// Query `i` of this run.
    pub fn query(&self, i: u64) -> Query {
        match &self.kind {
            Kind::Market => market_query(self.seed, i),
            Kind::Fig3(data) => fig3_query(data, self.seed, i),
            Kind::Catalog => catalog_query(self.seed, i),
        }
    }

    /// The key an answer item is compared by.
    pub fn key(&self, item: &Element) -> String {
        match &self.kind {
            Kind::Fig3(_) => {
                let title = xpath::values(item, "item/title");
                let price = xpath::values(item, "item/price");
                format!(
                    "{}|{}",
                    title.first().map_or("?", String::as_str),
                    price.first().map_or("?", String::as_str)
                )
            }
            _ => item.field("title").unwrap_or_else(|| "?".to_owned()),
        }
    }

    /// Whether this is the Figure-3 workload, whose long favourites lists
    /// reproduce the deferment defect at the default policy.
    pub fn has_defer_defect(&self) -> bool {
        matches!(self.kind, Kind::Fig3(_))
    }

    /// Classifies a failure reason. The Figure-3 deferment defect gets
    /// its own kind: a seller defers a join whose estimate exceeds
    /// `Policy::defer_bytes`, and no unvisited server can finish it.
    pub fn failure_kind(&self, reason: &str) -> &'static str {
        if reason.starts_with("no route from cd-seller-") && reason.contains("remote URL(s)") {
            "defer-stuck"
        } else if reason.starts_with("no route") {
            "stuck-other"
        } else if reason.starts_with("gave up") {
            "gave-up"
        } else {
            "failed-other"
        }
    }
}
