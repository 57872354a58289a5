//! Fault-path tests for the TCP driver: kill and restart real peer
//! sockets mid-query and check that the protocol's retry machinery —
//! unchanged from the simulator — completes every completable query,
//! records the detours as `Action::Retried` provenance, and that the
//! transport's frame accounting stays exact through the churn.

use std::time::Duration;

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_catalog::durable::{DurableCatalog, MemDisk, SharedDisk};
use mqp_catalog::CatalogEntry;
use mqp_core::QueryId;
use mqp_namespace::{Hierarchy, InterestArea, Namespace, Urn};
use mqp_peer::node::RetryPolicy;
use mqp_peer::tcp::{TcpCluster, TcpConfig};
use mqp_peer::Peer;
use mqp_xml::parse;

fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland"]),
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ])
}

fn pdx_cds() -> InterestArea {
    InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]])
}

/// client (node 0), meta (node 1), and two sellers (nodes 2 and 3)
/// holding the same area — so every area/Or query has a live
/// alternative when one seller is down.
fn world() -> Vec<Peer> {
    let client = Peer::new("client", ns()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns());
    let mut s0 = Peer::new("seller-0", ns());
    s0.add_collection(
        "cds",
        pdx_cds(),
        [parse("<item><title>A</title><price>8</price></item>").unwrap()],
    );
    let mut s1 = Peer::new("seller-1", ns());
    s1.add_collection(
        "cds",
        pdx_cds(),
        [parse("<item><title>B</title><price>9</price></item>").unwrap()],
    );
    meta.catalog_mut().register(s0.base_entry());
    meta.catalog_mut().register(s1.base_entry());
    vec![client, meta, s0, s1]
}

fn churn_config() -> TcpConfig {
    TcpConfig {
        retry: Some(RetryPolicy {
            timeout_us: 150_000,
            max_retries: 8,
        }),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(50),
        ..TcpConfig::default()
    }
}

const SELLER_0: usize = 2;

/// Give an async kill/restart control message time to take effect.
fn settle() {
    std::thread::sleep(Duration::from_millis(100));
}

/// A peer killed mid-query is retried around: the watch at the sender
/// times out, prunes the dead alternative (§4.2), re-resolves to the
/// surviving seller, and the query completes — audit-clean, with the
/// detour on the record.
#[test]
fn killed_peer_is_retried_around() {
    let (cluster, mut client) = TcpCluster::with_config(world(), churn_config());
    cluster.kill(SELLER_0);
    settle();
    let or_plan = Plan::or([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]);
    let qids: Vec<QueryId> = (0..4).map(|_| client.submit(0, &or_plan)).collect();
    let done = client.collect(qids.len(), Duration::from_secs(30));
    assert_eq!(done.len(), qids.len(), "queries stranded by the kill");
    for q in &done {
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert!(q.retries >= 1, "no retry recorded for {:?}", q.qid);
        assert_eq!(q.audit_clean, Some(true), "retry detour flagged by audit");
        let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        assert_eq!(titles, ["B"], "answer must come from the live seller");
    }
    let stats = cluster.shutdown(&mut client);
    assert!(stats.retries >= qids.len() as u64);
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// A URL query names one specific server: with it down there is no
/// alternative to prune, so the watch resends to the same hop — and
/// when the peer rejoins (fresh port, same protocol state), the resend
/// lands and the query completes.
#[test]
fn restarted_peer_serves_again() {
    let (cluster, mut client) = TcpCluster::with_config(world(), churn_config());
    cluster.kill(SELLER_0);
    settle();
    let qid = client.submit(0, &Plan::url("mqp://seller-0/"));
    // Keep the peer down long enough for at least one timeout to fire.
    std::thread::sleep(Duration::from_millis(300));
    cluster.restart(SELLER_0);
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "query stranded across restart");
    let q = &done[0];
    assert_eq!(q.qid, qid);
    assert!(q.failure.is_none(), "{:?}", q.failure);
    let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
    assert_eq!(titles, ["A"], "restarted seller must serve its own data");
    let stats = cluster.shutdown(&mut client);
    assert!(stats.connects >= 2, "forward and reply links must connect");
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// Kill/restart churn under a continuous stream: every query completes
/// (via the survivor or the rejoined peer) and the accounting identity
/// holds exactly when the dust settles.
#[test]
fn churn_mid_stream_loses_nothing() {
    let (cluster, mut client) = TcpCluster::with_config(world(), churn_config());
    let or_plan = Plan::or([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]);
    let total = 30;
    let mut done = Vec::new();
    for i in 0..total {
        client.submit(0, &or_plan);
        if i == 10 {
            cluster.kill(SELLER_0);
        }
        if i == 20 {
            cluster.restart(SELLER_0);
        }
        done.extend(client.poll());
    }
    done.extend(client.collect(total - done.len(), Duration::from_secs(30)));
    assert_eq!(done.len(), total, "churn stranded a query");
    for q in &done {
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert_eq!(q.audit_clean, Some(true));
        assert_eq!(q.items.len(), 1);
    }
    let stats = cluster.shutdown(&mut client);
    assert!(stats.connects >= 2, "restart must reconnect links");
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// A *durable* peer models process death, not just an interface cut:
/// the kill wipes its in-memory catalog, and the restart replays the
/// WAL (prefix-consistent), re-announces the surviving bindings as
/// `rereg` frames through the normal transport accounting, and serves
/// queries audit-clean again.
#[test]
fn durable_peer_recovers_registrations_across_kill_restart() {
    let mut peers = world();
    // seller-0 journals its catalog — which holds its own base entry
    // plus knowledge of the meta-index, so a restarted seller has
    // somewhere to re-announce to.
    peers[SELLER_0]
        .catalog_mut()
        .register(CatalogEntry::index("meta", pdx_cds()));
    peers[SELLER_0].enable_durability(DurableCatalog::new(SharedDisk::new(MemDisk::new())));
    let (cluster, mut client) = TcpCluster::with_config(peers, churn_config());

    let plan = Plan::url("mqp://seller-0/");
    client.submit(0, &plan);
    let before = client.collect(1, Duration::from_secs(30));
    assert_eq!(before.len(), 1);
    assert!(before[0].failure.is_none(), "{:?}", before[0].failure);

    cluster.kill(SELLER_0);
    settle();
    cluster.restart(SELLER_0);
    settle(); // recovery replay + rereg frames to meta

    let qid = client.submit(0, &plan);
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "query stranded across durable restart");
    let q = &done[0];
    assert_eq!(q.qid, qid);
    assert!(q.failure.is_none(), "{:?}", q.failure);
    let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
    assert_eq!(titles, ["A"], "recovered seller must serve its own data");
    assert_eq!(q.audit_clean, Some(true));
    let stats = cluster.shutdown(&mut client);
    // The rereg announcements are real frames through the normal
    // enqueue path, so the sender-side identity must still be exact.
    assert!(
        stats.balances(0),
        "unbalanced with rereg traffic: {stats:?}"
    );
}

/// [`world`] spread over more peers than there are host loops (at most
/// one per core; peer `i` runs on loop `i % L`), laid out so that the
/// client, the meta index and seller-0 share loop 0. Returns the peers
/// and seller-0's index.
fn crowded_world() -> (Vec<Peer>, usize) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let seller_0 = 2 * cores;
    let mut slots: Vec<Option<Peer>> = (0..seller_0 + 2).map(|_| None).collect();
    for (peer, at) in world().into_iter().zip([0, cores, seller_0, seller_0 + 1]) {
        slots[at] = Some(peer);
    }
    let peers = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| Peer::new(format!("idle-{i}"), ns())))
        .collect();
    (peers, seller_0)
}

/// Killing and restarting a peer must not disturb the peers it shares a
/// host loop with: the query's client and meta index keep serving
/// through the outage (Or alternatives complete via the other seller),
/// and the restarted seller serves again.
#[test]
fn loop_mate_churn_spares_the_rest_of_the_loop() {
    let (peers, seller_0) = crowded_world();
    let (cluster, mut client) = TcpCluster::with_config(peers, churn_config());
    let or_plan = Plan::or([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]);
    cluster.kill(seller_0);
    settle();
    let qids: Vec<QueryId> = (0..4).map(|_| client.submit(0, &or_plan)).collect();
    let done = client.collect(qids.len(), Duration::from_secs(30));
    assert_eq!(
        done.len(),
        qids.len(),
        "a loop-mate of the killed peer stalled"
    );
    for q in &done {
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert_eq!(q.audit_clean, Some(true));
        let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        assert_eq!(titles, ["B"], "answer must come from the live seller");
    }

    cluster.restart(seller_0);
    let qid = client.submit(0, &Plan::url("mqp://seller-0/"));
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "restarted peer never served");
    assert_eq!(done[0].qid, qid);
    assert!(done[0].failure.is_none(), "{:?}", done[0].failure);
    let titles: Vec<String> = done[0]
        .items
        .iter()
        .filter_map(|i| i.field("title"))
        .collect();
    assert_eq!(titles, ["A"], "restarted seller must serve its own data");

    // An area query binds at the meta index and reaches both sellers.
    client.submit(0, &Plan::Urn(UrnRef::new(Urn::area(pdx_cds()))));
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "area query stranded");
    assert!(done[0].failure.is_none(), "{:?}", done[0].failure);
    let mut titles: Vec<String> = done[0]
        .items
        .iter()
        .filter_map(|i| i.field("title"))
        .collect();
    titles.sort();
    assert_eq!(titles, ["A", "B"], "meta index must bind both sellers");
    let stats = cluster.shutdown(&mut client);
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// With a finite reconnect budget, frames for a peer that never comes
/// back are shed as `dropped_disconnected` — and the query fails with
/// the protocol's own give-up reason instead of hanging forever.
#[test]
fn dead_link_sheds_frames_and_query_fails_cleanly() {
    let cfg = TcpConfig {
        retry: Some(RetryPolicy {
            timeout_us: 80_000,
            max_retries: 2,
        }),
        max_link_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..TcpConfig::default()
    };
    let (cluster, mut client) = TcpCluster::with_config(world(), cfg);
    cluster.kill(SELLER_0);
    settle();
    let qid = client.submit(0, &Plan::url("mqp://seller-0/"));
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "failed query must still report an outcome");
    let q = &done[0];
    assert_eq!(q.qid, qid);
    let failure = q.failure.as_deref().expect("query must fail: peer is gone");
    assert!(
        failure.contains("unresponsive"),
        "unexpected reason {failure:?}"
    );
    let stats = cluster.shutdown(&mut client);
    assert!(
        stats.dropped_disconnected >= 1,
        "dead link must shed its frames: {stats:?}"
    );
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}
