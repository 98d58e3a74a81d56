//! The `cluster-batched` workload: one group sliced over four shard
//! nodes behind a router on the simulated network, rekeyed in batched,
//! Merkle-signed intervals, each slice with its own WAL and snapshots.
//!
//! Members here are reachable only through the harness's per-endpoint
//! counters, so time to key is the wall time inside the `SimCluster`
//! calls of one interval: the requests, the flush, and delivery at every
//! member endpoint. A standalone [`GroupKeyServer`] per slice, seeded as
//! the node seeds the slice and fed the slice's requests in order, is the
//! reference every slice must equal.

use crate::checks;
use crate::measure::{
    counter, counter_exact, median, metric, micros, peak_rss_mb, percentile, ratio, span_total,
    Metric, Report, Rng, SETUPS,
};
use kg_cluster::{group_seed, NodeEvent, RouterEvent, ShardMap, SimCluster};
use kg_core::ids::{KeyLabel, UserId};
use kg_core::rekey::{Recipients, Strategy};
use kg_net::{NetConfig, MAX_UDP_PAYLOAD};
use kg_obs::{Obs, ObsConfig};
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use kg_wire::{GroupId, ShardId};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SHARDS: u16 = 4;
const MEMBERS: u64 = 16_384;
const GROUP: GroupId = GroupId(1);
const INTERVAL_MS: u64 = 100;
/// Joins per interval while building the group.
const BUILD_CHUNK: u64 = 1024;
/// Members whose endpoint traffic is sampled for `member_rx_bytes_per_req`.
const SAMPLED: usize = 32;
/// Intervals per round; the last interval of every round is a burst.
const ROUND: usize = 32;

fn template(seed: u64) -> Result<ServerConfig, String> {
    ServerConfig::builder()
        .strategy(Strategy::GroupOriented)
        .auth(AuthPolicy::SignBatch)
        .seed(seed)
        .batched(INTERVAL_MS, usize::MAX)
        .stats_record_cap(Some(4))
        .build()
        .map_err(|e| format!("config: {e}"))
}

/// Interval sizes of one round, in seeded order: 31 ordinary intervals
/// of 6–40 requests and one burst of 900, half joins and half leaves.
/// Every round holds the same sizes, so rounds are comparable timing
/// blocks.
fn round_sizes(rng: &mut Rng) -> [u64; ROUND] {
    let mut sizes = [0; ROUND];
    for (i, s) in sizes.iter_mut().enumerate() {
        *s = if i == ROUND - 1 { 900 } else { 2 * (3 + i as u64 % 18) };
    }
    rng.shuffle(&mut sizes);
    sizes
}

/// A built cluster plus the benchmark's own membership book.
struct Deployment {
    cluster: SimCluster,
    net_obs: Obs,
    members: Vec<UserId>,
    slot: HashMap<UserId, usize>,
    /// Grants the router relayed, per member.
    grants: HashMap<UserId, u32>,
    next_user: u64,
    now_ms: u64,
}

impl Deployment {
    /// The timed set-up: nodes, router, per-slice stores, and the initial
    /// membership admitted `BUILD_CHUNK` joins per interval.
    fn build(seed: u64, dir: &Path) -> Result<Deployment, String> {
        let map = ShardMap::new(SHARDS).with_span(GROUP, SHARDS);
        let net = NetConfig {
            latency_min_us: 100,
            latency_max_us: 100,
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            seed,
        };
        let mut cluster =
            SimCluster::new(map, template(seed)?, AccessControl::AllowAll, net, Some(dir));
        // One endpoint for every member, as in the repository's cluster
        // benchmark: a per-member inbox would make the simulator's fan-out
        // of each slice multicast the thing measured.
        cluster.use_shared_client_endpoint();
        cluster.router.set_tracing(false);
        let net_obs = Obs::new(ObsConfig::default());
        cluster.net.attach_obs(net_obs.clone());
        let mut d = Deployment {
            cluster,
            net_obs,
            members: Vec::new(),
            slot: HashMap::new(),
            grants: HashMap::new(),
            next_user: 1,
            now_ms: 0,
        };
        while d.next_user <= MEMBERS {
            let end = (d.next_user + BUILD_CHUNK).min(MEMBERS + 1);
            for u in d.next_user..end {
                d.cluster.join(GROUP, UserId(u));
                d.add(UserId(u));
            }
            d.next_user = end;
            d.now_ms += INTERVAL_MS;
            d.cluster.tick(d.now_ms);
            d.take_events()?;
        }
        let size = d.cluster.group_size(GROUP);
        if size != d.members.len() {
            return Err(format!("set-up admitted {size} of {} members", d.members.len()));
        }
        Ok(d)
    }

    fn add(&mut self, u: UserId) {
        self.slot.insert(u, self.members.len());
        self.members.push(u);
    }

    fn remove(&mut self, u: UserId) {
        if let Some(i) = self.slot.remove(&u) {
            self.members.swap_remove(i);
            if let Some(&moved) = self.members.get(i) {
                self.slot.insert(moved, i);
            }
        }
    }

    /// Count relayed grants; any rejected request fails the interval.
    fn take_events(&mut self) -> Result<(), String> {
        let (node_events, router_events) = self.cluster.take_events();
        for ev in node_events {
            if let NodeEvent::Rejected(_, u, e) = ev {
                return Err(format!("cluster rejected {u:?}: {e}"));
            }
        }
        for ev in router_events {
            if let RouterEvent::GrantRelayed { user, .. } = ev {
                *self.grants.entry(user).or_default() += 1;
            }
        }
        Ok(())
    }

    fn slice(&self, shard: ShardId) -> Option<&GroupKeyServer> {
        self.cluster.nodes.iter().find(|n| n.shard() == shard)?.group(GROUP)
    }
}

/// The standalone per-slice servers.
struct Reference {
    map: ShardMap,
    servers: BTreeMap<ShardId, GroupKeyServer>,
}

impl Reference {
    fn new(seed: u64) -> Result<Reference, String> {
        let map = ShardMap::new(SHARDS).with_span(GROUP, SHARDS);
        let tpl = template(seed)?;
        let servers = map
            .shards_of(GROUP)
            .into_iter()
            .map(|shard| {
                let config = ServerConfig { seed: group_seed(seed, shard, GROUP), ..tpl.clone() };
                (shard, GroupKeyServer::new(config, AccessControl::AllowAll))
            })
            .collect();
        Ok(Reference { map, servers })
    }

    fn request(&mut self, join: bool, u: UserId) -> Result<(), String> {
        let shard = self.map.owner(GROUP, u);
        let s = self.servers.get_mut(&shard).ok_or("unmapped shard")?;
        let r = if join { s.enqueue_join(u) } else { s.enqueue_leave(u) };
        r.map_err(|e| format!("reference rejected {u:?}: {e}"))
    }

    /// Flush every slice at `now_ms`; returns each packet with its slice
    /// and recipients.
    fn tick(&mut self, now_ms: u64) -> Result<Vec<(ShardId, Recipients, Vec<u8>)>, String> {
        let mut packets = Vec::new();
        for (&shard, s) in self.servers.iter_mut() {
            if let Some(b) = s.tick(now_ms).map_err(|e| format!("reference flush: {e}"))? {
                packets.extend(b.frames().into_iter().map(|(to, p)| (shard, to, p.to_vec())));
            }
        }
        Ok(packets)
    }
}

/// Cumulative totals read from the cluster's own instruments; per-layer
/// figures are differences between two probes.
#[derive(Debug, Default, Clone, Copy)]
struct Probe {
    op_us: f64,
    tree_us: f64,
    encrypt_us: f64,
    sign_us: f64,
    encode_us: f64,
    wal_us: f64,
    /// The part of `wal_us` outside request parsing (interval flushes).
    wal_flush_us: f64,
    parse_us: f64,
    router_us: f64,
    encryptions: f64,
    signatures: f64,
    hits: f64,
    misses: f64,
    keys: f64,
    relayed: f64,
    datagrams: f64,
}

impl Probe {
    fn read(d: &Deployment) -> Probe {
        let mut p = Probe::default();
        for node in &d.cluster.nodes {
            let o = node.obs();
            p.op_us += span_total(o, &["op.batch"]);
            p.tree_us += span_total(o, &["op.batch.tree"]);
            p.encrypt_us += span_total(o, &["op.batch.encrypt"]);
            p.sign_us += span_total(o, &["op.batch.sign"]);
            p.encode_us += span_total(o, &["op.batch.encode"]);
            p.wal_us += span_total(o, &["wal", "node.parse.wal"]);
            p.wal_flush_us += span_total(o, &["wal"]);
            p.parse_us += span_total(o, &["node.parse"]);
            p.encryptions += counter_exact(o, "kg_encryptions_total") as f64;
            p.signatures += counter_exact(o, "kg_signatures_total") as f64;
            p.hits += counter_exact(o, "kg_par_cache_total{result=\"hit\"}") as f64;
            p.misses += counter_exact(o, "kg_par_cache_total{result=\"miss\"}") as f64;
            p.keys += counter(o, "kg_ledger_nodes_touched_total") as f64;
        }
        let r = d.cluster.router.obs();
        p.router_us = span_total(r, &["router.recv"]);
        p.relayed = (counter_exact(r, "kg_cluster_rekey_multicast_total")
            + counter_exact(r, "kg_cluster_rekey_unicast_total")) as f64;
        p.datagrams = counter_exact(&d.net_obs, "kg_net_delivered_total") as f64;
        p
    }

    fn since(&self, before: &Probe) -> Probe {
        Probe {
            op_us: self.op_us - before.op_us,
            tree_us: self.tree_us - before.tree_us,
            encrypt_us: self.encrypt_us - before.encrypt_us,
            sign_us: self.sign_us - before.sign_us,
            encode_us: self.encode_us - before.encode_us,
            wal_us: self.wal_us - before.wal_us,
            wal_flush_us: self.wal_flush_us - before.wal_flush_us,
            parse_us: self.parse_us - before.parse_us,
            router_us: self.router_us - before.router_us,
            encryptions: self.encryptions - before.encryptions,
            signatures: self.signatures - before.signatures,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            keys: self.keys - before.keys,
            relayed: self.relayed - before.relayed,
            datagrams: self.datagrams - before.datagrams,
        }
    }

    fn add(&mut self, d: &Probe) {
        *self = Probe {
            op_us: self.op_us + d.op_us,
            tree_us: self.tree_us + d.tree_us,
            encrypt_us: self.encrypt_us + d.encrypt_us,
            sign_us: self.sign_us + d.sign_us,
            encode_us: self.encode_us + d.encode_us,
            wal_us: self.wal_us + d.wal_us,
            wal_flush_us: self.wal_flush_us + d.wal_flush_us,
            parse_us: self.parse_us + d.parse_us,
            router_us: self.router_us + d.router_us,
            encryptions: self.encryptions + d.encryptions,
            signatures: self.signatures + d.signatures,
            hits: self.hits + d.hits,
            misses: self.misses + d.misses,
            keys: self.keys + d.keys,
            relayed: self.relayed + d.relayed,
            datagrams: self.datagrams + d.datagrams,
        };
    }
}

/// Figures accumulated over the untraced or the traced intervals.
#[derive(Default)]
struct Acc {
    requests: u64,
    intervals: u64,
    time: Duration,
    interval_us: Vec<f64>,
    bytes: u64,
    packets: u64,
    largest: usize,
    over_budget: u64,
    member_rx: f64,
    member_packets: f64,
    /// Server-side flush time (op.batch spans) per interval, traced only.
    flush_us: Vec<f64>,
    layers: Probe,
    wal_bytes: u64,
    wal_requests: u64,
}

impl Acc {
    fn ops_per_s(&self) -> f64 {
        ratio(self.requests as f64, self.time.as_secs_f64())
    }
}

/// Removes the run's store directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let mut report = Report { run_checks_passed: true, ..Report::default() };
    let root = RunDir(
        std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".kgbench-run")
            .join(format!("cluster-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&root.0);

    // Set-up, several times, each into a fresh store; the last is kept.
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for k in 0..SETUPS {
        if let Some(old) = deployment.take() {
            drop::<Deployment>(old);
            let _ = std::fs::remove_dir_all(root.0.join(format!("setup-{}", k - 1)));
        }
        let dir = root.0.join(format!("setup-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("store directory: {e}"))?;
        let t = Instant::now();
        let d = Deployment::build(seed, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        deployment = Some(d);
    }
    let mut d = deployment.ok_or("no set-up ran")?;

    // The reference replays the set-up's requests (untimed).
    let mut reference = Reference::new(seed)?;
    {
        let mut now_ms = 0;
        let mut next = 1;
        while next <= MEMBERS {
            let end = (next + BUILD_CHUNK).min(MEMBERS + 1);
            for u in next..end {
                reference.request(true, UserId(u))?;
            }
            next = end;
            now_ms += INTERVAL_MS;
            reference.tick(now_ms)?;
        }
    }
    let mut rng = Rng::new(seed, 2);
    let mut sampled: Vec<UserId> =
        (0..SAMPLED).map(|_| d.members[rng.below(d.members.len() as u64) as usize]).collect();
    sampled.sort();
    sampled.dedup();
    let mut admitted_once: Vec<UserId> = d.members.clone();

    let mut acc = [Acc::default(), Acc::default()];
    let start = Instant::now();
    let mut round_no = 0u64;
    while start.elapsed() < budget {
        let traced = trace && round_no % 2 == 1;
        d.cluster.router.set_tracing(traced);
        for size in round_sizes(&mut rng) {
            report.attempted += size;
            match interval(&mut d, &mut reference, &mut rng, &mut sampled, size, traced) {
                Ok(iv) => {
                    for u in &iv.joined {
                        admitted_once.push(*u);
                    }
                    let a = &mut acc[traced as usize];
                    a.requests += size;
                    a.intervals += 1;
                    a.time += iv.time;
                    a.interval_us.push(micros(iv.time));
                    a.bytes += iv.bytes;
                    a.packets += iv.packets;
                    a.largest = a.largest.max(iv.largest);
                    a.over_budget += iv.over_budget;
                    a.member_rx += iv.member_rx;
                    a.member_packets += iv.member_packets;
                    if let Some(w) = iv.wal_bytes {
                        a.wal_bytes += w;
                        a.wal_requests += size;
                    }
                    if let Some(layers) = iv.layers {
                        a.flush_us.push(layers.op_us);
                        a.layers.add(&layers);
                    }
                }
                Err(e) => {
                    report.failed += size;
                    report.note_failure(e);
                }
            }
        }
        round_no += 1;
    }
    let measured_members = d.members.len();

    // Whole-run checks: every slice equals its reference, grants, a crash
    // and recovery of one shard, and a clean shutdown.
    let mut end_check = |ok: Result<(), String>| {
        if let Err(e) = ok {
            report.run_checks_passed = false;
            report.note_failure(e);
        }
    };
    for (shard, r) in &reference.servers {
        end_check(match d.slice(*shard) {
            Some(s) => checks::slice_matches_reference(s, r),
            None => Err(format!("shard {shard:?} hosts no slice")),
        });
    }
    end_check(check_grants(&d, &reference, &admitted_once));
    let recover_ms = match crash_and_recover(&mut d) {
        Ok(ms) => ms,
        Err(e) => {
            end_check(Err(e));
            0.0
        }
    };
    let (members, wal_tail) = d.cluster.shutdown();
    end_check(if members as usize == measured_members && wal_tail == 0 {
        Ok(())
    } else {
        Err(format!("shutdown reported {members} members (expected {measured_members}), wal_tail {wal_tail}"))
    });

    let e2e = &acc[0];
    report.notes.push(format!(
        "{SHARDS} shards, {measured_members} members at the end, {} intervals untraced, \
         {} traced, set-ups {setup_s:?} s",
        e2e.intervals, acc[1].intervals
    ));
    report.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", e2e.ops_per_s(), "1/s"),
        metric("rekey_p50_us", percentile(&e2e.interval_us, 0.50), "us"),
        metric("rekey_p99_us", percentile(&e2e.interval_us, 0.99), "us"),
        metric("rekey_bytes_per_req", ratio(e2e.bytes as f64, e2e.requests as f64), "B"),
        metric("member_rx_bytes_per_req", ratio(e2e.member_rx, e2e.requests as f64), "B"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    if trace {
        let height = reference.servers.values().map(|s| s.tree().height()).max().unwrap_or(0);
        report.per_layer =
            per_layer(&acc[1], e2e.ops_per_s(), median(&setup_s), height, recover_ms);
    }
    Ok(report)
}

/// What one interval did.
struct Interval {
    time: Duration,
    joined: Vec<UserId>,
    bytes: u64,
    packets: u64,
    largest: usize,
    over_budget: u64,
    /// Bytes and packets each live sampled member received.
    member_rx: f64,
    member_packets: f64,
    /// WAL bytes appended, when no slice rotated its log this interval.
    wal_bytes: Option<u64>,
    /// Instrument deltas (traced intervals only).
    layers: Option<Probe>,
}

/// Issue one interval of `size` requests, flush it, and check it.
fn interval(
    d: &mut Deployment,
    reference: &mut Reference,
    rng: &mut Rng,
    sampled: &mut [UserId],
    size: u64,
    traced: bool,
) -> Result<Interval, String> {
    // The requests: half joins of fresh users, half leaves of distinct
    // current members, shuffled.
    let mut requests: Vec<(bool, UserId)> = Vec::new();
    let mut leaving = std::collections::BTreeSet::new();
    for i in 0..size {
        if i % 2 == 0 {
            requests.push((true, UserId(d.next_user)));
            d.next_user += 1;
        } else {
            let u = loop {
                let u = d.members[rng.below(d.members.len() as u64) as usize];
                if leaving.insert(u) {
                    break u;
                }
            };
            requests.push((false, u));
        }
    }
    rng.shuffle(&mut requests);

    let wal_before = wal_lens(d);
    let probe_before = traced.then(|| Probe::read(d));
    let bytes_before = ledger_bytes(d);

    d.now_ms += INTERVAL_MS;
    let t = Instant::now();
    for &(join, u) in &requests {
        if join {
            d.cluster.join(GROUP, u);
        } else {
            d.cluster.leave(GROUP, u);
        }
    }
    d.cluster.tick(d.now_ms);
    let time = t.elapsed();
    let layers = probe_before.map(|b| Probe::read(d).since(&b));
    d.take_events()?;

    // Book-keeping, then the reference runs the same sub-streams.
    for &(join, u) in &requests {
        if join {
            d.add(u);
        } else {
            d.remove(u);
        }
        reference.request(join, u)?;
    }
    let packets = reference.tick(d.now_ms)?;

    // Checks: slice keys equal the reference, slice sizes sum to our own
    // count, and the cluster emitted exactly the reference's bytes.
    for (shard, r) in &reference.servers {
        let s = d.slice(*shard).ok_or_else(|| format!("shard {shard:?} hosts no slice"))?;
        let (a, b) = (s.tree().group_key(), r.tree().group_key());
        if a.0 != b.0 || a.1 != b.1 {
            return Err(format!(
                "shard {shard:?} group key {:?} differs from the reference {:?}",
                a.0, b.0
            ));
        }
    }
    let size_now = d.cluster.group_size(GROUP);
    if size_now != d.members.len() {
        return Err(format!(
            "slices hold {size_now} members, the benchmark admitted {}",
            d.members.len()
        ));
    }
    let bytes: u64 = packets.iter().map(|p| p.2.len() as u64).sum();
    let emitted = ledger_bytes(d) - bytes_before;
    if emitted != bytes {
        return Err(format!("cluster emitted {emitted} rekey bytes, the reference {bytes}"));
    }

    // What the router hands each live sampled member: the slice packets
    // addressed to it (the cluster's bytes equal the reference's, checked
    // above). Departed sampled members are replaced by joiners.
    let mut live = 0u64;
    let mut rx = 0u64;
    let mut pk = 0u64;
    for u in sampled.iter().filter(|u| d.slot.contains_key(u)) {
        live += 1;
        let shard = reference.map.owner(GROUP, *u);
        let labels: Vec<KeyLabel> = reference.servers[&shard]
            .tree()
            .keyset(*u)
            .map(|ks| ks.iter().map(|(r, _)| r.label).collect())
            .unwrap_or_default();
        for (s, to, p) in &packets {
            if *s == shard && checks::addressed(to, *u, &labels) {
                rx += p.len() as u64;
                pk += 1;
            }
        }
    }
    let joined: Vec<UserId> = requests.iter().filter(|r| r.0).map(|r| r.1).collect();
    let mut fresh = joined.iter();
    for u in sampled.iter_mut() {
        if !d.slot.contains_key(u) {
            if let Some(&j) = fresh.next() {
                *u = j;
            }
        }
    }

    let wal_after = wal_lens(d);
    let rotated = wal_after.iter().zip(&wal_before).any(|(a, b)| a < b);
    Ok(Interval {
        time,
        joined,
        bytes,
        packets: packets.len() as u64,
        largest: packets.iter().map(|p| p.2.len()).max().unwrap_or(0),
        over_budget: packets.iter().filter(|p| p.2.len() > MAX_UDP_PAYLOAD).count() as u64,
        member_rx: ratio(rx as f64, live as f64),
        member_packets: ratio(pk as f64, live as f64),
        wal_bytes: (!rotated)
            .then(|| wal_after.iter().sum::<u64>() - wal_before.iter().sum::<u64>()),
        layers,
    })
}

/// Rekey bytes the slices' ledgers have counted so far.
fn ledger_bytes(d: &Deployment) -> u64 {
    d.cluster.nodes.iter().map(|n| counter(n.obs(), "kg_ledger_bytes_total")).sum()
}

fn wal_lens(d: &Deployment) -> Vec<u64> {
    d.cluster
        .nodes
        .iter()
        .map(|n| n.group(GROUP).and_then(|s| s.persistence()).map_or(0, |p| p.wal_len()))
        .collect()
}

/// Every admitted member got exactly one grant, relayed from its slice's
/// shard, and a live member's grant carries the individual key its slice
/// holds for it.
fn check_grants(d: &Deployment, reference: &Reference, admitted: &[UserId]) -> Result<(), String> {
    for &u in admitted {
        let relayed = d.grants.get(&u).copied().unwrap_or(0);
        if relayed != 1 {
            return Err(format!("{u:?} was relayed {relayed} grants"));
        }
        let owner = reference.map.owner(GROUP, u);
        let grant = d.cluster.grant(GROUP, u).ok_or_else(|| format!("{u:?} holds no grant"))?;
        if grant.shard != owner {
            return Err(format!(
                "{u:?} was granted by {:?}, its slice is on {owner:?}",
                grant.shard
            ));
        }
        if let Some(ks) = reference.servers[&owner].tree().keyset(u) {
            if ks.first().map(|(_, k)| k.material()) != Some(&grant.key[..]) {
                return Err(format!("{u:?} was granted another key than its slice holds"));
            }
        }
    }
    Ok(())
}

/// Crash one shard and recover it from its store: recovery replays the
/// WAL and verifies the root digest; keys must come back unchanged.
fn crash_and_recover(d: &mut Deployment) -> Result<f64, String> {
    let shard = ShardId(0);
    let before = d.slice(shard).ok_or("shard 0 hosts no slice")?.tree().group_key();
    d.cluster.crash_node(shard);
    let t = Instant::now();
    d.cluster.recover_node(shard).map_err(|e| format!("recovery of shard 0 failed: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let after = d.slice(shard).ok_or("recovered shard 0 hosts no slice")?.tree().group_key();
    checks::holds_current_key(Some(after), &before)
        .map_err(|e| format!("after recovery of shard 0: {e}"))?;
    Ok(ms)
}

fn per_layer(
    t: &Acc,
    untraced_ops_per_s: f64,
    setup_s: f64,
    height: usize,
    recover_ms: f64,
) -> Vec<Metric> {
    let req = t.requests as f64;
    let per_req = |v: f64| ratio(v, req);
    let l = &t.layers;
    let children = l.tree_us + l.encrypt_us + l.sign_us + l.encode_us;
    // On this workload a server call is one interval's SimCluster calls.
    let call_p50 = percentile(&t.interval_us, 0.50);
    let call_p99 = percentile(&t.interval_us, 0.99);
    vec![
        metric("server.call_us_p50", call_p50, "us"),
        metric("server.call_us_p99", call_p99, "us"),
        metric("server.self_us_per_req", per_req(l.op_us - children), "us"),
        metric("server.setup_join_us_mean", setup_s * 1e6 / MEMBERS as f64, "us"),
        metric("core.tree_us_per_req", per_req(l.tree_us), "us"),
        metric("core.tree_height", height as f64, "count"),
        metric("core.keys_generated_per_req", per_req(l.keys), "count"),
        metric("par.encrypt_us_per_req", per_req(l.encrypt_us), "us"),
        metric("par.encryptions_per_req", per_req(l.encryptions), "count"),
        metric("par.bundle_cache_hit_ratio", ratio(l.hits, l.hits + l.misses), "ratio"),
        metric("crypto.sign_us_per_req", per_req(l.sign_us), "us"),
        metric("crypto.signatures_per_req", per_req(l.signatures), "count"),
        metric("wire.encode_us_per_req", per_req(l.encode_us), "us"),
        metric("wire.packets_per_req", per_req(t.packets as f64), "count"),
        metric("wire.largest_packet_bytes", t.largest as f64, "B"),
        metric("wire.packets_over_udp_budget", t.over_budget as f64, "count"),
        metric("persist.wal_us_per_req", per_req(l.wal_us), "us"),
        metric("persist.wal_bytes_per_req", ratio(t.wal_bytes as f64, t.wal_requests as f64), "B"),
        metric("persist.recover_ms", recover_ms, "ms"),
        metric("batch.interval_us_p50", percentile(&t.flush_us, 0.50), "us"),
        metric("batch.interval_us_p99", percentile(&t.flush_us, 0.99), "us"),
        metric("batch.requests_per_interval", ratio(req, t.intervals as f64), "count"),
        metric("cluster.router_us_per_req", per_req(l.router_us), "us"),
        metric("cluster.node_us_per_req", per_req(l.parse_us + l.op_us + l.wal_flush_us), "us"),
        metric("cluster.relayed_frames_per_req", per_req(l.relayed), "count"),
        metric("net.datagrams_per_req", per_req(l.datagrams), "count"),
        // Members are reachable only through the harness's endpoint
        // counters here: no client state machine runs.
        metric("client.apply_us_p50", 0.0, "us"),
        metric("client.apply_us_p99", 0.0, "us"),
        metric("client.packets_per_member_req", per_req(t.member_packets), "count"),
        metric("client.keys_changed_per_member_req", 0.0, "count"),
        metric(
            "obs.tracing_overhead_pct",
            100.0 * ratio(untraced_ops_per_s - t.ops_per_s(), untraced_ops_per_s),
            "%",
        ),
    ]
}
