//! The `paper-immediate` workload, the paper's evaluation: n = 8192,
//! degree 4, 1:1 join/leave, one RSA signature per request, rotated over
//! the four rekeying strategies. Standalone [`GroupKeyServer`]s are driven
//! one request at a time, with a sample of members running the real
//! [`Client`] state machine.

use crate::checks;
use crate::measure::{
    counter, counter_exact, median, metric, micros, peak_rss_mb, percentile, ratio, span_total,
    Report, Rng, SETUPS,
};
use kg_client::{Client, VerifyPolicy};
use kg_core::ids::{KeyLabel, UserId};
use kg_core::rekey::{Recipients, Strategy};
use kg_net::MAX_UDP_PAYLOAD;
use kg_obs::{Obs, ObsConfig};
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ProcessedOp, ServerConfig};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Leave,
}

/// One server per strategy; requests rotate over them.
const STRATEGIES: [Strategy; 4] =
    [Strategy::UserOriented, Strategy::KeyOriented, Strategy::GroupOriented, Strategy::Derived];
/// One RSA-512 signature per request in the measured phase. Set-up runs
/// unauthenticated, as in the paper, except for the sampled members' own
/// joins.
const AUTH: AuthPolicy = AuthPolicy::SignBatch;
/// Members per server at the end of set-up.
const INITIAL: u64 = 8192;
/// One round per server: a join and a leave, shuffled; fixes the mix at
/// exactly 1:1.
const ROUND: [Kind; 2] = [Kind::Join, Kind::Leave];
/// Rounds per block: 512 requests over the four servers.
const BLOCK_ROUNDS: usize = 64;
/// Members per server running a real client.
const SAMPLED: usize = 16;

/// Departed sampled members kept per server as eavesdroppers.
const DEPARTED_KEPT: usize = 4;

/// One server with its membership book-keeping and sampled members.
struct Lane {
    server: GroupKeyServer,
    strategy: Strategy,
    degree: u64,
    verify: VerifyPolicy,
    members: Vec<UserId>,
    slot: HashMap<UserId, usize>,
    next_user: u64,
    sampled: BTreeMap<UserId, Client>,
    /// Sampled members that left; they overhear every multicast.
    departed: VecDeque<Client>,
    max_members: usize,
}

/// What delivering one request's packets to the sampled members did.
#[derive(Default)]
struct Delivery {
    /// Longest total apply time of any affected sampled member.
    max_apply: Duration,
    /// Per affected member: apply time (µs).
    apply_us: Vec<f64>,
    rx_bytes: u64,
    rx_packets: u64,
    keys_changed: u64,
    /// Live sampled members after the request.
    live: usize,
    error: Option<String>,
}

impl Lane {
    fn build(strategy: Strategy, seed: u64) -> Result<Lane, String> {
        let config = ServerConfig::builder()
            .strategy(strategy)
            .auth(AUTH)
            .seed(seed)
            .stats_record_cap(Some(4))
            .build()
            .map_err(|e| format!("config: {e}"))?;
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        let key = server.public_key().ok_or("a signing server holds an RSA key")?.clone();
        let verify = VerifyPolicy::RequireSignature { alg: server.config().digest, key };
        let degree = server.config().degree as u64;
        server.set_auth(AuthPolicy::None);
        let mut lane = Lane {
            server,
            strategy,
            degree,
            verify,
            members: Vec::new(),
            slot: HashMap::new(),
            next_user: 0,
            sampled: BTreeMap::new(),
            departed: VecDeque::new(),
            max_members: 0,
        };
        let unsampled = INITIAL - SAMPLED as u64;
        for u in 0..unsampled {
            lane.server.handle_join(UserId(u)).map_err(|e| format!("set-up join: {e}"))?;
            lane.add(UserId(u));
        }
        // The sampled members join last, authenticated, so they verify
        // every packet they ever see.
        lane.server.set_auth(AUTH);
        lane.next_user = unsampled;
        for _ in 0..SAMPLED {
            let user = lane.fresh_user();
            let op = lane.server.handle_join(user).map_err(|e| format!("set-up join: {e}"))?;
            lane.admit(user, &op);
            if let Some(e) = lane.deliver(&op, None).error {
                return Err(format!("set-up delivery: {e}"));
            }
        }
        Ok(lane)
    }

    fn fresh_user(&mut self) -> UserId {
        let u = UserId(self.next_user);
        self.next_user += 1;
        u
    }

    fn add(&mut self, u: UserId) {
        self.slot.insert(u, self.members.len());
        self.members.push(u);
        self.max_members = self.max_members.max(self.members.len());
    }

    fn remove(&mut self, u: UserId) {
        if let Some(i) = self.slot.remove(&u) {
            self.members.swap_remove(i);
            if let Some(&moved) = self.members.get(i) {
                self.slot.insert(moved, i);
            }
        }
    }

    /// Book a completed join; the joiner becomes a sampled member while
    /// the sample is short (it shrinks when sampled members leave).
    fn admit(&mut self, user: UserId, op: &ProcessedOp) {
        self.add(user);
        if self.sampled.len() < SAMPLED {
            if let Some(g) = &op.join_grant {
                let mut c = Client::new(user, self.server.config().cipher, self.verify.clone());
                c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
                self.sampled.insert(user, c);
            }
        }
    }

    /// Hand each sampled member the packets addressed to it (resolved
    /// against the post-request tree, as the network server does), timing
    /// its apply. With `tamper_at`, the first delivered packet is first
    /// offered with one byte of its signed body flipped. Departed members
    /// overhear every multicast.
    fn deliver(&mut self, op: &ProcessedOp, mut tamper_at: Option<u64>) -> Delivery {
        let frames = op.frames();
        let mut out = Delivery { live: self.sampled.len(), ..Delivery::default() };
        for (&user, client) in self.sampled.iter_mut() {
            let labels: Vec<KeyLabel> = self
                .server
                .tree()
                .keyset(user)
                .map(|ks| ks.iter().map(|(r, _)| r.label).collect())
                .unwrap_or_default();
            let mut spent = Duration::ZERO;
            let mut got = 0;
            for (to, bytes) in &frames {
                if !checks::addressed(to, user, &labels) {
                    continue;
                }
                if let Some(at) = tamper_at.take() {
                    if let Err(e) = checks::tamper_rejected(client, bytes, at as usize) {
                        out.error.get_or_insert(e);
                    }
                }
                let t = Instant::now();
                let applied = client.process_packet(bytes);
                spent += t.elapsed();
                got += 1;
                out.rx_bytes += bytes.len() as u64;
                match applied {
                    Ok(s) => out.keys_changed += s.keys_installed,
                    Err(e) => {
                        out.error.get_or_insert(format!("member {user:?} rejected a packet: {e}"));
                    }
                }
            }
            if got > 0 {
                out.rx_packets += got;
                out.apply_us.push(micros(spent));
                out.max_apply = out.max_apply.max(spent);
            }
        }
        for d in &mut self.departed {
            for (to, bytes) in &frames {
                if *to == Recipients::Group {
                    let _ = d.process_packet(bytes); // expected to learn nothing
                }
            }
        }
        out
    }

    /// The method's properties after one request whose requester's path
    /// held `h` keys.
    fn check(&self, kind: Kind, op: &ProcessedOp, h: u64) -> Result<(), String> {
        let current = self.server.tree().group_key();
        for c in self.sampled.values() {
            checks::holds_current_key(c.group_key(), &current)
                .map_err(|e| format!("{:?}: {e}", c.user()))?;
        }
        for d in &self.departed {
            checks::excluded_from_current(d.group_key(), &current)
                .map_err(|e| format!("{:?}: {e}", d.user()))?;
        }
        if self.strategy == Strategy::Derived && kind == Kind::Join {
            let bundles =
                op.derived.iter().flat_map(|p| &p.messages).map(|m| m.bundles.len()).sum();
            checks::derived_join_seals_one(bundles)?;
        } else {
            let record = self.server.stats().records().last().ok_or("no stats record")?;
            checks::encryptions_within_table2(
                self.strategy,
                kind == Kind::Join,
                record.encryptions,
                h,
                self.degree,
            )?;
        }
        if h > height_bound(self.max_members as u64, self.degree) {
            return Err(format!("path of {h} keys exceeds the height bound"));
        }
        Ok(())
    }

    /// Issue one request and check its outputs; the error says what failed.
    fn request(&mut self, kind: Kind, rng: &mut Rng) -> Result<Sample, String> {
        let (user, leave_depth) = match kind {
            Kind::Join => (self.fresh_user(), 0),
            Kind::Leave => {
                let u = self.members[rng.below(self.members.len() as u64) as usize];
                (u, self.server.tree().keyset(u).map_or(0, |k| k.len() as u64))
            }
        };
        let tamper_at = rng.next_u64();
        let t = Instant::now();
        let result = match kind {
            Kind::Join => self.server.handle_join(user),
            Kind::Leave => self.server.handle_leave(user),
        };
        let call = t.elapsed();
        let op = result.map_err(|e| format!("{kind:?} {user:?}: {e}"))?;
        let h = match kind {
            Kind::Join => {
                self.admit(user, &op);
                op.join_grant.as_ref().map_or(0, |g| g.path_labels.len() as u64 + 1)
            }
            Kind::Leave => {
                self.remove(user);
                if let Some(c) = self.sampled.remove(&user) {
                    self.departed.push_back(c);
                    if self.departed.len() > DEPARTED_KEPT {
                        self.departed.pop_front();
                    }
                }
                leave_depth
            }
        };
        let delivery = self.deliver(&op, Some(tamper_at));
        if let Some(e) = delivery.error {
            return Err(e);
        }
        self.check(kind, &op, h)?;
        Ok(Sample {
            call,
            max_apply: delivery.max_apply,
            apply_us: delivery.apply_us,
            bytes: op.encoded.iter().map(|e| e.len() as u64).sum(),
            packets: op.encoded.len() as u64,
            largest: op.encoded.iter().map(Vec::len).max().unwrap_or(0),
            rx_bytes: delivery.rx_bytes,
            rx_packets: delivery.rx_packets,
            keys_changed: delivery.keys_changed,
            live: delivery.live,
        })
    }
}

/// ⌈log_d n⌉ + 1: the height a balanced degree-`d` tree of `n` members
/// may reach.
fn height_bound(n: u64, d: u64) -> u64 {
    let (mut k, mut cap) = (0, 1u64);
    while cap < n {
        cap = cap.saturating_mul(d);
        k += 1;
    }
    k + 1
}

/// One completed, checked request.
struct Sample {
    call: Duration,
    max_apply: Duration,
    apply_us: Vec<f64>,
    bytes: u64,
    packets: u64,
    largest: usize,
    rx_bytes: u64,
    rx_packets: u64,
    keys_changed: u64,
    live: usize,
}

/// Figures accumulated over the untraced or the traced blocks.
#[derive(Default)]
struct Acc {
    requests: u64,
    call: Duration,
    call_us: Vec<f64>,
    rekey_us: Vec<f64>,
    bytes: u64,
    packets: u64,
    largest: usize,
    over_budget: u64,
    /// Sum over requests of (bytes received per live sampled member).
    member_rx: f64,
    member_samples: u64,
    member_packets: u64,
    member_keys: u64,
    apply_us: Vec<f64>,
}

impl Acc {
    fn add(&mut self, s: Sample) {
        self.requests += 1;
        self.call += s.call;
        self.call_us.push(micros(s.call));
        self.rekey_us.push(micros(s.call + s.max_apply));
        self.bytes += s.bytes;
        self.packets += s.packets;
        self.largest = self.largest.max(s.largest);
        if s.largest > MAX_UDP_PAYLOAD {
            self.over_budget += 1;
        }
        if s.live > 0 {
            self.member_rx += s.rx_bytes as f64 / s.live as f64;
            self.member_samples += s.live as u64;
        }
        self.member_packets += s.rx_packets;
        self.member_keys += s.keys_changed;
        self.apply_us.extend(s.apply_us);
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.requests as f64, self.call.as_secs_f64())
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let mut report = Report { run_checks_passed: true, ..Report::default() };

    // Set-up, several times; the last build is the one measured.
    let mut setup_s = Vec::new();
    let mut lanes: Vec<Lane> = Vec::new();
    for _ in 0..SETUPS {
        lanes.clear();
        let t = Instant::now();
        let built: Result<Vec<Lane>, String> = STRATEGIES
            .iter()
            .enumerate()
            .map(|(i, &s)| Lane::build(s, seed.wrapping_mul(31).wrapping_add(i as u64)))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(l) => lanes = l,
            Err(e) => {
                report.note_failure(format!("set-up failed: {e}"));
                report.run_checks_passed = false;
                return report;
            }
        }
    }
    let setup_median = median(&setup_s);

    // Measured phase: whole blocks until the budget is spent. Under
    // --trace 1, odd blocks run with the server's spans attached.
    let obs = Obs::new(ObsConfig::default());
    let mut rng = Rng::new(seed, 1);
    let mut acc = [Acc::default(), Acc::default()];
    let start = Instant::now();
    let mut block_no = 0u64;
    while start.elapsed() < budget {
        let traced = trace && block_no % 2 == 1;
        if trace {
            for lane in &mut lanes {
                lane.server.attach_obs(if traced { obs.clone() } else { Obs::disabled() });
            }
        }
        for _ in 0..BLOCK_ROUNDS {
            for lane in &mut lanes {
                let mut kinds = ROUND;
                rng.shuffle(&mut kinds);
                for kind in kinds {
                    report.attempted += 1;
                    match lane.request(kind, &mut rng) {
                        Ok(s) => acc[traced as usize].add(s),
                        Err(e) => report.fail_op(e),
                    }
                }
            }
        }
        block_no += 1;
    }

    for lane in &lanes {
        let h = lane.server.tree().height() as u64;
        let bound = height_bound(lane.max_members as u64, lane.degree);
        if h > bound {
            report.run_checks_passed = false;
            report.note_failure(format!("tree height {h} exceeds {bound}"));
        }
        let tree = lane.server.tree();
        if std::panic::catch_unwind(|| tree.check_invariants()).is_err() {
            report.run_checks_passed = false;
            report.note_failure("key-tree invariants violated".to_string());
        }
    }

    let members: usize = lanes.iter().map(|l| l.members.len()).sum();
    let e2e = &acc[0];
    report.notes.push(format!(
        "{} servers, {members} members at the end, {block_no} blocks, {} time-to-key samples \
         untraced, {} traced, set-ups {setup_s:?} s",
        lanes.len(),
        e2e.rekey_us.len(),
        acc[1].rekey_us.len(),
    ));
    report.end_to_end = vec![
        metric("setup_s", setup_median, "s"),
        metric("ops_per_s", e2e.ops_per_s(), "1/s"),
        metric("rekey_p50_us", percentile(&e2e.rekey_us, 0.50), "us"),
        metric("rekey_p99_us", percentile(&e2e.rekey_us, 0.99), "us"),
        metric("rekey_bytes_per_req", ratio(e2e.bytes as f64, e2e.requests as f64), "B"),
        metric("member_rx_bytes_per_req", ratio(e2e.member_rx, e2e.requests as f64), "B"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    if trace {
        let t = &acc[1];
        let setup_joins = INITIAL as f64 * lanes.len() as f64;
        let height = lanes.iter().map(|l| l.server.tree().height()).max().unwrap_or(0);
        report.per_layer = per_layer(&obs, t, e2e.ops_per_s(), setup_median, setup_joins, height);
        let op_us = span_total(&obs, &["op.join", "op.leave"]);
        report.notes.push(format!(
            "op spans {:.0} us vs timed server calls {:.0} us: {:+.2}%",
            op_us,
            micros(t.call),
            100.0 * (op_us / micros(t.call) - 1.0)
        ));
    }
    report
}

/// Per-layer figures of the traced blocks. Every per-request figure is
/// divided by the traced requests only (spans and counters record only
/// while the handle is attached).
fn per_layer(
    obs: &Obs,
    t: &Acc,
    untraced_ops_per_s: f64,
    setup_s: f64,
    setup_joins: f64,
    height: usize,
) -> Vec<crate::measure::Metric> {
    let req = t.requests as f64;
    let per_req = |v: f64| ratio(v, req);
    let phase =
        |name: &str| span_total(obs, &[&format!("op.join.{name}"), &format!("op.leave.{name}")]);
    let op_us = span_total(obs, &["op.join", "op.leave"]);
    let children: f64 = ["tree", "encrypt", "sign", "encode", "wal"].iter().map(|p| phase(p)).sum();
    let hits = counter_exact(obs, "kg_par_cache_total{result=\"hit\"}") as f64;
    let misses = counter_exact(obs, "kg_par_cache_total{result=\"miss\"}") as f64;
    let call_p50 = percentile(&t.call_us, 0.50);
    let call_p99 = percentile(&t.call_us, 0.99);
    let member_reqs = t.member_samples as f64;
    vec![
        metric("server.call_us_p50", call_p50, "us"),
        metric("server.call_us_p99", call_p99, "us"),
        metric("server.self_us_per_req", per_req(op_us - children), "us"),
        metric("server.setup_join_us_mean", ratio(setup_s * 1e6, setup_joins), "us"),
        metric("core.tree_us_per_req", per_req(phase("tree")), "us"),
        metric("core.tree_height", height as f64, "count"),
        metric(
            "core.keys_generated_per_req",
            per_req(counter(obs, "kg_ledger_nodes_touched_total") as f64),
            "count",
        ),
        metric("par.encrypt_us_per_req", per_req(phase("encrypt")), "us"),
        metric(
            "par.encryptions_per_req",
            per_req(counter_exact(obs, "kg_encryptions_total") as f64),
            "count",
        ),
        metric("par.bundle_cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric("crypto.sign_us_per_req", per_req(phase("sign")), "us"),
        metric(
            "crypto.signatures_per_req",
            per_req(counter_exact(obs, "kg_signatures_total") as f64),
            "count",
        ),
        metric("wire.encode_us_per_req", per_req(phase("encode")), "us"),
        metric("wire.packets_per_req", per_req(t.packets as f64), "count"),
        metric("wire.largest_packet_bytes", t.largest as f64, "B"),
        metric("wire.packets_over_udp_budget", t.over_budget as f64, "count"),
        metric("persist.wal_us_per_req", per_req(phase("wal")), "us"),
        metric("persist.wal_bytes_per_req", 0.0, "B"),
        metric("persist.recover_ms", 0.0, "ms"),
        // An immediate request is an interval of one.
        metric("batch.interval_us_p50", call_p50, "us"),
        metric("batch.interval_us_p99", call_p99, "us"),
        metric("batch.requests_per_interval", 1.0, "count"),
        metric("cluster.router_us_per_req", 0.0, "us"),
        metric("cluster.node_us_per_req", 0.0, "us"),
        metric("cluster.relayed_frames_per_req", 0.0, "count"),
        metric("net.datagrams_per_req", 0.0, "count"),
        metric("client.apply_us_p50", percentile(&t.apply_us, 0.50), "us"),
        metric("client.apply_us_p99", percentile(&t.apply_us, 0.99), "us"),
        metric(
            "client.packets_per_member_req",
            ratio(t.member_packets as f64, member_reqs),
            "count",
        ),
        metric(
            "client.keys_changed_per_member_req",
            ratio(t.member_keys as f64, member_reqs),
            "count",
        ),
        metric(
            "obs.tracing_overhead_pct",
            100.0 * ratio(untraced_ops_per_s - t.ops_per_s(), untraced_ops_per_s),
            "%",
        ),
    ]
}
