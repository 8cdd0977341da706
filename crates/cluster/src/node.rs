//! The cluster node: membership, routing, and forwarding.
//!
//! A [`ClusterNode`] owns one extra TCP listener next to the HTTP
//! server and two background threads:
//!
//! * the **listener** answers peer frames (join handshakes, heartbeats,
//!   forwarded `execute` requests — single `/v1/sim` and `/v1/check`
//!   requests and scattered sweep parts alike — metrics fan-out,
//!   peer-list queries, graceful leaves), spawning one
//!   short-lived thread per connection;
//! * the **heartbeat loop** pings every known peer each
//!   [`ClusterConfig::heartbeat_ms`], piggybacking the full peer list
//!   (gossip-lite: any peer learned by one node reaches the others
//!   within a round). A peer that misses three consecutive windows is
//!   declared dead, tombstoned so gossip cannot resurrect it, and
//!   removed from the ring — only its keys rehash, each to the next
//!   surviving node on the ring.
//!
//! An `execute` frame names a local endpoint and carries the request
//! body; the owner answers one `reply` frame with the HTTP status and
//! body its own request path produced. The entry node relays that reply
//! as it is, unless the owner was busy (429), draining (503) or
//! unreachable — then it runs the request itself.
//!
//! The node is deliberately ignorant of HTTP and of the simulator: the
//! serve layer hands it two closures ([`Hooks`]) — answer a request body
//! on a local endpoint, and snapshot the local metrics. That keeps the
//! dependency arrow pointing one way (serve → cluster) with no circular
//! knowledge.

use crate::proto::{self, read_frame, write_frame};
use crate::ring::Ring;
use hetmem_sim::SimError;
use hetmem_xplore::json::Json;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Answers one request body on a local serve endpoint (`"/v1/sim"`,
/// `"/v1/check"` or `"/v1/sweep-part"`) through the code a client of
/// this node would hit, never forwarding it again.
pub type Executor = Arc<dyn Fn(&str, &str) -> Reply + Send + Sync>;

/// Snapshots the local `/metrics` document for cluster-wide fan-out.
pub type MetricsProvider = Arc<dyn Fn() -> Json + Send + Sync>;

/// The serve-layer callbacks a node needs to do its job.
#[derive(Clone)]
pub struct Hooks {
    /// Answers a forwarded request locally.
    pub executor: Executor,
    /// Snapshots local metrics.
    pub metrics: MetricsProvider,
}

/// What an owner's local request path answered: the HTTP status and
/// body, carried back to the entry node in one `reply` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The HTTP status code.
    pub status: u16,
    /// The response body, byte-identical to a local answer.
    pub body: String,
}

/// Tunables for one cluster node.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Cluster listener bind address. `None` binds an ephemeral
    /// loopback port (`127.0.0.1:0`).
    pub advertise: Option<String>,
    /// An existing member to join, or `None` to found a new ring.
    pub join: Option<String>,
    /// This node's HTTP address, gossiped so peers can probe
    /// `GET /v1/health` and operators can find every API endpoint.
    pub http_addr: String,
    /// Heartbeat period. A peer missing `3 *` this window is dead.
    pub heartbeat_ms: u64,
    /// Where to persist the last-known peer list on every membership
    /// change (`<cache-dir>/cluster-peers.json`, typically). A restarted
    /// node with no reachable `join` seed falls back to dialing these
    /// addresses, so a bounced process rejoins its fleet unattended.
    /// `None` disables persistence.
    pub peers_path: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            advertise: None,
            join: None,
            http_addr: "127.0.0.1:0".to_owned(),
            heartbeat_ms: 500,
            peers_path: None,
        }
    }
}

/// What this node knows about one peer.
#[derive(Clone, Debug)]
struct PeerState {
    /// The peer's HTTP address (health probes, operator discovery).
    http: String,
    /// When the peer last proved it was alive (heartbeat either way).
    last_seen: Instant,
}

/// Recovers from a poisoned lock: every structure behind these locks is
/// valid after any partial update (counters and maps, no invariants
/// spanning fields), so a panicking peer-handler thread must not take
/// the whole node down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How long a forwarded `execute` (a single request or a whole sweep
/// part) may run before the entry node gives up on the owner. Matches
/// the longest job the serve layer accepts.
const EXECUTE_READ_TIMEOUT: Duration = Duration::from_secs(600);
/// Read timeout for short control frames (hello, metrics).
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Read timeout for heartbeats — a slow peer is a dead peer.
const HEARTBEAT_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Missed-heartbeat windows before a peer is declared dead.
const MISS_WINDOWS: u32 = 3;
/// Heartbeat periods a tombstone outlives its peer, blocking gossip
/// from resurrecting an address the ring already buried.
const TOMBSTONE_WINDOWS: u32 = 10;

/// One member of a hetmem serve fleet.
pub struct ClusterNode {
    cfg: ClusterConfig,
    hooks: Hooks,
    /// This node's cluster address as peers dial it.
    self_addr: String,
    listen_addr: SocketAddr,
    members: Mutex<HashMap<String, PeerState>>,
    tombstones: Mutex<HashMap<String, Instant>>,
    ring: Mutex<Ring>,
    draining: AtomicBool,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    forwards_out: AtomicU64,
    forwards_in: AtomicU64,
    work_steals: AtomicU64,
    peer_failures: AtomicU64,
    peers_removed: AtomicU64,
    heartbeats_sent: AtomicU64,
    sweep_parts_in: AtomicU64,
    sweep_parts_out: AtomicU64,
    sweep_part_failovers: AtomicU64,
}

impl ClusterNode {
    /// Binds the cluster listener, joins the ring named by
    /// [`ClusterConfig::join`] (if any), and starts the listener and
    /// heartbeat threads.
    ///
    /// The node's HTTP server must already be accepting: the seed
    /// probes the joiner's `GET /v1/health` before admitting it.
    ///
    /// # Errors
    ///
    /// Returns an error when the listener cannot bind, or when the
    /// seed is unreachable or refuses the join.
    pub fn start(cfg: ClusterConfig, hooks: Hooks) -> Result<Arc<ClusterNode>, SimError> {
        let bind = cfg
            .advertise
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_owned());
        let listener = TcpListener::bind(&bind)
            .map_err(|e| SimError::Io(format!("cluster bind {bind}: {e}")))?;
        let listen_addr = listener
            .local_addr()
            .map_err(|e| SimError::Io(format!("cluster listener address: {e}")))?;
        let self_addr = listen_addr.to_string();
        let node = Arc::new(ClusterNode {
            ring: Mutex::new(Ring::new(std::slice::from_ref(&self_addr))),
            cfg,
            hooks,
            self_addr,
            listen_addr,
            members: Mutex::new(HashMap::new()),
            tombstones: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
            forwards_out: AtomicU64::new(0),
            forwards_in: AtomicU64::new(0),
            work_steals: AtomicU64::new(0),
            peer_failures: AtomicU64::new(0),
            peers_removed: AtomicU64::new(0),
            heartbeats_sent: AtomicU64::new(0),
            sweep_parts_in: AtomicU64::new(0),
            sweep_parts_out: AtomicU64::new(0),
            sweep_part_failovers: AtomicU64::new(0),
        });

        let accept_node = Arc::clone(&node);
        let accept = std::thread::spawn(move || accept_node.accept_loop(&listener));
        lock(&node.threads).push(accept);

        if let Some(seed) = node.cfg.join.clone() {
            if let Err(err) = node.join_seed(&seed) {
                // The named seed is gone; a persisted peer list from a
                // previous life may still name live members.
                if !node.rejoin_persisted() {
                    node.shutdown();
                    return Err(err);
                }
            }
        } else if node.cfg.peers_path.is_some() {
            // Founding a ring, but a previous incarnation may have left
            // peers behind — rejoin them rather than split-brain.
            let _ = node.rejoin_persisted();
        }

        let beat_node = Arc::clone(&node);
        let beat = std::thread::spawn(move || beat_node.heartbeat_loop());
        lock(&node.threads).push(beat);
        Ok(node)
    }

    /// This node's cluster listener address.
    #[must_use]
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// This node's cluster address as peers dial it.
    #[must_use]
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// A clone of the current hash ring, for callers that partition a
    /// batch by ownership (the distributed sweep dispatcher). The clone
    /// is a consistent snapshot: membership changes after it never
    /// corrupt a partition, they only route parts to nodes that answer
    /// busy or unavailable — which the engine survives by failover.
    #[must_use]
    pub fn ring_snapshot(&self) -> Ring {
        lock(&self.ring).clone()
    }

    /// Every live member's HTTP address (this node excluded), sorted.
    /// The serve layer hands these to clients that polled the wrong
    /// node for an async job.
    #[must_use]
    pub fn peer_http_addrs(&self) -> Vec<String> {
        let mut addrs: Vec<String> = lock(&self.members)
            .values()
            .map(|p| p.http.clone())
            .filter(|http| !http.is_empty())
            .collect();
        addrs.sort();
        addrs
    }

    /// Counts sweep parts scattered from this node to part owners.
    pub fn note_parts_out(&self, parts: u64) {
        self.sweep_parts_out.fetch_add(parts, Ordering::Relaxed);
    }

    /// Counts one sweep part that came back onto the local pool after
    /// its owner proved unreachable, draining, or busy — the batch
    /// flavor of reactive stealing.
    pub fn note_part_failover(&self) {
        self.sweep_part_failovers.fetch_add(1, Ordering::Relaxed);
        self.work_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs the request addressed by `key` on the key's ring owner and
    /// returns the owner's reply, for the entry node to relay as it is.
    /// Identical requests forwarded concurrently — from this node or any
    /// other — coalesce in the owner's pool.
    ///
    /// Returns `None` when the caller should run the request itself:
    /// this node owns the key, or the owner answered 429 (queue full) or
    /// 503 (draining), or could not be reached. The last three are the
    /// reactive steal, counted in `work_steals`, which is also the
    /// failover path that keeps the fleet answering within one heartbeat
    /// interval of a node death.
    pub fn forward(&self, key: &str, endpoint: &str, body: &str) -> Option<Reply> {
        let owner = lock(&self.ring).owner(key)?.to_owned();
        if owner == self.self_addr {
            return None;
        }
        self.forwards_out.fetch_add(1, Ordering::Relaxed);
        match execute(&owner, endpoint, body) {
            Ok(reply) if !matches!(reply.status, 429 | 503) => return Some(reply),
            Ok(_) => {}
            Err(_) => {
                self.peer_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.work_steals.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Fans out to every live peer for its `/metrics` document.
    /// Unreachable peers are skipped (and counted as failures); the
    /// caller merges the survivors with its own snapshot.
    #[must_use]
    pub fn peer_metrics(&self) -> Vec<(String, Json)> {
        let peers: Vec<String> = lock(&self.members).keys().cloned().collect();
        let request = Json::obj(vec![("kind", Json::Str("metrics".to_owned()))]);
        let mut out = Vec::with_capacity(peers.len());
        for peer in peers {
            match proto::call(&peer, &request, CONTROL_READ_TIMEOUT) {
                Ok(reply) => {
                    if let Some(body) = reply.get("body") {
                        out.push((peer, body.clone()));
                    }
                }
                Err(_) => {
                    self.peer_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// This node's cluster state and counters as one JSON object — the
    /// `"cluster"` section of `/metrics`.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let mut rows = self.member_rows();
        rows.sort();
        let count = |c: &AtomicU64| Json::UInt(c.load(Ordering::Relaxed));
        Json::obj(vec![
            ("self", Json::Str(self.self_addr.clone())),
            ("http", Json::Str(self.cfg.http_addr.clone())),
            ("peers", peers_json(rows)),
            ("forwards_out", count(&self.forwards_out)),
            ("forwards_in", count(&self.forwards_in)),
            ("work_steals", count(&self.work_steals)),
            ("peer_failures", count(&self.peer_failures)),
            ("peers_removed", count(&self.peers_removed)),
            ("heartbeats_sent", count(&self.heartbeats_sent)),
            ("sweep_parts_in", count(&self.sweep_parts_in)),
            ("sweep_parts_out", count(&self.sweep_parts_out)),
            ("sweep_part_failovers", count(&self.sweep_part_failovers)),
        ])
    }

    /// Leaves the ring and stops both background threads: announces a
    /// graceful `leave` to every peer at once (so they rehash immediately
    /// instead of waiting out the miss window, and a silent peer costs
    /// one read timeout in all, not one each), then joins the listener
    /// and heartbeat threads.
    pub fn shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        *lock(&self.stop) = true;
        self.stop_cv.notify_all();
        let peers: Vec<String> = lock(&self.members).keys().cloned().collect();
        let leave = Json::obj(vec![
            ("kind", Json::Str("leave".to_owned())),
            ("from", Json::Str(self.self_addr.clone())),
        ]);
        std::thread::scope(|scope| {
            for peer in &peers {
                let leave = &leave;
                scope.spawn(move || proto::call(peer, leave, HEARTBEAT_READ_TIMEOUT));
            }
        });
        // Wake the accept loop so it observes the drain flag.
        let _ = TcpStream::connect(self.listen_addr);
        let threads = std::mem::take(&mut *lock(&self.threads));
        for handle in threads {
            let _ = handle.join();
        }
    }

    // ------------------------------------------------------------------
    // Membership.

    /// Sends the join handshake to `seed` and adopts its peer list.
    fn join_seed(&self, seed: &str) -> Result<(), SimError> {
        let hello = Json::obj(vec![
            ("kind", Json::Str("hello".to_owned())),
            ("cluster", Json::Str(self.self_addr.clone())),
            ("http", Json::Str(self.cfg.http_addr.clone())),
        ]);
        let reply = proto::call(seed, &hello, CONTROL_READ_TIMEOUT)?;
        if reply.get("kind").and_then(Json::as_str) != Some("welcome") {
            let message = reply
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("join rejected");
            return Err(SimError::Io(format!("cluster join {seed}: {message}")));
        }
        if let Some(Json::Arr(peers)) = reply.get("peers") {
            self.merge_peers(peers);
        }
        Ok(())
    }

    /// Admits every unknown, non-tombstoned peer from a gossiped list.
    fn merge_peers(&self, peers: &[Json]) {
        let now = Instant::now();
        let mut changed = false;
        for peer in peers {
            let Some(cluster) = peer.get("cluster").and_then(Json::as_str) else {
                continue;
            };
            let http = peer.get("http").and_then(Json::as_str).unwrap_or_default();
            if cluster == self.self_addr || self.is_tombstoned(cluster) {
                continue;
            }
            let mut members = lock(&self.members);
            if !members.contains_key(cluster) {
                members.insert(
                    cluster.to_owned(),
                    PeerState {
                        http: http.to_owned(),
                        last_seen: now,
                    },
                );
                changed = true;
            }
        }
        if changed {
            self.rebuild_ring();
        }
    }

    /// Whether `addr` is under a live tombstone; prunes expired ones.
    fn is_tombstoned(&self, addr: &str) -> bool {
        let ttl = Duration::from_millis(self.cfg.heartbeat_ms * u64::from(TOMBSTONE_WINDOWS));
        let mut tombstones = lock(&self.tombstones);
        tombstones.retain(|_, buried| buried.elapsed() < ttl);
        tombstones.contains_key(addr)
    }

    /// Rebuilds the hash ring from the current member set plus self.
    /// Every membership change funnels through here, which makes it the
    /// one place to persist the peer list for unattended rejoin.
    ///
    /// Connection threads and the heartbeat thread rebuild concurrently,
    /// so the whole rebuild, from reading the members to renaming the
    /// peer file, holds the ring lock. The last rebuild to finish then
    /// read the latest member set, and its ring and file are the ones
    /// that stay. Lock order: the ring, then the members.
    fn rebuild_ring(&self) {
        let mut ring = lock(&self.ring);
        let rows = self.peer_rows();
        let nodes: Vec<String> = rows.iter().map(|(cluster, _)| cluster.clone()).collect();
        *ring = Ring::new(&nodes);
        self.persist_peers(rows);
    }

    /// Writes the peer list `rows` to [`ClusterConfig::peers_path`]
    /// (write-temp-then-rename, so readers never see a torn file).
    /// Best-effort: a full disk must not take down membership.
    fn persist_peers(&self, rows: Vec<(String, String)>) {
        let Some(path) = &self.cfg.peers_path else {
            return;
        };
        let body = Json::obj(vec![("peers", peers_json(rows))]).render() + "\n";
        let tmp = path.with_extension("json.tmp");
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if std::fs::write(&tmp, body).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Dials the peers persisted by a previous incarnation, joining the
    /// first one that answers the handshake. Returns whether any did.
    fn rejoin_persisted(&self) -> bool {
        let Some(path) = &self.cfg.peers_path else {
            return false;
        };
        let Ok(body) = std::fs::read_to_string(path) else {
            return false;
        };
        let Ok(value) = hetmem_xplore::json::parse(&body) else {
            return false;
        };
        let Some(Json::Arr(peers)) = value.get("peers") else {
            return false;
        };
        for peer in peers {
            let Some(cluster) = peer.get("cluster").and_then(Json::as_str) else {
                continue;
            };
            if cluster == self.self_addr {
                continue;
            }
            if self.join_seed(cluster).is_ok() {
                return true;
            }
            self.peer_failures.fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    /// Every member's `(cluster, http)` address pair, unsorted.
    fn member_rows(&self) -> Vec<(String, String)> {
        lock(&self.members)
            .iter()
            .map(|(addr, p)| (addr.clone(), p.http.clone()))
            .collect()
    }

    /// Every member's address pair plus this node's, sorted.
    fn peer_rows(&self) -> Vec<(String, String)> {
        let mut rows = self.member_rows();
        rows.push((self.self_addr.clone(), self.cfg.http_addr.clone()));
        rows.sort();
        rows
    }

    /// The gossiped peer list: every member plus this node.
    fn peer_list(&self) -> Json {
        peers_json(self.peer_rows())
    }

    fn heartbeat_loop(self: Arc<ClusterNode>) {
        let period = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        loop {
            {
                let mut stopped = lock(&self.stop);
                while !*stopped {
                    let (guard, timeout) = self
                        .stop_cv
                        .wait_timeout(stopped, period)
                        .expect("cluster stop lock");
                    stopped = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
            }
            self.heartbeat_round();
        }
    }

    /// One heartbeat round: ping every peer, merge gossip, and bury
    /// peers that have missed [`MISS_WINDOWS`] windows.
    fn heartbeat_round(&self) {
        let peers: Vec<String> = lock(&self.members).keys().cloned().collect();
        let request = Json::obj(vec![
            ("kind", Json::Str("heartbeat".to_owned())),
            ("from", Json::Str(self.self_addr.clone())),
            ("http", Json::Str(self.cfg.http_addr.clone())),
            ("peers", self.peer_list()),
        ]);
        for peer in &peers {
            self.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
            match proto::call(peer, &request, HEARTBEAT_READ_TIMEOUT) {
                Ok(reply) if reply.get("kind").and_then(Json::as_str) == Some("ack") => {
                    if let Some(state) = lock(&self.members).get_mut(peer) {
                        state.last_seen = Instant::now();
                    }
                    if let Some(Json::Arr(gossiped)) = reply.get("peers") {
                        self.merge_peers(gossiped);
                    }
                }
                _ => {
                    self.peer_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let miss = Duration::from_millis(self.cfg.heartbeat_ms * u64::from(MISS_WINDOWS));
        let dead: Vec<String> = lock(&self.members)
            .iter()
            .filter(|(_, p)| p.last_seen.elapsed() > miss)
            .map(|(addr, _)| addr.clone())
            .collect();
        for addr in dead {
            self.remove_peer(&addr);
        }
    }

    /// Removes a peer (dead or departing), tombstones it, and rehashes.
    fn remove_peer(&self, addr: &str) {
        let removed = lock(&self.members).remove(addr).is_some();
        if !removed {
            return;
        }
        lock(&self.tombstones).insert(addr.to_owned(), Instant::now());
        self.peers_removed.fetch_add(1, Ordering::Relaxed);
        self.rebuild_ring();
    }

    // ------------------------------------------------------------------
    // Listener side.

    fn accept_loop(self: Arc<ClusterNode>, listener: &TcpListener) {
        loop {
            let Ok((conn, _)) = listener.accept() else {
                break;
            };
            let _ = conn.set_nodelay(true);
            if self.draining.load(Ordering::SeqCst) {
                break;
            }
            let node = Arc::clone(&self);
            std::thread::spawn(move || node.handle_conn(conn));
        }
    }

    fn handle_conn(&self, mut conn: TcpStream) {
        let _ = conn.set_read_timeout(Some(CONTROL_READ_TIMEOUT));
        let Ok(request) = read_frame(&mut conn) else {
            return;
        };
        let reply = match request.get("kind").and_then(Json::as_str) {
            Some("hello") => self.on_hello(&request),
            Some("heartbeat") => self.on_heartbeat(&request),
            Some("execute") => self.on_execute(&request),
            Some("peers") => Json::obj(vec![
                ("kind", Json::Str("peers".to_owned())),
                ("peers", self.peer_list()),
            ]),
            Some("metrics") => Json::obj(vec![
                ("kind", Json::Str("metrics".to_owned())),
                ("body", (self.hooks.metrics)()),
            ]),
            Some("leave") => self.on_leave(&request),
            _ => error_frame("unknown frame kind"),
        };
        let _ = write_frame(&mut conn, &reply);
    }

    /// Join handshake: probe the joiner's HTTP health endpoint, then
    /// admit it and hand back the full peer list.
    fn on_hello(&self, request: &Json) -> Json {
        let Some(cluster) = request.get("cluster").and_then(Json::as_str) else {
            return error_frame("hello without a cluster address");
        };
        let Some(http) = request.get("http").and_then(Json::as_str) else {
            return error_frame("hello without an http address");
        };
        if self.draining.load(Ordering::SeqCst) {
            return error_frame("seed is draining");
        }
        match proto::http_get(http, "/v1/health") {
            Ok(body) if body.contains("\"ready\":true") => {}
            Ok(_) => return error_frame("joiner is not ready"),
            Err(_) => return error_frame("joiner health endpoint unreachable"),
        }
        lock(&self.tombstones).remove(cluster);
        lock(&self.members).insert(
            cluster.to_owned(),
            PeerState {
                http: http.to_owned(),
                last_seen: Instant::now(),
            },
        );
        self.rebuild_ring();
        Json::obj(vec![
            ("kind", Json::Str("welcome".to_owned())),
            ("peers", self.peer_list()),
        ])
    }

    fn on_heartbeat(&self, request: &Json) -> Json {
        if let (Some(from), Some(http)) = (
            request.get("from").and_then(Json::as_str),
            request.get("http").and_then(Json::as_str),
        ) {
            if from != self.self_addr {
                // A direct heartbeat is proof of life, which overrides
                // any tombstone (gossip, by contrast, never does).
                lock(&self.tombstones).remove(from);
                let known = {
                    let mut members = lock(&self.members);
                    let known = members.contains_key(from);
                    members.insert(
                        from.to_owned(),
                        PeerState {
                            http: http.to_owned(),
                            last_seen: Instant::now(),
                        },
                    );
                    known
                };
                if !known {
                    self.rebuild_ring();
                }
            }
            if let Some(Json::Arr(gossiped)) = request.get("peers") {
                self.merge_peers(gossiped);
            }
        }
        Json::obj(vec![
            ("kind", Json::Str("ack".to_owned())),
            ("peers", self.peer_list()),
        ])
    }

    /// Owner side of forwarding and scatter-gather: answers the request
    /// through the serve layer's local path and frames back its status
    /// and body. A reply over the frame cap fails to send, which the
    /// entry node treats like an unreachable owner and runs the request
    /// itself.
    fn on_execute(&self, request: &Json) -> Json {
        let endpoint = request.get("endpoint").and_then(Json::as_str).unwrap_or("");
        let body = request.get("body").and_then(Json::as_str).unwrap_or("");
        let counter = if endpoint == SWEEP_PART {
            &self.sweep_parts_in
        } else {
            &self.forwards_in
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let reply = (self.hooks.executor)(endpoint, body);
        Json::obj(vec![
            ("kind", Json::Str("reply".to_owned())),
            ("status", Json::UInt(u64::from(reply.status))),
            ("body", Json::Str(reply.body)),
        ])
    }

    fn on_leave(&self, request: &Json) -> Json {
        if let Some(from) = request.get("from").and_then(Json::as_str) {
            self.remove_peer(from);
        }
        Json::obj(vec![("kind", Json::Str("ack".to_owned()))])
    }
}

/// The executor endpoint a scattered sweep part runs on.
pub(crate) const SWEEP_PART: &str = "/v1/sweep-part";

/// Sends one `execute` frame to `owner` and decodes its `reply` frame.
///
/// # Errors
///
/// Returns [`SimError::PeerUnavailable`] when the owner cannot be
/// reached or answers anything but a well-formed reply.
pub(crate) fn execute(owner: &str, endpoint: &str, body: &str) -> Result<Reply, SimError> {
    let request = Json::obj(vec![
        ("kind", Json::Str("execute".to_owned())),
        ("endpoint", Json::Str(endpoint.to_owned())),
        ("body", Json::Str(body.to_owned())),
    ]);
    let reply = proto::call(owner, &request, EXECUTE_READ_TIMEOUT)?;
    let status = reply
        .get("status")
        .and_then(Json::as_u64)
        .and_then(|s| u16::try_from(s).ok());
    let kind = reply.get("kind").and_then(Json::as_str);
    match (kind, status, reply.get("body")) {
        (Some("reply"), Some(status), Some(Json::Str(body))) => Ok(Reply {
            status,
            body: body.clone(),
        }),
        _ => Err(SimError::PeerUnavailable {
            peer: owner.to_owned(),
        }),
    }
}

/// A peer list as JSON: one `{"cluster", "http"}` object per row.
fn peers_json(rows: Vec<(String, String)>) -> Json {
    Json::Arr(
        rows.into_iter()
            .map(|(cluster, http)| {
                Json::obj(vec![
                    ("cluster", Json::Str(cluster)),
                    ("http", Json::Str(http)),
                ])
            })
            .collect(),
    )
}

fn error_frame(message: &str) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("error".to_owned())),
        ("message", Json::Str(message.to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A throwaway HTTP listener that answers every request with a
    /// ready `/v1/health` body, standing in for the serve layer during
    /// join handshakes. The thread leaks until process exit, which is
    /// fine for a test.
    fn health_stub() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut conn, &mut buf);
                let body = "{\"status\":\"ok\",\"live\":true,\"ready\":true}\n";
                let _ = std::io::Write::write_all(
                    &mut conn,
                    format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        addr
    }

    /// Stub hooks: the executor echoes its inputs under `tag`, except
    /// that a `"busy"` body is refused with 429, as a full queue would be.
    fn hooks(tag: &str) -> Hooks {
        let tag = tag.to_owned();
        Hooks {
            executor: Arc::new(move |endpoint, body| match body {
                "busy" => Reply {
                    status: 429,
                    body: String::new(),
                },
                _ => Reply {
                    status: 200,
                    body: format!("{tag}:{endpoint}:{body}"),
                },
            }),
            metrics: Arc::new(|| Json::obj(vec![("requests_total", Json::UInt(1))])),
        }
    }

    fn two_nodes(heartbeat_ms: u64) -> (Arc<ClusterNode>, Arc<ClusterNode>) {
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                heartbeat_ms,
                ..ClusterConfig::default()
            },
            hooks("a"),
        )
        .expect("start a");
        let b = ClusterNode::start(
            ClusterConfig {
                join: Some(a.self_addr().to_owned()),
                http_addr: health_stub(),
                heartbeat_ms,
                ..ClusterConfig::default()
            },
            hooks("b"),
        )
        .expect("start b");
        (a, b)
    }

    /// A key the given node owns, found by trial.
    fn key_owned_by(node: &ClusterNode, ring: &Ring) -> String {
        for i in 0..4096 {
            let key = format!("job-{i}");
            if ring.owner(&key) == Some(node.self_addr()) {
                return key;
            }
        }
        panic!("no key owned by {}", node.self_addr());
    }

    fn counter(node: &ClusterNode, name: &str) -> Option<u64> {
        node.status_json().get(name).and_then(Json::as_u64)
    }

    #[test]
    fn join_then_forward_runs_on_the_owner() {
        let (a, b) = two_nodes(500);
        let ring = Ring::new(&[a.self_addr().to_owned(), b.self_addr().to_owned()]);
        let key = key_owned_by(&a, &ring);
        // The owner runs its own keys.
        assert_eq!(a.forward(&key, "/v1/sim", "{}"), None);
        assert_eq!(counter(&a, "forwards_out"), Some(0));
        let reply = b.forward(&key, "/v1/sim", "{\"kernel\":\"stencil\"}");
        assert_eq!(
            reply,
            Some(Reply {
                status: 200,
                body: "a:/v1/sim:{\"kernel\":\"stencil\"}".to_owned(),
            })
        );
        assert_eq!(counter(&a, "forwards_in"), Some(1));
        assert_eq!(counter(&b, "forwards_out"), Some(1));
        assert_eq!(counter(&b, "work_steals"), Some(0));

        // A busy owner hands the request back: the entry node runs it
        // itself and counts the steal.
        assert_eq!(b.forward(&key, "/v1/sim", "busy"), None);
        assert_eq!(counter(&b, "work_steals"), Some(1));
        // Sweep parts ride the same frame but count apart.
        assert!(b.forward(&key, SWEEP_PART, "part").is_some());
        assert_eq!(counter(&a, "sweep_parts_in"), Some(1));
        assert_eq!(counter(&a, "forwards_in"), Some(2));
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn dead_peers_are_buried_after_the_miss_window() {
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                heartbeat_ms: 40,
                ..ClusterConfig::default()
            },
            hooks("a"),
        )
        .expect("start a");
        // Hand-deliver a hello from a "peer" whose cluster address was
        // bound and dropped: it passes the health probe (a live stub)
        // but will never answer a heartbeat.
        let ghost_addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let hello = Json::obj(vec![
            ("kind", Json::Str("hello".to_owned())),
            ("cluster", Json::Str(ghost_addr.clone())),
            ("http", Json::Str(health_stub())),
        ]);
        let reply = proto::call(a.self_addr(), &hello, Duration::from_secs(5)).expect("hello");
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("welcome"));
        assert_eq!(lock(&a.ring).len(), 2);

        let deadline = Instant::now() + Duration::from_secs(5);
        while lock(&a.ring).len() != 1 {
            assert!(Instant::now() < deadline, "ghost peer never buried");
            std::thread::sleep(Duration::from_millis(20));
        }
        let status = a.status_json();
        assert_eq!(status.get("peers_removed").and_then(Json::as_u64), Some(1));
        assert!(status.get("peer_failures").and_then(Json::as_u64) >= Some(1));
        // The tombstone blocks gossip resurrection: a heartbeat from a live
        // peer whose gossip still names the ghost admits the peer, not the
        // ghost.
        let live = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                heartbeat_ms: 40,
                ..ClusterConfig::default()
            },
            hooks("live"),
        )
        .expect("start live");
        let gossip = Json::obj(vec![
            ("cluster", Json::Str(ghost_addr.clone())),
            ("http", Json::Str(health_stub())),
        ]);
        let beat = Json::obj(vec![
            ("kind", Json::Str("heartbeat".to_owned())),
            ("from", Json::Str(live.self_addr().to_owned())),
            ("http", Json::Str(health_stub())),
            ("peers", Json::Arr(vec![gossip])),
        ]);
        proto::call(a.self_addr(), &beat, Duration::from_secs(5)).expect("heartbeat");
        let nodes = lock(&a.ring).nodes().to_vec();
        assert!(nodes.iter().any(|n| n == live.self_addr()), "{nodes:?}");
        assert!(!nodes.contains(&ghost_addr), "ghost resurrected: {nodes:?}");
        live.shutdown();
        a.shutdown();
    }

    #[test]
    fn graceful_leave_removes_the_peer_immediately() {
        let (a, b) = two_nodes(500);
        assert_eq!(lock(&a.ring).len(), 2);
        assert_eq!(lock(&b.ring).len(), 2);
        b.shutdown();
        // No miss window: the leave frame removed b synchronously.
        assert_eq!(lock(&a.ring).len(), 1);
        assert_eq!(
            a.status_json().get("peers_removed").and_then(Json::as_u64),
            Some(1)
        );
        a.shutdown();
    }

    #[test]
    fn persisted_peers_let_a_restarted_node_rejoin() {
        let dir =
            std::env::temp_dir().join(format!("hetmem-cluster-peers-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pb = dir.join("b").join("cluster-peers.json");
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                peers_path: Some(dir.join("a").join("cluster-peers.json")),
                ..ClusterConfig::default()
            },
            hooks("a"),
        )
        .expect("start a");
        let b = ClusterNode::start(
            ClusterConfig {
                join: Some(a.self_addr().to_owned()),
                http_addr: health_stub(),
                peers_path: Some(pb.clone()),
                ..ClusterConfig::default()
            },
            hooks("b"),
        )
        .expect("start b");
        // The join rebuilt both rings, so both peer files exist and
        // name both members.
        let persisted = std::fs::read_to_string(&pb).expect("b's peer file");
        assert!(persisted.contains(a.self_addr()), "{persisted}");
        assert!(persisted.contains(b.self_addr()), "{persisted}");
        b.shutdown();

        // "Restart" b: the configured seed is dead, but the persisted
        // list still names a, so the new incarnation joins unattended.
        let dead_seed = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let b2 = ClusterNode::start(
            ClusterConfig {
                join: Some(dead_seed),
                http_addr: health_stub(),
                peers_path: Some(pb),
                ..ClusterConfig::default()
            },
            hooks("b2"),
        )
        .expect("rejoin via persisted peers");
        assert_eq!(lock(&b2.ring).len(), 2);
        assert_eq!(lock(&a.ring).len(), 2);
        b2.shutdown();
        a.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_membership_changes_leave_ring_and_peer_file_current() {
        let dir = std::env::temp_dir().join(format!(
            "hetmem-cluster-rebuild-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cluster-peers.json");
        // Loopback addresses nothing listens on; a long heartbeat keeps
        // the loop from dialing and burying them.
        let made_up = |t: usize, i: usize| format!("127.0.0.1:{}", 9 + t * 200 + i);
        let node = ClusterNode::start(
            ClusterConfig {
                heartbeat_ms: 600_000,
                peers_path: Some(path.clone()),
                ..ClusterConfig::default()
            },
            hooks("n"),
        )
        .expect("start");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (node, start) = (&node, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..150 {
                        let peer = PeerState {
                            http: String::new(),
                            last_seen: Instant::now(),
                        };
                        lock(&node.members).insert(made_up(t, i), peer);
                        node.rebuild_ring();
                        if i >= 3 {
                            lock(&node.members).remove(&made_up(t, i - 3));
                            node.rebuild_ring();
                        }
                    }
                });
            }
        });
        let mut expected: Vec<String> = lock(&node.members).keys().cloned().collect();
        expected.push(node.self_addr().to_owned());
        expected.sort();
        assert_eq!(lock(&node.ring).nodes(), expected.as_slice());
        let body = std::fs::read_to_string(&path).expect("peer file");
        let persisted = hetmem_xplore::json::parse(&body).expect("peer file parses");
        let Some(Json::Arr(rows)) = persisted.get("peers") else {
            panic!("no peer list in {body}");
        };
        let listed: Vec<&str> = rows
            .iter()
            .filter_map(|row| row.get("cluster").and_then(Json::as_str))
            .collect();
        assert_eq!(listed, expected);
        // The made-up peers would be sent a leave frame.
        lock(&node.members).clear();
        node.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_peers_are_left_at_once() {
        // Listeners that never accept still complete the handshake, so
        // each leave waits out its whole read timeout.
        let silent: Vec<TcpListener> = (0..8)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let node = ClusterNode::start(
            ClusterConfig {
                heartbeat_ms: 600_000,
                ..ClusterConfig::default()
            },
            hooks("n"),
        )
        .expect("start");
        for listener in &silent {
            let peer = PeerState {
                http: String::new(),
                last_seen: Instant::now(),
            };
            let addr = listener.local_addr().expect("addr").to_string();
            lock(&node.members).insert(addr, peer);
        }
        let started = Instant::now();
        node.shutdown();
        let took = started.elapsed();
        assert!(
            took < 2 * HEARTBEAT_READ_TIMEOUT,
            "8 silent peers took {took:?} to leave"
        );
    }
}
