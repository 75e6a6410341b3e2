//! `cluster_e2e`: stream file → `streamfreq cluster-ingest` → three
//! durable wire-ingest nodes → `cluster-serve` front-node queries.
//!
//! * Cluster: 3 nodes (`--shards 1`, k = 24 576, default fsync) and a
//!   front node (default `--refresh-ms 100`), joined by a topology file.
//! * Ingest: passes of `cluster-ingest` over the seeded stream file, one
//!   child process per pass, back to back.
//! * Queries: an open-loop text-protocol mix to the front node at a
//!   fixed rate (90% `EST`, 9% `TOPK 10`, 1% `HH 0.01`) for every pass
//!   plus a one-second tail. The connection carries one query at a
//!   time: a query that falls due while another is outstanding is sent
//!   as soon as that reply lands, and every latency is still timed from
//!   the query's due time, so waiting behind a slow reply counts. (The
//!   front node writes replies without `TCP_NODELAY`; with pipelined
//!   queries, once two replies leave back to back, Nagle holds each
//!   later reply until the client's next query brings the ACK for the
//!   one before, and every latency locks to the request interval.)
//! * Freshness: after the load, single-update marker writes through
//!   `cluster-ingest`, each followed at once by front-node reads until
//!   the marker shows. The front view is left idle for one refresh
//!   interval before each write, so every read-after-write starts from a
//!   stale view and pays one refresh cycle, as a client that writes and
//!   then reads does.
//! * End: a durability barrier on every node, then SIGKILL of all three
//!   nodes and a restart on the same data dirs and ports.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use streamfreq_core::cluster::{NodeSpec, Topology};
use streamfreq_workloads::{save_binary, CaidaConfig, SyntheticCaida};

use crate::live;
use crate::net::{self, op, parse_est_line, Proc, Res, Sfbp, TextConn};
use crate::node_mixed::Kind;
use crate::replay::{self, ReplayConfig};
use crate::stats::{self, Lateness, Schedule};
use crate::trace::{Tracer, NONE};
use crate::{check, fastest_metric, median_metric, probes, Ctx, Metric, Outcome, Rng};

pub const NODES: usize = 3;
pub const K: usize = 24_576;
pub const VNODES: u32 = 64;
pub const SKETCH_SEED: u64 = 7;
pub const MARKER_BASE: u64 = 1 << 41;
pub const MARKER_WEIGHT: u64 = 1 << 24;
pub const QUERY_RATE: f64 = 200.0;
pub const TAIL: Duration = Duration::from_secs(1);
/// The front node's default `--refresh-ms`.
pub const REFRESH: Duration = Duration::from_millis(100);
pub const BATCH: usize = 4_096;

fn node_args(dir: &Path, port: u16) -> Vec<String> {
    [
        "serve",
        "-k",
        &K.to_string(),
        "--shards",
        "1",
        "--seed",
        &SKETCH_SEED.to_string(),
        "--data-dir",
        &dir.display().to_string(),
        "--port",
        &port.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

struct Cluster {
    nodes: Vec<Proc>,
    front: Proc,
}

impl Cluster {
    fn addrs(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr.clone()).collect()
    }
}

/// Starts three nodes and, once their ports are known, the topology file
/// and the front node.
fn start(ctx: &Ctx, dir: &Path, data: &dyn Fn(usize) -> std::path::PathBuf) -> Res<Cluster> {
    let mut nodes = Vec::new();
    for i in 0..NODES {
        nodes.push(Proc::spawn(
            &ctx.bin,
            &node_args(&data(i), 0),
            dir,
            &format!("node{i}"),
        )?);
    }
    for node in &mut nodes {
        node.wait_ready(dir)?;
    }
    let specs: Vec<NodeSpec> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| NodeSpec {
            id: i as u64 + 1,
            addr: n.addr.clone(),
        })
        .collect();
    let topology = Topology::new(1, VNODES, specs).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("topology.sftopo"), topology.encode()).map_err(|e| e.to_string())?;
    let front_args: Vec<String> = [
        "cluster-serve",
        "--topology",
        &dir.join("topology.sftopo").display().to_string(),
        "-k",
        &K.to_string(),
        "--seed",
        &SKETCH_SEED.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let front = Proc::start(&ctx.bin, &front_args, dir, "front")?;
    Ok(Cluster { nodes, front })
}

/// Starts `cluster-ingest` over `input`.
fn spawn_ingest(ctx: &Ctx, topo: &Path, input: &Path) -> Res<std::process::Child> {
    Command::new(&ctx.bin)
        .args(["cluster-ingest", "--topology"])
        .arg(topo)
        .arg("--input")
        .arg(input)
        .args(["--batch", &BATCH.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cluster-ingest: {e}"))
}

/// Collects a finished `cluster-ingest`: its per-node report, or its
/// error output.
fn finish_ingest(
    proc: &mut std::process::Child,
    status: std::process::ExitStatus,
) -> Res<Vec<(u64, u64)>> {
    let mut text = String::new();
    if let Some(mut out) = proc.stdout.take() {
        let _ = out.read_to_string(&mut text);
    }
    if !status.success() {
        let mut err = String::new();
        if let Some(mut e) = proc.stderr.take() {
            let _ = e.read_to_string(&mut err);
        }
        return Err(format!("cluster-ingest failed ({status}): {}", err.trim()));
    }
    Ok(parse_ingest_report(&text))
}

/// Parses `cluster-ingest`'s `node <id> <addr> updates=<u> weight=<w>`
/// lines into per-node (updates, weight) by topology index.
fn parse_ingest_report(text: &str) -> Vec<(u64, u64)> {
    let mut out = vec![(0, 0); NODES];
    for line in text.lines().filter(|l| l.starts_with("node ")) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let id: usize = fields.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let kv = net::parse_kv(line);
        if let (Some(slot), Ok(u), Ok(w)) = (
            id.checked_sub(1).and_then(|i| out.get_mut(i)),
            net::stat(&kv, "updates"),
            net::stat(&kv, "weight"),
        ) {
            *slot = (u, w);
        }
    }
    out
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let tiny = ctx.tiny();
    let dir = net::work_dir(&ctx.work_root, "cluster_e2e")?;
    let updates = if tiny { 30_000 } else { 1_000_000 };
    let config = CaidaConfig {
        seed: ctx.seed,
        ..CaidaConfig::scaled(updates)
    };
    let stream: Vec<(u64, u64)> = SyntheticCaida::new(&config).collect();
    let mut rng = Rng::new(ctx.seed);
    let probe_set = probes(&stream, 16, 48, &mut rng);
    let pass_weight: u64 = stream.iter().map(|&(_, w)| w).sum();
    let input = dir.join("stream.bin");
    save_binary(&stream, &input).map_err(|e| e.to_string())?;
    let topo = dir.join("topology.sftopo");

    // Set-up: every process bound and answering STATS; five times.
    let setup_reps = if tiny { 1 } else { 5 };
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for rep in 0..setup_reps {
        let data = |i: usize| dir.join(format!("data-{rep}-{i}"));
        let t0 = Instant::now();
        let c = start(ctx, &dir, &data)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            drop(c);
            for i in 0..NODES {
                let _ = std::fs::remove_dir_all(data(i));
            }
        } else {
            cluster = Some(c);
        }
    }
    let mut cluster = cluster.ok_or("no cluster started")?;
    let data_dir = |i: usize| dir.join(format!("data-{}-{i}", setup_reps - 1));

    // The measured phase: back-to-back cluster-ingest passes under an
    // open-loop query load on the front node.
    let phase = tracer.begin("cluster_e2e.phase", NONE, 0);
    let mut front = TextConn::connect(&cluster.front.addr)?;
    let start_at = Instant::now();
    let ingest_end = start_at + Duration::from_secs_f64(ctx.seconds);
    let schedule = Schedule::new(start_at, QUERY_RATE);
    let mut lateness = Lateness::default();
    let mut node_acked = vec![(0u64, 0u64); NODES];
    let mut pass_ups = Vec::new();
    let mut passes = 0u64;
    let mut child: Option<(std::process::Child, Instant)> = None;
    let mut tail_end: Option<Instant> = None;
    let mut qnext = 0u64;
    // The outstanding query (kind, due, sent), and when the connection
    // last became free.
    let mut inflight: Option<(Kind, Instant, Instant)> = None;
    let mut free_at = start_at;
    let mut latency_ms = Vec::new();
    let mut rtt_us: [Vec<f64>; 3] = Default::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut replies = Vec::new();
    loop {
        let now = Instant::now();
        let mut progressed = false;
        if child.is_none() && tail_end.is_none() {
            if now < ingest_end {
                child = Some((spawn_ingest(ctx, &topo, &input)?, Instant::now()));
                attempted += 1;
                progressed = true;
            } else {
                tail_end = Some(now + TAIL);
            }
        }
        if let Some((proc, started)) = child.as_mut() {
            if let Some(status) = proc.try_wait().map_err(|e| e.to_string())? {
                let done = Instant::now();
                let per_node = finish_ingest(proc, status)?;
                let pass_updates: u64 = per_node.iter().map(|p| p.0).sum();
                check(pass_updates == stream.len() as u64, "pass-acked", || {
                    format!("pass acked {pass_updates} updates")
                })?;
                for (acc, p) in node_acked.iter_mut().zip(&per_node) {
                    acc.0 += p.0;
                    acc.1 += p.1;
                }
                let secs = done.duration_since(*started).as_secs_f64();
                pass_ups.push(pass_updates as f64 / secs);
                tracer.record("cluster.ingest_pass", phase, passes, *started, done);
                passes += 1;
                child = None;
                progressed = true;
            }
        }
        // Queries due before the tail ends are all sent.
        let open = tail_end.is_none_or(|t| schedule.due(qnext) < t);
        if open && inflight.is_none() && schedule.due(qnext) <= Instant::now() {
            let due = schedule.due(qnext);
            let kind = Kind::draw(&mut rng);
            let line = match kind {
                Kind::Est => format!(
                    "EST {}",
                    probe_set[rng.below(probe_set.len() as u64) as usize].0
                ),
                Kind::Topk => "TOPK 10".to_string(),
                Kind::Hh => "HH 0.01".to_string(),
            };
            front.send(&line, kind != Kind::Est)?;
            let sent = Instant::now();
            // The generator's own delay: from when it could first send.
            lateness.record(due.max(free_at), sent);
            inflight = Some((kind, due, sent));
            qnext += 1;
            attempted += 1;
            progressed = true;
        }
        replies.clear();
        if inflight.is_some() {
            // Nothing else is due until the reply lands; wake at least
            // every millisecond to see cluster-ingest finish.
            front.poll_for(&mut replies, Duration::from_millis(1))?;
        } else {
            front.poll(&mut replies)?;
        }
        for head in replies.drain(..) {
            let done = Instant::now();
            let (kind, due, sent) = inflight.take().ok_or("front reply with nothing pending")?;
            free_at = done;
            progressed = true;
            tracer.record(kind.span(), phase, 0, sent, done);
            if !head.starts_with("OK") {
                failed += 1;
                latency_ms.push(f64::INFINITY);
                continue;
            }
            latency_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
            rtt_us[kind as usize].push(done.duration_since(sent).as_secs_f64() * 1e6);
        }
        if child.is_none() && !open && inflight.is_none() {
            break;
        }
        if inflight.is_some_and(|q| q.2.elapsed() > net::IO_TIMEOUT) {
            return Err("a front-node query timed out".into());
        }
        if !progressed && inflight.is_none() {
            let wait = schedule
                .due(qnext)
                .saturating_duration_since(Instant::now());
            std::thread::sleep(wait.min(Duration::from_micros(200)));
        }
    }
    tracer.end(phase);
    let ingest_ups = stats::median(&pass_ups);
    check(
        node_acked.iter().map(|p| p.1).sum::<u64>() == pass_weight * passes,
        "acked-weight",
        || format!("acked weight over {passes} passes"),
    )?;

    // Freshness: write a marker, then read until the front node shows it.
    let markers = if tiny { 2 } else { 10 };
    let marker_file = dir.join("marker.bin");
    let mut lag_ms = Vec::new();
    let mut last_read = Instant::now();
    for m in 0..markers {
        std::thread::sleep(REFRESH.saturating_sub(last_read.elapsed()));
        let item = MARKER_BASE + m;
        save_binary(&[(item, MARKER_WEIGHT)], &marker_file).map_err(|e| e.to_string())?;
        let mut proc = spawn_ingest(ctx, &topo, &marker_file)?;
        let status = proc.wait().map_err(|e| e.to_string())?;
        let acked_at = Instant::now();
        let per_node = finish_ingest(&mut proc, status)?;
        for (acc, p) in node_acked.iter_mut().zip(&per_node) {
            acc.0 += p.0;
            acc.1 += p.1;
        }
        let deadline = acked_at + Duration::from_secs(10);
        loop {
            let head = front.call(&format!("EST {item}"), false)?;
            last_read = Instant::now();
            attempted += 1;
            if parse_est_line(&head).is_some_and(|(_, lower, _)| lower >= MARKER_WEIGHT / 2) {
                lag_ms.push(last_read.duration_since(acked_at).as_secs_f64() * 1e3);
                break;
            }
            check(last_read < deadline, "marker-visibility", || {
                format!("marker {m} never showed")
            })?;
            std::thread::sleep(Duration::from_micros(500));
        }
        tracer.record("cluster.read_after_write", NONE, m, acked_at, last_read);
    }
    drop(front);
    let total_updates: u64 = node_acked.iter().map(|p| p.0).sum();
    let total_weight: u64 = node_acked.iter().map(|p| p.1).sum();

    // Durability barrier on every node.
    let addrs = cluster.addrs();
    let barrier_start = Instant::now();
    for (addr, &(_, weight)) in addrs.iter().zip(&node_acked) {
        let mut conn = Sfbp::connect(addr)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        while net::stat(&conn.stats()?, "n")? < weight {
            check(Instant::now() < deadline, "barrier-weight", || {
                format!("{addr} never reached n={weight}")
            })?;
            std::thread::sleep(Duration::from_micros(500));
        }
        conn.call(op::REPL, &[])?;
        attempted += 2;
    }
    let ack_to_durable_ms = barrier_start.elapsed().as_secs_f64() * 1e3;
    tracer.record("persist.barrier", NONE, 0, barrier_start, Instant::now());
    let disk: u64 = (0..NODES).map(|i| net::dir_bytes(&data_dir(i))).sum();

    // The query tier's ship-and-merge, from the benchmark.
    let merge_reps = if tiny { 2 } else { 50 };
    let mut fan = Vec::new();
    let mut merged = None;
    for _ in 0..merge_reps {
        let (m, t) = live::fan_out(&addrs, K, SKETCH_SEED, tracer, NONE)?;
        check(m.stream_weight() == total_weight, "merge-weight", || {
            format!("merged N {}", m.stream_weight())
        })?;
        fan.push(t);
        attempted += 1;
        merged = Some(m);
    }
    let merged = merged.ok_or("no fan-out ran")?;
    let rss: f64 =
        cluster.nodes.iter().map(Proc::peak_rss_mib).sum::<f64>() + cluster.front.peak_rss_mib();

    // SIGKILL every node; restart all three on the same dirs and ports.
    let recover_reps = if tiny { 1 } else { crate::RECOVER_REPS };
    let mut recover_s = Vec::new();
    let ports: Vec<u16> = cluster.nodes.iter().map(Proc::port).collect();
    for _ in 0..recover_reps {
        let t0 = Instant::now();
        for node in &mut cluster.nodes {
            node.kill();
        }
        let mut restarted = Vec::new();
        for (i, &port) in ports.iter().enumerate() {
            restarted.push(Proc::spawn(
                &ctx.bin,
                &node_args(&data_dir(i), port),
                &dir,
                &format!("node{i}"),
            )?);
        }
        for (node, &(_, weight)) in restarted.iter_mut().zip(&node_acked) {
            node.wait_ready(&dir)?;
            let n = net::stat(&net::text_stats(&node.addr)?, "n")?;
            check(n == weight, "recovered-weight", || {
                format!("{} recovered N {n} != acked {weight}", node.addr)
            })?;
        }
        recover_s.push(t0.elapsed().as_secs_f64());
        tracer.record("persist.recover", NONE, 0, t0, Instant::now());
        cluster.nodes = restarted;
    }

    // The front node's merged view: N equals the acked weight, and each
    // probe's exact count lies in the combined Theorem-5 band.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (front_n, max_error) = loop {
        let kv = net::text_stats(&cluster.front.addr)?;
        let n = net::stat(&kv, "n")?;
        if n == total_weight || Instant::now() > deadline {
            break (n, net::stat(&kv, "max_error")?);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    check(front_n == total_weight, "front-weight", || {
        format!("front N {front_n} != {total_weight}")
    })?;
    let mut front = TextConn::connect(&cluster.front.addr)?;
    for &(item, exact) in &probe_set {
        let exact = exact * passes;
        let head = front.call(&format!("EST {item}"), false)?;
        let (_, lo, hi) = parse_est_line(&head).ok_or_else(|| format!("bad EST reply `{head}`"))?;
        check(
            lo <= exact && exact <= hi && hi - lo <= max_error,
            "front-theorem5-band",
            || {
                format!(
                    "item {item}: {lo} <= {exact} <= {hi}, band {} vs max_error {max_error}",
                    hi - lo
                )
            },
        )?;
        attempted += 1;
    }
    drop(front);

    let mut layers = Vec::new();
    if tracer.enabled() {
        let med = |v: &[f64]| stats::median(v);
        // The workload sends no CKPT; one per node after the checks
        // measures what a checkpoint of this state costs each node.
        let mut ckpt_ms = Vec::new();
        for (i, addr) in cluster.addrs().iter().enumerate() {
            let mut conn = Sfbp::connect(addr)?;
            let t0 = Instant::now();
            conn.call(op::CKPT, &[])?;
            let done = Instant::now();
            tracer.record("persist.checkpoint", NONE, i as u64, t0, done);
            ckpt_ms.push(done.duration_since(t0).as_secs_f64() * 1e3);
        }
        layers.push(Metric::new(
            "persist.checkpoint_ms",
            med(&ckpt_ms),
            "ms",
            ckpt_ms.len(),
        ));
        // cluster-ingest's shipping loop, replayed in process against
        // the live nodes (after the checks: it adds one more pass).
        let topology = Topology::parse(&std::fs::read(&topo).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let ring = topology.ring();
        let root = tracer.begin("cluster.ingest_replay", NONE, 0);
        let shipped = live::ship(&cluster.addrs(), Some(&ring), &stream, BATCH, tracer, root)?;
        tracer.end(root);
        layers.push(Metric::new(
            "serve.ingest_rtt_ms",
            med(&shipped.rtt_ms),
            "ms",
            shipped.rtt_ms.len(),
        ));
        layers.push(Metric::new(
            "cluster.node_ship_s",
            shipped.node_ship_s.iter().sum::<f64>() / NODES as f64,
            "s",
            NODES,
        ));
        layers.push(Metric::new(
            "cluster.node_idle_frac",
            shipped.idle_frac,
            "ratio",
            1,
        ));
        layers.push(Metric::new(
            "serve.est_rtt_us",
            med(&rtt_us[0]),
            "us",
            rtt_us[0].len(),
        ));
        layers.push(Metric::new(
            "serve.topk_rtt_us",
            med(&rtt_us[1]),
            "us",
            rtt_us[1].len(),
        ));
        layers.push(Metric::new(
            "serve.hh_rtt_us",
            med(&rtt_us[2]),
            "us",
            rtt_us[2].len(),
        ));
        let items: Vec<u64> = probe_set.iter().map(|p| p.0).collect();
        let answers = if tiny { 200 } else { 2_000 };
        layers.push(Metric::new(
            "cluster.answer_us",
            live::answer_us(&merged, &items, &mut rng, answers, tracer, NONE),
            "us",
            answers,
        ));
        layers.push(Metric::new(
            "persist.ack_to_durable_ms",
            ack_to_durable_ms,
            "ms",
            1,
        ));
        live::fan_out_layers(&fan, &mut layers);
        layers.push(Metric::new(
            "gen.late_ms",
            lateness.p99_ms(),
            "ms",
            lateness.samples(),
        ));
        let unattributed =
            tracer.total_self("cluster_e2e.phase") / 1e3 / (total_updates as f64 / 1e3);
        layers.push(Metric::new(
            "trace.unattributed_us_per_kup",
            unattributed,
            "us/kup",
            1,
        ));
        let replay_len = stream.len().min(if tiny { 30_000 } else { 400_000 });
        // Each node publishes every snapshot interval and receives about
        // a third of the acknowledged rate.
        let node_ups = ingest_ups / NODES as f64;
        let publish_every = (node_ups * replay::SNAPSHOT_INTERVAL_S / BATCH as f64)
            .round()
            .max(1.0) as usize;
        replay::run(
            &ReplayConfig {
                stream: &stream[..replay_len],
                batch: BATCH,
                shards: 1,
                k: K,
                seed: SKETCH_SEED,
                publish_every,
                checkpoint_at: None,
                ring_nodes: NODES as u64,
                vnodes: VNODES,
            },
            &dir,
            tracer,
            &mut layers,
        )?;
        crate::write_spans(ctx, tracer);
    }
    drop(cluster);

    let summary = stats::summarize(&latency_ms);
    Ok(Outcome {
        attempted,
        failed,
        e2e: vec![
            median_metric("setup_s", "s", &setup_s),
            Metric::new("ingest_ups", ingest_ups, "updates/s", pass_ups.len()),
            Metric::new("query_p50_ms", summary.p50, "ms", summary.samples),
            median_metric("visible_lag_ms", "ms", &lag_ms),
            fastest_metric("recover_s", "s", &recover_s),
            Metric::new("node_rss_mb", rss, "MiB", NODES + 1),
            Metric::new("disk_bytes_per_update", disk as f64 / total_updates.max(1) as f64, "B", 1),
        ],
        layers,
        ingest_ups,
        late_p99_ms: lateness.p99_ms(),
        params: vec![
            format!("\"nodes\": {NODES}, \"k\": {K}, \"vnodes\": {VNODES}, \"batch\": {BATCH}, \"updates_per_pass\": {updates}"),
            format!("\"query_rate\": {QUERY_RATE}, \"tail_s\": {}, \"refresh_ms\": 100", TAIL.as_secs_f64()),
        ],
        detail: vec![
            format!("\"passes\": {passes}"),
            format!("\"query_latency_ms\": {}", summary.json()),
            live::fan_out_detail(&fan),
            format!("\"visible_lag_ms\": {lag_ms:?}"),
            format!("\"recover_s_each\": {recover_s:?}"),
        ],
    })
}
