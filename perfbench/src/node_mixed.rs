//! `node_mixed`: one durable wire-ingest `streamfreq serve` node under
//! closed-loop ingest and open-loop queries at once.
//!
//! * Node: `--data-dir`, default fsync (`bytes:8388608`), default
//!   `--snapshot-ms 50`, `--shards 2`, k = 24 576; periodic checkpoints
//!   off, one `CKPT` at the run's midpoint.
//! * Ingest: one connection ships SFBP `INGEST` frames of 4 096 updates
//!   with one frame in flight, cycling over the seeded stream. Every
//!   64th frame is followed by a one-update marker frame.
//! * Queries: the other connection sends an open-loop mix at a fixed
//!   rate, timed from each request's due time: 90% `EST` (half of them
//!   on the newest unseen marker), 9% `TOPK 10`, 1% `HH 0.01`.
//! * End: a durability barrier (`STATS` n ≥ acked weight, then `REPL`),
//!   SIGKILL, and restarts on the same data dir.
//!
//! One generator thread drives both connections with non-blocking
//! polls, so the generator never needs more than one core.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use streamfreq_core::cluster::wire;
use streamfreq_core::{ShardedSketch, SketchEngine};
use streamfreq_workloads::{CaidaConfig, SyntheticCaida};

use crate::live;
use crate::net::{self, op, parse_est_payload, Proc, Res, Sfbp};
use crate::replay::{self, ReplayConfig};
use crate::stats::{self, Lateness, Schedule};
use crate::trace::{Tracer, NONE};
use crate::{check, fastest_metric, median_metric, probes, Ctx, Metric, Outcome, Rng};

pub const K: usize = 24_576;
pub const SHARDS: usize = 2;
pub const FRAME: usize = 4_096;
pub const SKETCH_SEED: u64 = 7;
pub const MARKER_EVERY: u64 = 64;
pub const MARKER_BASE: u64 = 1 << 40;
pub const MARKER_WEIGHT: u64 = 1 << 24;
pub const QUERY_RATE: f64 = 400.0;

/// Query kinds of the open-loop mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Est,
    Topk,
    Hh,
}

impl Kind {
    pub fn span(self) -> &'static str {
        match self {
            Kind::Est => "serve.est",
            Kind::Topk => "serve.topk",
            Kind::Hh => "serve.hh",
        }
    }

    /// Draws from the 90/9/1 mix.
    pub fn draw(rng: &mut Rng) -> Kind {
        match rng.below(100) {
            0..=89 => Kind::Est,
            90..=98 => Kind::Topk,
            _ => Kind::Hh,
        }
    }
}

/// What the ingest connection has in flight.
enum Inflight {
    Data(usize),
    Marker(u64),
    Ckpt,
}

/// One acknowledged `INGEST`, in order: a stream frame or a marker.
#[derive(Clone, Copy)]
enum Acked {
    Data(usize),
    Marker(u64),
}

fn node_args(dir: &Path, port: u16) -> Vec<String> {
    [
        "serve",
        "-k",
        &K.to_string(),
        "--shards",
        &SHARDS.to_string(),
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

/// Polls `STATS` until `n` reaches `weight` (or the deadline passes).
fn wait_for_weight(addr: &str, weight: u64, deadline: Instant) -> Res<u64> {
    loop {
        let n = net::stat(&net::text_stats(addr)?, "n")?;
        if n >= weight || Instant::now() > deadline {
            return Ok(n);
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let tiny = ctx.tiny();
    let dir = net::work_dir(&ctx.work_root, "node_mixed")?;
    let updates = if tiny { 40_000 } else { 1_000_000 };
    let config = CaidaConfig {
        seed: ctx.seed,
        ..CaidaConfig::scaled(updates)
    };
    let stream: Vec<(u64, u64)> = SyntheticCaida::new(&config).collect();
    let chunks: Vec<&[(u64, u64)]> = stream.chunks(FRAME).collect();
    let chunk_weight: Vec<u64> = chunks
        .iter()
        .map(|c| c.iter().map(|&(_, w)| w).sum())
        .collect();
    let frames: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| wire::encode_ingest_batch(c))
        .collect();
    let mut rng = Rng::new(ctx.seed);
    let probe_items: Vec<u64> = probes(&stream, 16, 48, &mut rng)
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    let data_dir = |i: usize| dir.join(format!("node-data-{i}"));

    // Set-up: a fresh durable node until it answers STATS; five times.
    let setup_reps = if tiny { 1 } else { 5 };
    let mut setup_s = Vec::new();
    let mut node = None;
    for rep in 0..setup_reps {
        let t0 = Instant::now();
        let proc = Proc::start(&ctx.bin, &node_args(&data_dir(rep), 0), &dir, "node")?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            drop(proc);
            let _ = std::fs::remove_dir_all(data_dir(rep));
        } else {
            node = Some(proc);
        }
    }
    let mut node = node.ok_or("no node started")?;
    let node_dir = data_dir(setup_reps - 1);

    // The measured phase.
    let phase = tracer.begin("node_mixed.phase", NONE, 0);
    let mut ingest = Sfbp::connect(&node.addr)?;
    let mut query = Sfbp::connect(&node.addr)?;
    let start = Instant::now();
    let ingest_end = start + Duration::from_secs_f64(ctx.seconds);
    let schedule = Schedule::new(start, QUERY_RATE);
    let mut lateness = Lateness::default();
    let mut inflight: Option<(Inflight, Instant)> = None;
    let mut sequence: Vec<Acked> = Vec::new();
    let (mut acked_updates, mut acked_weight) = (0u64, 0u64);
    let (mut next_frame, mut since_marker, mut markers) = (0usize, 0u64, 0u64);
    let mut marker_ack: Vec<Option<Instant>> = Vec::new();
    let mut marker_seen: Vec<bool> = Vec::new();
    let mut ckpt_sent = false;
    let mut ckpt_ms = f64::NAN;
    let mut ingest_rtt_ms = Vec::new();
    let mut last_ack = start;
    // Acknowledged updates per one-second window of the run.
    let mut window_acked = vec![0u64; ctx.seconds.ceil() as usize + 1];
    let mut qnext = 0u64;
    let mut qfifo: VecDeque<(Kind, Instant, Instant, Option<u64>)> = VecDeque::new();
    let mut latency_ms: Vec<f64> = Vec::new();
    let mut rtt_us: [Vec<f64>; 3] = Default::default();
    let mut lag_ms: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut replies = Vec::new();
    loop {
        let now = Instant::now();
        let open = now < ingest_end;
        let mut progressed = false;
        if inflight.is_none() && open {
            let marker_frame;
            let (what, opcode, payload): (_, _, &[u8]) =
                if !ckpt_sent && now >= start + (ingest_end - start) / 2 {
                    ckpt_sent = true;
                    (Inflight::Ckpt, op::CKPT, &[])
                } else if since_marker >= MARKER_EVERY {
                    since_marker = 0;
                    let m = markers;
                    markers += 1;
                    marker_ack.push(None);
                    marker_seen.push(false);
                    marker_frame = wire::encode_ingest_batch(&[(MARKER_BASE + m, MARKER_WEIGHT)]);
                    (Inflight::Marker(m), op::INGEST, &marker_frame)
                } else {
                    let f = next_frame % frames.len();
                    next_frame += 1;
                    since_marker += 1;
                    (Inflight::Data(f), op::INGEST, &frames[f])
                };
            ingest.send(opcode, payload)?;
            attempted += 1;
            inflight = Some((what, Instant::now()));
            progressed = true;
        }
        while open && schedule.due(qnext) <= Instant::now() {
            let due = schedule.due(qnext);
            let kind = Kind::draw(&mut rng);
            let mut target = None;
            let payload = match kind {
                Kind::Est => {
                    let newest = (0..markers)
                        .rev()
                        .find(|&m| marker_ack[m as usize].is_some());
                    let item = match newest {
                        Some(m) if !marker_seen[m as usize] && rng.below(2) == 0 => {
                            target = Some(m);
                            MARKER_BASE + m
                        }
                        _ => probe_items[rng.below(probe_items.len() as u64) as usize],
                    };
                    item.to_le_bytes().to_vec()
                }
                Kind::Topk => 10u32.to_le_bytes().to_vec(),
                Kind::Hh => {
                    let mut p = 0.01f64.to_le_bytes().to_vec();
                    p.push(0);
                    p
                }
            };
            let opcode = match kind {
                Kind::Est => op::EST,
                Kind::Topk => op::TOPK,
                Kind::Hh => op::HH,
            };
            query.send(opcode, &payload)?;
            let sent = Instant::now();
            lateness.record(due, sent);
            qfifo.push_back((kind, due, sent, target));
            qnext += 1;
            attempted += 1;
            progressed = true;
        }
        replies.clear();
        ingest.poll(&mut replies)?;
        for (status, payload) in replies.drain(..) {
            let done = Instant::now();
            let Some((what, sent)) = inflight.take() else {
                return Err("ingest reply with nothing in flight".into());
            };
            if status != 0 {
                return Err(format!(
                    "node refused a request: {}",
                    String::from_utf8_lossy(&payload)
                ));
            }
            progressed = true;
            match what {
                Inflight::Ckpt => ckpt_ms = done.duration_since(sent).as_secs_f64() * 1e3,
                Inflight::Data(f) => {
                    let n = chunks[f].len() as u64;
                    check(payload == n.to_le_bytes(), "ingest-ack", || {
                        format!("frame {f} acked {payload:?}")
                    })?;
                    acked_updates += n;
                    acked_weight += chunk_weight[f];
                    let w = done.duration_since(start).as_secs() as usize;
                    if let Some(slot) = window_acked.get_mut(w) {
                        *slot += n;
                    }
                    sequence.push(Acked::Data(f));
                    ingest_rtt_ms.push(done.duration_since(sent).as_secs_f64() * 1e3);
                    tracer.record("serve.ingest", phase, f as u64, sent, done);
                }
                Inflight::Marker(m) => {
                    acked_updates += 1;
                    acked_weight += MARKER_WEIGHT;
                    sequence.push(Acked::Marker(m));
                    marker_ack[m as usize] = Some(done);
                    tracer.record("serve.ingest_marker", phase, m, sent, done);
                }
            }
            last_ack = done;
        }
        replies.clear();
        query.poll(&mut replies)?;
        for (status, payload) in replies.drain(..) {
            let done = Instant::now();
            let (kind, due, sent, target) = qfifo
                .pop_front()
                .ok_or("query reply with nothing pending")?;
            progressed = true;
            tracer.record(kind.span(), phase, 0, sent, done);
            if status != 0 {
                failed += 1;
                latency_ms.push(f64::INFINITY);
                continue;
            }
            latency_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
            rtt_us[kind as usize].push(done.duration_since(sent).as_secs_f64() * 1e6);
            if let (Some(m), Some((_, lower, _))) = (target, parse_est_payload(&payload)) {
                if lower >= MARKER_WEIGHT / 2 && !marker_seen[m as usize] {
                    marker_seen[m as usize] = true;
                    if let Some(acked_at) = marker_ack[m as usize] {
                        lag_ms.push(done.duration_since(acked_at).as_secs_f64() * 1e3);
                    }
                }
            }
        }
        if !open && inflight.is_none() && qfifo.is_empty() {
            break;
        }
        if qfifo
            .front()
            .is_some_and(|q| q.2.elapsed() > net::IO_TIMEOUT)
        {
            return Err("a query timed out".into());
        }
        if !progressed {
            let wait = schedule
                .due(qnext)
                .saturating_duration_since(Instant::now());
            std::thread::sleep(wait.min(Duration::from_micros(50)));
        }
    }
    let ingest_s = last_ack.duration_since(start).as_secs_f64();
    // Median over the whole one-second windows, so a stall confined to
    // part of the run (the checkpoint, a noisy neighbour) does not set it.
    let whole = (ingest_s.floor() as usize).clamp(1, window_acked.len());
    let window_ups: Vec<f64> = window_acked[..whole].iter().map(|&n| n as f64).collect();
    let ingest_ups = stats::median(&window_ups);
    tracer.end(phase);

    // Durability barrier: everything acked is applied (STATS n), then
    // REPL flushes and fsyncs the log.
    let barrier_start = Instant::now();
    let barrier = tracer.begin("persist.barrier", NONE, 0);
    let n_seen = wait_for_weight(
        &node.addr,
        acked_weight,
        Instant::now() + Duration::from_secs(60),
    )?;
    check(n_seen == acked_weight, "barrier-weight", || {
        format!("STATS n {n_seen} != acked {acked_weight}")
    })?;
    ingest.call(op::REPL, &[])?;
    tracer.end(barrier);
    attempted += 2;
    let ack_to_durable_ms = barrier_start.elapsed().as_secs_f64() * 1e3;
    let disk = net::dir_bytes(&node_dir);

    // Ship-and-merge of the node's state, as the query tier does it.
    let merge_reps = if tiny { 2 } else { 50 };
    let mut fan = Vec::new();
    let mut shipped_view = None;
    for _ in 0..merge_reps {
        let (merged, t) = live::fan_out(
            std::slice::from_ref(&node.addr),
            K,
            SKETCH_SEED,
            tracer,
            NONE,
        )?;
        check(
            merged.stream_weight() == acked_weight,
            "merge-weight",
            || format!("merged N {}", merged.stream_weight()),
        )?;
        fan.push(t);
        attempted += 1;
        shipped_view = Some(merged);
    }
    let shipped_view = shipped_view.ok_or("no fan-out ran")?;
    let rss = node.peak_rss_mib();

    // SIGKILL and restart on the same data dir, until STATS shows N.
    let recover_reps = if tiny { 1 } else { crate::RECOVER_REPS };
    let mut recover_s = Vec::new();
    let port = node.port();
    for _ in 0..recover_reps {
        let t0 = Instant::now();
        node.kill();
        node = Proc::start(&ctx.bin, &node_args(&node_dir, port), &dir, "node")?;
        let n = wait_for_weight(
            &node.addr,
            acked_weight,
            Instant::now() + Duration::from_secs(60),
        )?;
        recover_s.push(t0.elapsed().as_secs_f64());
        check(n == acked_weight, "recovered-weight", || {
            format!("recovered N {n} != acked {acked_weight}")
        })?;
        tracer.record("persist.recover", NONE, 0, t0, Instant::now());
    }

    // Answers after restart equal an in-process ShardedSketch reference
    // fed the same acknowledged sequence.
    let mut reference: ShardedSketch<u64> = ShardedSketch::builder(SHARDS, K / SHARDS)
        .seed(SKETCH_SEED)
        .build()
        .map_err(|e| e.to_string())?;
    for a in &sequence {
        match *a {
            Acked::Data(f) => reference.update_batch(chunks[f]),
            Acked::Marker(m) => reference.update_batch(&[(MARKER_BASE + m, MARKER_WEIGHT)]),
        }
    }
    let merged: SketchEngine<u64> = reference.merged_with_capacity(K);
    check(
        merged.stream_weight() == acked_weight,
        "reference-weight",
        || format!("reference N {}", merged.stream_weight()),
    )?;
    let mut conn = Sfbp::connect(&node.addr)?;
    let marker_probes = (0..markers)
        .step_by(((markers / 8).max(1)) as usize)
        .map(|m| MARKER_BASE + m);
    for item in probe_items.iter().copied().chain(marker_probes) {
        let got =
            parse_est_payload(&conn.call(op::EST, &item.to_le_bytes())?).ok_or("bad EST reply")?;
        let want = (
            merged.estimate(&item),
            merged.lower_bound(&item),
            merged.upper_bound(&item),
        );
        check(got == want, "restart-equals-reference", || {
            format!("item {item}: node {got:?} reference {want:?}")
        })?;
        attempted += 1;
    }
    drop(conn);

    let mut layers = Vec::new();
    if tracer.enabled() {
        let med = |v: &[f64]| stats::median(v);
        layers.push(Metric::new(
            "serve.ingest_rtt_ms",
            med(&ingest_rtt_ms),
            "ms",
            ingest_rtt_ms.len(),
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
        layers.push(Metric::new(
            "persist.ack_to_durable_ms",
            ack_to_durable_ms,
            "ms",
            1,
        ));
        layers.push(Metric::new("persist.checkpoint_ms", ckpt_ms, "ms", 1));
        let replay_len = stream.len().min(if tiny { 40_000 } else { 400_000 });
        // cluster-ingest's shipping loop with this node as the only
        // owner, against the live node (after the checks: it adds weight).
        let root = tracer.begin("cluster.ingest_replay", NONE, 0);
        let shipped = live::ship(
            std::slice::from_ref(&node.addr),
            None,
            &stream[..replay_len],
            FRAME,
            tracer,
            root,
        )?;
        tracer.end(root);
        layers.push(Metric::new(
            "cluster.node_ship_s",
            shipped.node_ship_s[0],
            "s",
            1,
        ));
        layers.push(Metric::new(
            "cluster.node_idle_frac",
            shipped.idle_frac,
            "ratio",
            1,
        ));
        live::fan_out_layers(&fan, &mut layers);
        let answers = if tiny { 200 } else { 2_000 };
        layers.push(Metric::new(
            "cluster.answer_us",
            live::answer_us(&shipped_view, &probe_items, &mut rng, answers, tracer, NONE),
            "us",
            answers,
        ));
        layers.push(Metric::new(
            "gen.late_ms",
            lateness.p99_ms(),
            "ms",
            lateness.samples(),
        ));
        // Generator time with no request in flight, per 1 000 updates.
        let unattributed =
            tracer.total_self("node_mixed.phase") / 1e3 / (acked_updates as f64 / 1e3);
        layers.push(Metric::new(
            "trace.unattributed_us_per_kup",
            unattributed,
            "us/kup",
            1,
        ));
        let publish_every = (ingest_ups * replay::SNAPSHOT_INTERVAL_S / FRAME as f64)
            .round()
            .max(1.0) as usize;
        replay::run(
            &ReplayConfig {
                stream: &stream[..replay_len],
                batch: FRAME,
                shards: SHARDS,
                k: K,
                seed: SKETCH_SEED,
                publish_every,
                // The live node took its one CKPT at the run's midpoint.
                checkpoint_at: Some(replay_len.div_ceil(FRAME) / 2),
                ring_nodes: 1,
                vnodes: 64,
            },
            &dir,
            tracer,
            &mut layers,
        )?;
        crate::write_spans(ctx, tracer);
    }
    drop(node);

    let summary = stats::summarize(&latency_ms);
    let e2e = vec![
        median_metric("setup_s", "s", &setup_s),
        Metric::new("ingest_ups", ingest_ups, "updates/s", window_ups.len()),
        Metric::new("query_p50_ms", summary.p50, "ms", summary.samples),
        median_metric("visible_lag_ms", "ms", &lag_ms),
        fastest_metric("recover_s", "s", &recover_s),
        Metric::new("node_rss_mb", rss, "MiB", 1),
        Metric::new(
            "disk_bytes_per_update",
            disk as f64 / acked_updates.max(1) as f64,
            "B",
            1,
        ),
    ];
    check(lag_ms.len() >= 3, "marker-visibility", || {
        format!("only {} markers became visible", lag_ms.len())
    })?;
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        ingest_ups,
        late_p99_ms: lateness.p99_ms(),
        params: vec![
            format!("\"k\": {K}, \"shards\": {SHARDS}, \"frame\": {FRAME}, \"stream_updates\": {updates}"),
            format!("\"query_rate\": {QUERY_RATE}, \"mix\": \"90% EST, 9% TOPK 10, 1% HH 0.01\""),
            format!("\"marker_every_frames\": {MARKER_EVERY}, \"fsync\": \"default bytes:8388608\", \"snapshot_ms\": 50"),
        ],
        detail: vec![
            format!("\"query_latency_ms\": {}", summary.json()),
            live::fan_out_detail(&fan),
            format!("\"visible_lag_samples\": {}", lag_ms.len()),
            format!("\"recover_s_each\": {recover_s:?}"),
            format!("\"acked_updates\": {acked_updates}, \"acked_weight\": {acked_weight}"),
            format!("\"gen_late_samples\": {}", lateness.samples()),
        ],
    })
}
