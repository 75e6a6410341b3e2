//! Client-side work against live nodes, with a span around every real
//! request: the query tier's fan-out (connect, `SNAP` round trip,
//! decode, Algorithm-5 merge) and `cluster-ingest`'s shipping loop
//! (ring routing, then each node's slice in `INGEST` frames, one node
//! after another). Also the query tier's answer path, run in process on
//! a fan-out's merged sketch.

use std::hint::black_box;
use std::time::Instant;

use streamfreq_core::cluster::{wire, HashRing};
use streamfreq_core::{ErrorType, FreqSketch};

use crate::net::{op, Res, Sfbp};
use crate::node_mixed::Kind;
use crate::replay::push_unique;
use crate::trace::{SpanId, Tracer};
use crate::{stats, Metric, Rng};

/// Timings of one fan-out, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct FanOut {
    pub connect_ns: f64,
    pub snap_ns: f64,
    pub decode_ns: f64,
    pub merge_ns: f64,
    pub total_ns: f64,
}

/// Fetches every node's snapshot over fresh connections and merges them
/// into one `k`-counter sketch, in node order — what the front node does
/// inline on a stale query.
pub fn fan_out(
    addrs: &[String],
    k: usize,
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Res<(FreqSketch, FanOut)> {
    let start = Instant::now();
    let root = tracer.begin("cluster.fan_out", parent, 0);
    let mut t = FanOut::default();
    let mut merged = FreqSketch::builder(k)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    for (i, addr) in addrs.iter().enumerate() {
        let req = i as u64;
        let t0 = Instant::now();
        let mut conn = Sfbp::connect(addr)?;
        let t1 = Instant::now();
        let payload = conn.call(op::SNAP, &[])?;
        let t2 = Instant::now();
        let snap =
            wire::decode_snapshot(&payload).map_err(|e| format!("{addr}: SNAP decode: {e}"))?;
        let t3 = Instant::now();
        merged.merge(&FreqSketch::from(snap.engine));
        let t4 = Instant::now();
        tracer.record("cluster.connect", root, req, t0, t1);
        tracer.record("cluster.snap_rtt", root, req, t1, t2);
        tracer.record("cluster.decode", root, req, t2, t3);
        tracer.record("cluster.merge", root, req, t3, t4);
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
        t.connect_ns += ns(t0, t1);
        t.snap_ns += ns(t1, t2);
        t.decode_ns += ns(t2, t3);
        t.merge_ns += ns(t3, t4);
    }
    tracer.end(root);
    t.total_ns = start.elapsed().as_nanos() as f64;
    Ok((merged, t))
}

/// Mean time per query, in microseconds, to answer `queries` draws of
/// the 90/9/1 `EST`/`TOPK 10`/`HH 0.01` mix from a merged sketch in
/// process: the front node's answer path without the network.
pub fn answer_us(
    merged: &FreqSketch,
    items: &[u64],
    rng: &mut Rng,
    queries: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> f64 {
    let kinds: Vec<(Kind, u64)> = (0..queries)
        .map(|_| {
            (
                Kind::draw(rng),
                items[rng.below(items.len() as u64) as usize],
            )
        })
        .collect();
    let span = tracer.begin("cluster.answer", parent, 0);
    let start = Instant::now();
    for &(kind, item) in &kinds {
        match kind {
            Kind::Est => {
                black_box((
                    merged.estimate(item),
                    merged.lower_bound(item),
                    merged.upper_bound(item),
                ));
            }
            Kind::Topk => {
                black_box(merged.top_k(10));
            }
            Kind::Hh => {
                black_box(merged.heavy_hitters(0.01, ErrorType::NoFalseNegatives));
            }
        }
    }
    let elapsed = start.elapsed();
    tracer.end(span);
    elapsed.as_secs_f64() * 1e6 / queries.max(1) as f64
}

/// What shipping a stream to the nodes cost, per node.
#[derive(Clone, Debug, Default)]
pub struct Ship {
    /// Wall time spent shipping each node its slice (seconds).
    pub node_ship_s: Vec<f64>,
    /// Round trip of every `INGEST` frame (ms).
    pub rtt_ms: Vec<f64>,
    /// Share of the shipping wall time each node had no frame in flight.
    pub idle_frac: f64,
    pub wall_s: f64,
}

/// Ships `stream` the way `cluster-ingest` does: partition over the
/// ring, then each node's slice in `batch`-sized `INGEST` frames with
/// one frame in flight, one node after another. With one address and
/// no ring every update goes to that node.
pub fn ship(
    addrs: &[String],
    ring: Option<&HashRing>,
    stream: &[(u64, u64)],
    batch: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Res<Ship> {
    let start = Instant::now();
    let mut slices: Vec<Vec<(u64, u64)>> = vec![Vec::new(); addrs.len()];
    let route = tracer.begin("ring.route", parent, 0);
    for &(item, weight) in stream {
        let owner = ring.map_or(0, |r| r.route(&item));
        slices[owner].push((item, weight));
    }
    tracer.end(route);
    let mut out = Ship::default();
    let mut busy_ns = 0.0;
    for (node, (addr, slice)) in addrs.iter().zip(&slices).enumerate() {
        let node_start = Instant::now();
        let span = tracer.begin("cluster.node_ship", parent, node as u64);
        let c0 = Instant::now();
        let mut conn = Sfbp::connect(addr)?;
        tracer.record("cluster.connect", span, node as u64, c0, Instant::now());
        for (i, chunk) in slice.chunks(batch.max(1)).enumerate() {
            let e0 = Instant::now();
            let frame = wire::encode_ingest_batch(chunk);
            tracer.record("wire.ingest_encode", span, i as u64, e0, Instant::now());
            let sent = Instant::now();
            let reply = conn.call(op::INGEST, &frame)?;
            let done = Instant::now();
            tracer.record("serve.ingest", span, i as u64, sent, done);
            let n = <[u8; 8]>::try_from(reply.as_slice())
                .map(u64::from_le_bytes)
                .unwrap_or(0);
            if n != chunk.len() as u64 {
                return Err(format!("{addr}: INGEST acked {n} of {}", chunk.len()));
            }
            let rtt = done.duration_since(sent);
            busy_ns += rtt.as_nanos() as f64;
            out.rtt_ms.push(rtt.as_secs_f64() * 1e3);
        }
        tracer.end(span);
        out.node_ship_s.push(node_start.elapsed().as_secs_f64());
    }
    out.wall_s = start.elapsed().as_secs_f64();
    let capacity_ns = out.wall_s * 1e9 * addrs.len() as f64;
    out.idle_frac = 1.0 - busy_ns / capacity_ns.max(1.0);
    Ok(out)
}

/// The run report's fan-out figure: median wall time of a whole
/// fan-out, in milliseconds, with its sample count. It is reported but
/// not gated.
pub fn fan_out_detail(fan: &[FanOut]) -> String {
    let ms: Vec<f64> = fan.iter().map(|t| t.total_ns / 1e6).collect();
    format!(
        "\"fan_out_ms\": {{\"median\": {}, \"samples\": {}}}",
        stats::num(stats::median(&ms)),
        ms.len()
    )
}

/// The fan-out's per-step layer metrics (medians over repetitions).
pub fn fan_out_layers(fan: &[FanOut], layers: &mut Vec<Metric>) {
    let med = |f: &dyn Fn(&FanOut) -> f64| stats::median(&fan.iter().map(f).collect::<Vec<_>>());
    push_unique(
        layers,
        Metric::new(
            "cluster.connect_ms",
            med(&|t| t.connect_ns / 1e6),
            "ms",
            fan.len(),
        ),
    );
    push_unique(
        layers,
        Metric::new(
            "cluster.snap_rtt_ms",
            med(&|t| t.snap_ns / 1e6),
            "ms",
            fan.len(),
        ),
    );
    push_unique(
        layers,
        Metric::new(
            "cluster.decode_ms",
            med(&|t| t.decode_ns / 1e6),
            "ms",
            fan.len(),
        ),
    );
    push_unique(
        layers,
        Metric::new(
            "cluster.merge_ms",
            med(&|t| t.merge_ns / 1e6),
            "ms",
            fan.len(),
        ),
    );
    push_unique(
        layers,
        Metric::new(
            "cluster.refresh_ms",
            med(&|t| t.total_ns / 1e6),
            "ms",
            fan.len(),
        ),
    );
}
