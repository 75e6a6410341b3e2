//! The benchmark's own arithmetic: span self time, the percentile rule,
//! and open-loop lateness accounting.

use std::time::{Duration, Instant};

use perfbench::stats::{beyond, highest_supported, percentile, summarize, Lateness, Schedule};
use perfbench::trace::{covered, self_times, Span, Tracer, NONE};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        req: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    // root [0,100) with children [10,30) and [50,60); the first child has
    // its own child [15,20).
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 50, 60, Some(0)),
        span("a.inner", 15, 20, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![70, 15, 10, 5]);
}

#[test]
fn overlapping_children_are_counted_once() {
    // Children [10,40) and [30,50) overlap on [30,40): 40 covered, not 50.
    let spans = vec![
        span("root", 0, 100, None),
        span("x", 10, 40, Some(0)),
        span("y", 30, 50, Some(0)),
        span("z", 45, 48, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 60);
}

#[test]
fn children_outside_the_parent_are_clipped() {
    // A child that started before and ended after its parent covers it all.
    assert_eq!(covered(10, 20, vec![(0, 30)]), 10);
    assert_eq!(covered(10, 20, vec![(0, 12), (18, 40)]), 4);
    assert_eq!(covered(10, 20, vec![]), 0);
    let spans = vec![span("root", 10, 20, None), span("c", 0, 30, Some(0))];
    assert_eq!(self_times(&spans)[0], 0);
}

#[test]
fn tracer_totals_and_disabled_tracer() {
    let mut t = Tracer::new(true);
    let origin = Instant::now();
    let root = t.record("root", NONE, 0, origin, origin + Duration::from_micros(100));
    t.record(
        "child",
        root,
        0,
        origin + Duration::from_micros(10),
        origin + Duration::from_micros(40),
    );
    t.record(
        "child",
        root,
        1,
        origin + Duration::from_micros(60),
        origin + Duration::from_micros(70),
    );
    assert_eq!(t.durations("child").len(), 2);
    assert!((t.total("child") - 40_000.0).abs() < 1.0);
    assert!((t.total_self("root") - 60_000.0).abs() < 1.0);

    let mut off = Tracer::new(false);
    let id = off.begin("root", NONE, 0);
    off.end(id);
    assert_eq!(id, NONE);
    assert!(off.spans().is_empty());
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn only_percentiles_with_ten_samples_beyond_are_supported() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(999, 99.0), 9);
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(999), Some(90.0));
    assert_eq!(highest_supported(1000), Some(99.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
}

#[test]
fn failed_requests_count_as_infinite_latency() {
    let mut v: Vec<f64> = vec![1.0; 95];
    v.extend([f64::INFINITY; 5]);
    let s = summarize(&v);
    assert_eq!(s.p50, 1.0);
    assert!(s.p99.is_infinite());
    assert_eq!(s.top_pct, Some(90.0));
}

#[test]
fn lateness_is_measured_from_the_schedule() {
    let start = Instant::now();
    let schedule = Schedule::new(start, 1000.0);
    assert_eq!(schedule.due(0), start);
    assert_eq!(schedule.due(250) - start, Duration::from_millis(250));

    let mut late = Lateness::default();
    // 98 sends on time, then two that went out 30 ms and 80 ms late,
    // and one sent early (which counts as zero lateness).
    for i in 0..98 {
        late.record(schedule.due(i), schedule.due(i));
    }
    late.record(
        schedule.due(98),
        schedule.due(98) + Duration::from_millis(30),
    );
    late.record(
        schedule.due(99),
        schedule.due(99) + Duration::from_millis(80),
    );
    late.record(schedule.due(101), schedule.due(100));
    assert_eq!(late.samples(), 101);
    assert!((late.p99_ms() - 30.0).abs() < 1e-6);
    assert_eq!(Lateness::default().p99_ms(), 0.0);
}
