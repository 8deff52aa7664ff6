//! Tests of the benchmark's own helpers: the statistics, the seeded
//! statement streams and their inverses, the report protocol, the span
//! tracer, and the metric names `BENCHMARK.json` declares.

use std::time::{Duration, Instant};

use xivm_perfbench::gen::{
    bulk_stream, catalog_inverse, doc_config, entity_pair, entity_stream, fragment_in_context,
    Entity, BULK_ROUND,
};
use xivm_perfbench::metrics::{END_TO_END, PER_LAYER};
use xivm_perfbench::report::{result_json, Metric, Report};
use xivm_perfbench::rng::Rng;
use xivm_perfbench::stats::{
    median, percentile, quartiles, relative_spread, samples_beyond, sorted, tail_is_supported,
};
use xivm_perfbench::trace::{EngineWork, Tracer, COMMIT_LAYERS};
use xivm_update::statement::parse_statement;
use xivm_update::{apply_pul, compute_pul};
use xivm_xmark::{all_updates, generate, update_by_name, view_pattern, VIEW_NAMES};
use xivm_xml::{parse_document, serialize_document, Document};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    let cases: [(&[f64], [f64; 3]); 3] = [
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [2.75, 5.5, 8.25]),
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.5, 1.25, 9.0, 4.0, 7.75], [2.375, 4.0, 8.375]),
    ];
    for (values, want) in cases {
        let got = quartiles(values).unwrap();
        assert!(got.iter().zip(want).all(|(g, w)| close(*g, w)), "{values:?}: {got:?}");
    }
    assert!(quartiles(&[1.0]).is_none());
    let spread = relative_spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
    assert!(close(spread, (8.25 - 2.75) / 5.5));
}

#[test]
fn percentiles_use_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.9), Some(90.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert!(tail_is_supported(100, 0.9));
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert!(!tail_is_supported(99, 0.9));
    assert!(tail_is_supported(1000, 0.99));
    assert!(!tail_is_supported(999, 0.99));
    assert_eq!(samples_beyond(0, 0.9), 0);
}

#[test]
fn streams_are_a_function_of_the_seed() {
    assert_eq!(entity_stream(7), entity_stream(7));
    assert_ne!(entity_stream(7), entity_stream(8));
    assert_eq!(bulk_stream(7), bulk_stream(7));
    assert_ne!(bulk_stream(7), bulk_stream(8));
    let a = serialize_document(&generate(&doc_config(7, 0, 16 * 1024)));
    let b = serialize_document(&generate(&doc_config(7, 0, 16 * 1024)));
    let c = serialize_document(&generate(&doc_config(7, 1, 16 * 1024)));
    assert_eq!(a, b);
    assert_ne!(a, c, "each child process gets its own document");
    let mut r1 = Rng::derive(3, 4);
    let mut r2 = Rng::derive(3, 4);
    assert_eq!((0..8).map(|_| r1.next_u64()).collect::<Vec<_>>(), {
        (0..8).map(|_| r2.next_u64()).collect::<Vec<_>>()
    });
}

#[test]
fn every_round_has_the_same_make_up_whatever_the_seed() {
    for seed in 0..20 {
        for round in entity_stream(seed) {
            let mut kinds: Vec<&str> = round.iter().map(|p| p.kind.name()).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, ["auction", "auction", "item", "person", "person"]);
        }
        for round in bulk_stream(seed) {
            let mut names: Vec<Vec<&str>> = round.iter().map(|p| p.names.clone()).collect();
            let mut want: Vec<Vec<&str>> = BULK_ROUND.iter().map(|t| t.to_vec()).collect();
            names.sort();
            want.sort();
            assert_eq!(names, want);
        }
    }
}

/// Applies a statement to a bare document through the update layer.
fn apply(doc: &mut Document, text: &str) -> usize {
    let stmt = parse_statement(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let pul = compute_pul(doc, &stmt);
    apply_pul(doc, &pul).unwrap_or_else(|e| panic!("{text}: {e}"));
    pul.len()
}

fn small_doc() -> Document {
    generate(&doc_config(11, 0, 48 * 1024))
}

#[test]
fn every_entity_insert_is_undone_by_its_delete() {
    let mut doc = small_doc();
    let original = serialize_document(&doc);
    let mut rng = Rng::new(5);
    for kind in Entity::ALL {
        for _ in 0..3 {
            let pair = entity_pair(kind, &mut rng);
            assert_eq!(apply(&mut doc, &pair.insert), 1, "{}", pair.insert);
            assert_ne!(serialize_document(&doc), original);
            assert_eq!(apply(&mut doc, &pair.delete), 1, "{}", pair.delete);
            assert_eq!(serialize_document(&doc), original, "{} pair", kind.name());
        }
    }
}

#[test]
fn every_catalog_insert_is_undone_by_its_inverse() {
    let mut doc = small_doc();
    let original = serialize_document(&doc);
    for update in all_updates() {
        let insert = format!("for $x in {} insert {} into $x", update.path, update.insert_xml);
        let inserted = apply(&mut doc, &insert);
        let removed = apply(&mut doc, &catalog_inverse(&update));
        assert_eq!(inserted, removed, "{}: {}", update.name, catalog_inverse(&update));
        assert_eq!(serialize_document(&doc), original, "{} not undone", update.name);
    }
    // The bulk transactions, applied statement by statement.
    for pair in bulk_stream(3).into_iter().flatten().take(10) {
        for s in &pair.inserts {
            assert!(apply(&mut doc, s) > 0, "{s} hits nothing");
        }
        for s in &pair.deletes {
            apply(&mut doc, s);
        }
        assert_eq!(serialize_document(&doc), original, "{:?} not undone", pair.names);
    }
    assert_eq!(
        catalog_inverse(&update_by_name("X1_L")),
        "delete /site/people/person/name[name=\"and\"]"
    );
    assert_eq!(
        catalog_inverse(&update_by_name("E6_L")),
        "delete /site/regions/*/item/item[location=\"Unknown\"]"
    );
}

#[test]
fn entity_fragments_feed_the_views_they_are_meant_to() {
    let mut rng = Rng::new(9);
    let want: [(Entity, &[&str]); 3] = [
        (Entity::Person, &["Q1", "Q17"]),
        (Entity::Item, &["Q6", "Q13"]),
        (Entity::Auction, &["Q2", "Q3", "Q4"]),
    ];
    for (kind, views) in want {
        let pair = entity_pair(kind, &mut rng);
        let mini = parse_document(&fragment_in_context(&pair)).unwrap();
        for v in VIEW_NAMES {
            let n = xivm_ivma::recompute_store(&mini, &view_pattern(v)).len();
            assert_eq!(n, usize::from(views.contains(&v)), "{} on {v}", kind.name());
        }
    }
}

#[test]
fn reports_round_trip_and_merge() {
    let mut a = Report::default();
    a.sample("commit", 1.5);
    a.sample("commit", 1e-7);
    a.add("ops.attempted", 3.0);
    a.fail("something\nbroke");
    let text = format!("noise before the header\n{}", a.to_text());
    let parsed = Report::parse(&text).unwrap();
    assert_eq!(parsed, Report { failures: vec!["something broke".into()], ..a.clone() });
    let mut b = parsed.clone();
    b.merge(parsed);
    assert_eq!(b.get("commit").len(), 4);
    assert_eq!(b.total("ops.attempted"), 6.0);
    assert!(Report::parse("no header").is_err());
    let json = result_json(true, 3, 0, &[Metric { name: "x_us", unit: "us", value: 1.25 }]);
    assert_eq!(
        json,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
         \"metrics\": {\"x_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
    );
}

#[test]
fn commit_layers_and_the_remainder_add_up_to_commit_wall() {
    let mut t = Tracer::new(true);
    let start = Instant::now();
    let call = start + Duration::from_micros(100);
    let end = start + Duration::from_micros(1_000);
    t.begin_commit();
    let parse = t.record("update.parse", start, call, None);
    let commit = t.record("commit", start, end, None);
    t.adopt(parse, commit);
    // Per-view phases worth more than the wall left: they ran in
    // parallel, so they are scaled into the room.
    let work = EngineWork {
        find: Duration::from_micros(50),
        apply: Duration::from_micros(150),
        phases: [Duration::from_micros(400); 4],
    };
    t.attach_engine_from(commit, call, &work);
    t.end_commit();
    let spans = t.spans();
    assert_eq!(spans.len(), 2 + COMMIT_LAYERS.len());
    let c = &spans[commit.unwrap()];
    assert!(spans.iter().all(|s| s.commit == 1));
    for s in spans.iter().filter(|s| s.parent == commit) {
        assert!(s.start >= c.start && s.end <= c.end, "{} outlasts its commit", s.name);
    }
    let children: u64 = spans.iter().filter(|s| s.parent == commit).map(|s| s.nanos()).sum();
    let other = t.self_nanos()[commit.unwrap()];
    assert_eq!(children + other, c.nanos());
    assert!(other < 1_000, "the engine filled the room: remainder {other} ns");

    // Tracing off records nothing.
    let mut off = Tracer::new(false);
    assert_eq!(off.span("x", None, || 7), (7, None));
    assert!(off.spans().is_empty());
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        // The benchmark's own directory outside a repository checkout.
        return;
    };
    let section = |key: &str| -> Vec<(String, String)> {
        let body = &text[text.find(&format!("\"{key}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\": \"")).unwrap() + f.len() + 5;
                    entry[at..at + entry[at..].find('"').unwrap()].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(section("end_to_end"), own(&END_TO_END));
    assert_eq!(section("per_layer"), own(&PER_LAYER));
}
