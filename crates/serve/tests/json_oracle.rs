//! Byte-identity oracle for the streaming JSON writer.
//!
//! Compact JSON has two encoders: the reference renders a value's
//! `to_value()` tree through `Value::write_json`, and the streaming path
//! (`Serialize::write_json`, behind `serde_json::to_string`, `JsonlSink`
//! and the crawl service's per-session JSONL) writes fields directly. Run
//! caches, checkpoint payloads, golden traces and benchmark digests all
//! hash these bytes, so the two must never disagree — not on hostile
//! strings, edge-case numbers and empty shapes, and not on any event a
//! real crawl emits.

use mak::framework::engine::EngineConfig;
use mak::framework::session::Session;
use mak::spec::{build_crawler, CRAWLER_NAMES};
use mak_browser::fault::FaultPlan;
use mak_obs::sink::{JsonlSink, SinkHandle, VecSink};
use mak_obs::{Event, EventSink};
use mak_serve::StoredSession;
use mak_websim::apps;
use serde::{Serialize, Value};

/// The reference encoding: build the tree, render the tree.
fn via_tree<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.to_value().write_json(&mut out);
    out
}

/// Asserts the streamed encoding equals the reference and returns it.
fn same<T: Serialize + ?Sized>(value: &T) -> String {
    let streamed = serde_json::to_string(value).unwrap();
    assert_eq!(streamed, via_tree(value), "streamed and tree encodings differ");
    streamed
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Hostile {
    text: String,
    tags: Vec<String>,
    maybe: Option<String>,
}

#[derive(Serialize)]
enum Shape {
    Unit,
    Bare {},
    Full { a: u64, nested: Option<Option<f64>>, list: Vec<Option<Vec<i64>>> },
}

#[test]
fn hostile_strings_encode_identically() {
    let controls: String = (0u8..0x20).map(char::from).collect();
    // An independent statement of the escape table: named escapes for
    // the five JSON shorthands, `\u00xx` for every other control byte.
    let mut expected = String::from("\"");
    for b in 0u8..0x20 {
        match b {
            0x08 => expected.push_str("\\b"),
            0x09 => expected.push_str("\\t"),
            0x0a => expected.push_str("\\n"),
            0x0c => expected.push_str("\\f"),
            0x0d => expected.push_str("\\r"),
            _ => expected.push_str(&format!("\\u{b:04x}")),
        }
    }
    expected.push('"');
    assert_eq!(same(&controls), expected);
    assert_eq!(same("\"\\"), r#""\"\\""#);

    let strings = [
        String::new(),
        controls.clone(),
        "\"quoted\" and \\back\\slashed\\".to_owned(),
        "é, 漢字, 🦀, \u{7f}, \u{2028}".to_owned(),
        format!("mixed\"{controls}é\\\u{1}end"),
        "/path?q=a&b=\"c\"#frag".to_owned(),
    ];
    for s in &strings {
        let json = same(s);
        assert_eq!(&serde_json::from_str::<String>(&json).unwrap(), s, "round trip of {json}");
        same(&Value::Str(s.clone()));
        same(&Hostile {
            text: s.clone(),
            tags: vec![s.clone(), s.clone()],
            maybe: Some(s.clone()),
        });
    }
    same(&strings.to_vec());
}

#[test]
fn edge_numbers_encode_identically() {
    assert_eq!(same(&0.0f64), "0.0");
    assert_eq!(same(&-0.0f64), "-0.0");
    for nonfinite in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(same(&nonfinite), "null");
        assert_eq!(same(&(nonfinite as f32)), "null");
    }
    for f in [0.1, 1.0, 1e300, -1e-300, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 0.1 + 0.2] {
        same(&f);
    }
    // f32 widens before formatting, exactly like the tree path.
    assert_eq!(same(&0.1f32), format!("{:?}", 0.1f32 as f64));
    assert_eq!(same(&i64::MIN), "-9223372036854775808");
    assert_eq!(same(&u64::MAX), "18446744073709551615");
    same(&(i8::MIN, i16::MIN, i32::MIN));
    same(&(u8::MAX, u16::MAX, u32::MAX));
    same(&(isize::MIN, usize::MAX));
    same(&vec![i64::MIN, -1, 0, 1, i64::MAX]);
}

#[test]
fn empty_and_nested_shapes_encode_identically() {
    assert_eq!(same(&Vec::<u64>::new()), "[]");
    assert_eq!(same(&Empty {}), "{}");
    assert_eq!(same(&Shape::Unit), "\"Unit\"");
    assert_eq!(same(&Shape::Bare {}), "{\"Bare\":{}}");
    for nested in [None, Some(None), Some(Some(-0.0)), Some(Some(f64::NAN))] {
        same(&nested);
        same(&Shape::Full { a: 1, nested, list: vec![None, Some(vec![]), Some(vec![-1, 2])] });
    }
    same(&Some(Some(Some(7u64))));
    same(&Value::Array(vec![]));
    same(&Value::Object(vec![]));
    same(&Value::Object(vec![("".into(), Value::Null), ("\"\n".into(), Value::Object(vec![]))]));
}

#[test]
fn every_sample_event_encodes_identically() {
    for event in Event::samples() {
        same(&event);
    }
}

/// A spanned, heavy-fault session of `crawler` over PhpBB2, with its
/// buffered event stream.
fn spanned_faulty_crawl(
    crawler: &str,
) -> (Session<'static>, std::sync::Arc<std::sync::Mutex<VecSink>>) {
    let mut config = EngineConfig::with_budget_minutes(1.0);
    config.record_trace = true;
    config.faults = FaultPlan::profile("heavy").expect("profile exists");
    let (sink, cell) = SinkHandle::shared(VecSink::new());
    let seed = 29;
    let session = Session::shared_with_sink(
        apps::build_shared("phpbb2").unwrap(),
        build_crawler(crawler, seed).unwrap(),
        &config,
        seed,
        sink.with_spans(),
    );
    (session, cell)
}

#[test]
fn every_event_of_spanned_faulty_crawls_encodes_identically() {
    for &crawler in CRAWLER_NAMES {
        let (mut session, cell) = spanned_faulty_crawl(crawler);
        for _ in 0..5 {
            session.step();
        }
        let stored = StoredSession {
            id: 3,
            tenant: "tenant \"q\"".into(),
            record_events: true,
            record_spans: true,
            checkpoint: session.snapshot(),
        };
        same(&stored);
        let report = session.finish();
        assert!(report.faults.injected > 0, "{crawler} crawled under faults");
        same(&report);

        let sink = cell.lock().unwrap();
        let events = sink.events();
        assert!(events.iter().any(|e| e.kind() == "SpanClosed"), "{crawler} recorded spans");
        let mut reference = String::new();
        for event in events {
            reference.push_str(&same(event));
            reference.push('\n');
        }
        // Both stream encoders — the served stream and the JSONL sink —
        // produce exactly the reference lines.
        assert_eq!(sink.to_jsonl(), reference.as_bytes(), "{crawler}: served stream");
        let mut jsonl = JsonlSink::new(Vec::new());
        for event in events {
            jsonl.on_event(event);
        }
        assert_eq!(jsonl.finish().0, reference.as_bytes(), "{crawler}: JsonlSink");
    }
}
