use crate::{Record, RecordKind, TraceReport, Tracer};

#[test]
fn null_tracer_is_inert() {
    let t = Tracer::null();
    assert!(!t.is_enabled());
    assert_eq!(t.now_us(), 0);
    let mut sp = t.span("anything");
    sp.attr("k", "v");
    assert_eq!(sp.id(), 0);
    t.event("nothing", &[("a", "b".to_owned())]);
}

#[test]
fn spans_nest_and_balance() {
    let (t, sink) = Tracer::collect();
    {
        let mut root = t.span("root");
        root.attr("outcome", "ok");
        {
            let _inner = t.span("inner");
            t.event("tick", &[("n", "1".to_owned())]);
        }
        let _sibling = t.span("sibling");
    }
    let report = TraceReport::from_records(&sink.records()).unwrap();
    // Close order: inner, sibling, root.
    assert_eq!(
        report
            .spans
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>(),
        vec!["inner", "sibling", "root"]
    );
    let root = report.find("root").unwrap();
    assert_eq!(root.parent, None);
    assert_eq!(root.attr("outcome"), Some("ok"));
    let inner = report.find("inner").unwrap();
    assert_eq!(inner.parent, Some(root.id));
    let children = report.spans.iter().filter(|s| s.parent == Some(root.id));
    assert_eq!(children.count(), 2);
    assert_eq!(report.events.len(), 1);
    assert_eq!(report.events[0].parent, Some(inner.id));
    assert!(root.dur_us >= inner.dur_us);
}

#[test]
fn jsonl_round_trips() {
    let (t, sink) = Tracer::collect();
    {
        let mut sp = t.span("stage:lint \"quoted\"\n");
        sp.attr("outcome", "ok");
        t.event_at("iteration", 42, Some(7), &[("nodes", "120".to_owned())]);
    }
    let text = sink.to_jsonl();
    let parsed = TraceReport::from_jsonl(&text).unwrap();
    let direct = TraceReport::from_records(&sink.records()).unwrap();
    assert_eq!(parsed, direct);
    assert_eq!(parsed.events[0].t_us, 42);
    assert_eq!(parsed.events[0].dur_us, Some(7));
}

#[test]
fn unbalanced_traces_are_rejected() {
    // A begin with no end.
    let begin = Record {
        kind: RecordKind::Begin,
        id: 1,
        parent: None,
        name: "dangling".to_owned(),
        t_us: 0,
        dur_us: None,
        attrs: Vec::new(),
    };
    assert!(TraceReport::from_records(std::slice::from_ref(&begin)).is_err());
    // An end closing out of LIFO order.
    let mk = |kind, id, parent| Record {
        kind,
        id,
        parent,
        name: format!("s{id}"),
        t_us: 0,
        dur_us: Some(0),
        attrs: Vec::new(),
    };
    let records = vec![
        mk(RecordKind::Begin, 1, None),
        mk(RecordKind::Begin, 2, Some(1)),
        mk(RecordKind::End, 1, None),
    ];
    assert!(TraceReport::from_records(&records).is_err());
    // An event under a span that is not open.
    let records = vec![
        mk(RecordKind::Begin, 1, None),
        mk(RecordKind::End, 1, None),
        mk(RecordKind::Event, 3, Some(9)),
    ];
    assert!(TraceReport::from_records(&records).is_err());
}

#[test]
fn malformed_jsonl_is_rejected() {
    assert!(TraceReport::from_jsonl("not json").is_err());
    assert!(TraceReport::from_jsonl("{\"type\":\"begin\"}").is_err());
    assert!(TraceReport::from_jsonl(
        "{\"type\":\"warp\",\"id\":1,\"parent\":null,\"name\":\"x\",\"t_us\":0}"
    )
    .is_err());
    // Trailing garbage after the object.
    assert!(TraceReport::from_jsonl(
        "{\"type\":\"begin\",\"id\":1,\"parent\":null,\"name\":\"x\",\"t_us\":0} tail"
    )
    .is_err());
}

#[test]
fn exports_have_stable_shape() {
    let (t, sink) = Tracer::collect();
    {
        let mut sp = t.span("check");
        sp.attr("gs", "model");
        t.event("mark", &[]);
    }
    let report = TraceReport::from_records(&sink.records()).unwrap();
    let json = report.to_json();
    assert!(json.starts_with("{\"version\":1,\"spans\":["));
    assert!(json.contains("\"name\":\"check\""));
    assert!(json.contains("\"attrs\":{\"gs\":\"model\"}"));
    let chrome = report.to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"ph\":\"i\""));
}

#[test]
fn tracer_clones_share_one_stack() {
    let (t, sink) = Tracer::collect();
    let t2 = t.clone();
    {
        let _outer = t.span("outer");
        let _inner = t2.span("inner");
    }
    let report = TraceReport::from_records(&sink.records()).unwrap();
    let outer = report.find("outer").unwrap();
    assert_eq!(report.find("inner").unwrap().parent, Some(outer.id));
}
