//! Chrome `trace_event` JSON export (serde-free).
//!
//! Emits the "JSON Object" flavour of the [trace event format]: a
//! `traceEvents` array of `B`/`E` duration events, `C` counter events and
//! `M` metadata events naming each track, all under one process. The
//! output loads directly in `chrome://tracing` and Perfetto.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{escape, number};
use crate::{Event, Trace};
use std::collections::BTreeMap;
use std::time::Duration;

/// Microsecond timestamp with sub-µs precision, as Chrome expects.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub(crate) fn to_chrome_json(trace: &Trace) -> String {
    let mut events: Vec<String> = Vec::new();
    // track keys may be sparse (append() offsets them); renumber to small
    // consecutive tids in merged (deterministic) order
    let tid_of: BTreeMap<u64, usize> = trace
        .tracks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.key, i))
        .collect();
    for t in &trace.tracks {
        let tid = tid_of[&t.key];
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{}"}}}}"#,
            escape(&t.label)
        ));
        // Chrome counter tracks plot absolute values, so emit the running
        // total of each counter, stamped at the time of the last span edge
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        let mut now = Duration::ZERO;
        for e in &t.events {
            match e {
                Event::Begin { name, at } => {
                    now = *at;
                    events.push(format!(
                        r#"{{"name":"{}","cat":"xsynth","ph":"B","ts":{:.3},"pid":1,"tid":{tid}}}"#,
                        escape(name),
                        us(*at)
                    ));
                }
                Event::End { at } => {
                    now = *at;
                    events.push(format!(
                        r#"{{"ph":"E","ts":{:.3},"pid":1,"tid":{tid}}}"#,
                        us(*at)
                    ));
                }
                Event::Count { name, delta } => {
                    let total = totals.entry(name.as_str()).or_insert(0);
                    *total += delta;
                    events.push(format!(
                        r#"{{"name":"{}","cat":"xsynth","ph":"C","ts":{:.3},"pid":1,"tid":{tid},"args":{{"value":{}}}}}"#,
                        escape(name),
                        us(now),
                        total
                    ));
                }
                Event::Gauge { name, value } => {
                    events.push(format!(
                        r#"{{"name":"{}","cat":"xsynth","ph":"C","ts":{:.3},"pid":1,"tid":{tid},"args":{{"value":{}}}}}"#,
                        escape(name),
                        us(now),
                        number(*value)
                    ));
                }
                // histogram samples surface as instant events carrying the
                // raw value plus the bucket they land in, stamped at the
                // last span edge (observations carry no timestamp)
                Event::Hist { name, value } => {
                    events.push(format!(
                        r#"{{"name":"hist:{}","cat":"xsynth","ph":"i","s":"t","ts":{:.3},"pid":1,"tid":{tid},"args":{{"value":{},"bucket":{}}}}}"#,
                        escape(name),
                        us(now),
                        number(*value),
                        crate::bucket_of(*value)
                    ));
                }
            }
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"program\":\"xsynth\"}}}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use crate::TraceSink;

    #[test]
    fn export_is_valid_json_with_all_event_kinds() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "main \"quoted\"\n");
            b.span("phase", |b| {
                b.count("items", 3);
                b.gauge("rate", 0.5);
                b.gauge("nodes", 42.0);
                b.observe("cubes", 6.0);
            });
        }
        let json = sink.take().to_chrome_json();
        crate::json::validate(&json).expect("emitted JSON must parse");
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#"\"quoted\""#));
    }

    #[test]
    fn hist_samples_export_value_and_bucket() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "m");
            b.span("s", |b| b.observe("fprm.cubes", 6.0));
        }
        let json = sink.take().to_chrome_json();
        crate::json::validate(&json).expect("emitted JSON must parse");
        assert!(json.contains(r#""name":"hist:fprm.cubes""#), "{json}");
        assert!(
            json.contains(&format!(
                r#""args":{{"value":6,"bucket":{}}}"#,
                crate::bucket_of(6.0)
            )),
            "{json}"
        );
    }

    #[test]
    fn counters_export_running_totals() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "m");
            b.span("s", |b| {
                b.count("n", 2);
                b.count("n", 3);
            });
        }
        let json = sink.take().to_chrome_json();
        assert!(json.contains(r#""args":{"value":2}"#), "{json}");
        assert!(json.contains(r#""args":{"value":5}"#), "{json}");
    }
}
