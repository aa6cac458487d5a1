//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! "JSON trace" format): one complete (`"ph":"X"`) event per recorded
//! span, timestamps in microseconds with nanosecond fractions.
//!
//! Hand-rolled like `MetricsSnapshot::to_json` — the vendored `serde`
//! shim does not serialize. The output loads directly in
//! <https://ui.perfetto.dev> (or `chrome://tracing`): one track per
//! recorded thread, span labels as slice names, the `u64` argument under
//! `args.arg`.

use crate::TraceEvent;

/// Serializes `events` (as returned by [`crate::dump`]) into a
/// self-contained Chrome trace-event JSON document.
///
/// Layout: a `thread_name` metadata record per distinct ring (so
/// Perfetto names the tracks) followed by one `X` (complete) event per
/// span. All events carry `pid` 1; `tid` is the ring id.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut out = String::with_capacity(128 + 24 * threads.len() + 112 * events.len());
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for tid in &threads {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"ring-{tid}\"}}}}"
        ));
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"arg\":{}}}}}",
            json_escape(e.label),
            e.thread,
            e.start_ns / 1000,
            e.start_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            e.arg,
        ));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping — the one escaper of the workspace: span
/// labels here, and the serving tier's model names, health surface and
/// HTTP bodies. Quote and backslash take their short escapes, every other
/// control character its `\u00XX` form.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &'static str, thread: u64, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent { label, arg: 7, start_ns, dur_ns, thread }
    }

    #[test]
    fn exports_complete_events_with_us_timestamps() {
        let json = chrome_trace_json(&[ev("qnet.conv", 0, 1_234_567, 890), ev("b", 2, 5, 0)]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // 1_234_567 ns = 1234.567 µs; 890 ns = 0.890 µs.
        assert!(json.contains("\"name\":\"qnet.conv\""), "{json}");
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":0.890"), "{json}");
        assert!(json.contains("\"args\":{\"arg\":7}"), "{json}");
        // Track metadata for both rings.
        assert!(json.contains("\"name\":\"ring-0\"") && json.contains("\"name\":\"ring-2\""));
        // Cheap well-formedness: balanced delimiters.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_dump_is_a_valid_trace() {
        assert_eq!(chrome_trace_json(&[]), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
    }

    #[test]
    fn escapes_hostile_labels() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
