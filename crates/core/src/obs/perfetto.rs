//! Chrome-trace-event (Perfetto) JSON export of flight-recorder snapshots,
//! plus an in-tree schema validator.
//!
//! The exporter emits the JSON-array flavour of the Trace Event Format —
//! one event object per line — loadable in `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev). Layout:
//!
//! * one process (`pid` 1, named `munin`), one **track per node** (`tid` =
//!   node index, named and sorted by `thread_name`/`thread_sort_index`
//!   metadata events);
//! * span-end events ([`EventKind::ends_span`]) become complete slices
//!   (`ph:"X"`) covering `[t_virt − dur, t_virt]`;
//! * `UpdateSend`/`UpdateInstall` become thin slices joined by **flow
//!   arrows** (`ph:"s"` → `ph:"f"`) whose id is the per-(src, dst) update
//!   sequence stream — `"<src>-<dst>-<seq>"` — so every update transmission
//!   draws an arrow from the sending node's track to the applying node's
//!   (an owner's re-fan of another node's bundle is one more hop, keyed
//!   `"<origin>:<src>-<dst>-<seq>"` with the origin's stream number);
//! * everything else becomes a thread-scoped instant (`ph:"i"`);
//! * each node carries a `flight_recorder` instant whose args report how
//!   many events were recorded and dropped, which the validator uses to
//!   decide whether flow pairing must be complete.
//!
//! Timestamps are **virtual** microseconds (`t_virt_ns / 1000`, three
//! decimals preserved), so traces are deterministic under a fixed engine
//! seed. No external JSON dependency: the writer formats by hand and the
//! validator ([`validate_trace_str`]) carries a minimal recursive-descent
//! JSON parser, which is also what CI's schema-check step runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use munin_sim::NodeId;

use super::{EventKind, ObsEvent, ObsSnapshot};

/// Escapes a string for inclusion in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes nanoseconds as microseconds with three decimals (`1234` → `1.234`).
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Flow-arrow id for an update transmission: the (src, dst, seq) triple of
/// the per-destination update sequence stream, rendered as a string so ids
/// survive JSON number precision. A hop made on another node's behalf names
/// that node too: `seq` is then from its stream, not from `src`'s.
fn flow_id(origin: Option<NodeId>, src: usize, dst: usize, seq: u64) -> String {
    match origin {
        Some(o) => format!("{}:{src}-{dst}-{seq}", o.as_usize()),
        None => format!("{src}-{dst}-{seq}"),
    }
}

/// Appends the common `"args"` object for an event (object / sync / peer /
/// seq / note fields that are present).
fn write_args(out: &mut String, ev: &ObsEvent) {
    out.push_str("\"args\":{");
    let mut first = true;
    let field = |out: &mut String, first: &mut bool, key: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = write!(out, "\"{key}\":");
    };
    for (_, name, v) in ev.fields() {
        field(out, &mut first, name);
        let _ = write!(out, "{v}");
    }
    if ev.dur_ns > 0 {
        field(out, &mut first, "dur_ns");
        let _ = write!(out, "{}", ev.dur_ns);
    }
    field(out, &mut first, "wall_ns");
    let _ = write!(out, "{}", ev.t_wall_ns);
    if let Some(n) = &ev.note {
        field(out, &mut first, "note");
        out.push('"');
        escape_into(out, n);
        out.push('"');
    }
    out.push('}');
}

/// Friendly slice name for a span-end event.
fn slice_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::ReadFaultEnd => "read_fault",
        EventKind::WriteFaultEnd => "write_fault",
        EventKind::LockGrant => "lock_acquire",
        EventKind::BarrierRelease => "barrier_wait",
        other => other.label(),
    }
}

/// Renders per-node snapshots as a Chrome-trace-event JSON array.
pub fn render_trace(nodes: &[ObsSnapshot]) -> String {
    let mut lines: Vec<String> = Vec::new();
    lines.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"munin\"}}"
            .to_string(),
    );
    for snap in nodes {
        let tid = snap.node;
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"node {tid}\"}}}}"
        ));
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{tid}}}}}"
        ));
        lines.push(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":0.000,\"s\":\"t\",\
             \"name\":\"flight_recorder\",\"args\":{{\"events_recorded\":{},\
             \"events_dropped\":{}}}}}",
            snap.events_recorded, snap.events_dropped
        ));
        for ev in &snap.events {
            lines.push(render_event(tid, ev));
            // An update's flow arrow: out of the sender's track, into the
            // applier's.
            if let (Some(peer), Some(seq)) = (ev.peer, ev.seq) {
                let (ph, src, dst) = match ev.kind {
                    EventKind::UpdateSend => ("\"ph\":\"s\"", tid, peer.as_usize()),
                    EventKind::UpdateInstall => ("\"ph\":\"f\",\"bp\":\"e\"", peer.as_usize(), tid),
                    _ => continue,
                };
                let (mut ts, id) = (String::new(), flow_id(ev.origin, src, dst, seq));
                write_us(&mut ts, ev.t_virt_ns);
                lines.push(format!(
                    "{{{ph},\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"cat\":\"update\",\
                     \"name\":\"update\",\"id\":\"{id}\"}}"
                ));
            }
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Renders one flight-recorder event as a trace-event JSON object.
fn render_event(tid: usize, ev: &ObsEvent) -> String {
    let mut s = String::with_capacity(128);
    if ev.kind.ends_span() {
        // Complete slice covering [t_virt − dur, t_virt].
        let start = ev.t_virt_ns.saturating_sub(ev.dur_ns);
        let _ = write!(
            s,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"munin\",\"ts\":",
            slice_name(ev.kind)
        );
        write_us(&mut s, start);
        s.push_str(",\"dur\":");
        write_us(&mut s, ev.dur_ns.max(1));
        s.push(',');
    } else if matches!(ev.kind, EventKind::UpdateSend | EventKind::UpdateInstall) {
        // Thin slice so the flow arrow has something to bind to.
        let _ = write!(
            s,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"update\",\"ts\":",
            ev.kind.label()
        );
        write_us(&mut s, ev.t_virt_ns);
        s.push_str(",\"dur\":0.001,");
    } else {
        let _ = write!(
            s,
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"munin\",\"s\":\"t\",\"ts\":",
            ev.kind.label()
        );
        write_us(&mut s, ev.t_virt_ns);
        s.push(',');
    }
    write_args(&mut s, ev);
    s.push('}');
    s
}

/// Renders and writes a trace for `nodes` to `path`.
pub fn write_trace_file(path: &str, nodes: &[ObsSnapshot]) -> std::io::Result<()> {
    std::fs::write(path, render_trace(nodes))
}

// ---------------------------------------------------------------------------
// Validation: a minimal JSON parser plus trace-schema checks.
// ---------------------------------------------------------------------------

/// A parsed JSON value (validator-internal; just enough JSON for traces).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character. It is at most 4 bytes, so
                    // only those are decoded: validating the whole remaining
                    // input here made parsing quadratic in the file size.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(chunk) {
                        Ok(s) => s,
                        Err(e) => std::str::from_utf8(&chunk[..e.valid_up_to()])
                            .expect("prefix reported valid by from_utf8"),
                    };
                    let c = valid
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Summary of a validated trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceCheck {
    /// Total trace events (including metadata).
    pub events: usize,
    /// Complete slices (`ph:"X"`).
    pub slices: usize,
    /// Instants (`ph:"i"`).
    pub instants: usize,
    /// Distinct node tracks seen.
    pub nodes: usize,
    /// Flow starts (`ph:"s"`).
    pub flows_started: usize,
    /// Flow finishes (`ph:"f"`).
    pub flows_finished: usize,
    /// Flows with both a start and a finish.
    pub flows_matched: usize,
    /// Total events dropped from recorder rings (per `flight_recorder`
    /// instants); when 0, flow pairing is required to be complete.
    pub dropped: u64,
}

/// Parses a trace produced by [`render_trace`] and checks its schema:
/// a JSON array of event objects, each with a valid `ph` and the fields that
/// phase requires; every flow finish pairs with an earlier-or-equal flow
/// start of the same id; and when no recorder ring dropped events, flow
/// pairing is exact (every start finishes and vice versa).
pub fn validate_trace_str(content: &str) -> Result<TraceCheck, String> {
    let mut parser = Parser::new(content);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after the trace array"));
    }
    let Json::Arr(events) = root else {
        return Err("trace root is not a JSON array".to_string());
    };
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut tracks: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut starts: BTreeMap<String, f64> = BTreeMap::new();
    let mut finishes: BTreeMap<String, f64> = BTreeMap::new();
    let need_num = |ev: &Json, key: &str, i: usize| -> Result<f64, String> {
        ev.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `{key}`"))
    };
    let need_str = |ev: &Json, key: &str, i: usize| -> Result<String, String> {
        ev.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("event {i}: missing string `{key}`"))
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = need_str(ev, "ph", i)?;
        match ph.as_str() {
            "M" => {
                let name = need_str(ev, "name", i)?;
                if !matches!(
                    name.as_str(),
                    "process_name" | "thread_name" | "thread_sort_index"
                ) {
                    return Err(format!("event {i}: unknown metadata `{name}`"));
                }
                if ev
                    .get("args")
                    .and_then(|a| a.get("name").or(a.get("sort_index")))
                    .is_none()
                {
                    return Err(format!("event {i}: metadata `{name}` missing args"));
                }
            }
            "X" => {
                need_str(ev, "name", i)?;
                need_num(ev, "pid", i)?;
                let tid = need_num(ev, "tid", i)?;
                need_num(ev, "ts", i)?;
                need_num(ev, "dur", i)?;
                tracks.insert(tid as u64);
                check.slices += 1;
            }
            "i" => {
                let name = need_str(ev, "name", i)?;
                need_num(ev, "pid", i)?;
                let tid = need_num(ev, "tid", i)?;
                need_num(ev, "ts", i)?;
                need_str(ev, "s", i)?;
                tracks.insert(tid as u64);
                check.instants += 1;
                if name == "flight_recorder" {
                    let d = ev
                        .get("args")
                        .and_then(|a| a.get("events_dropped"))
                        .and_then(Json::as_num)
                        .ok_or_else(|| {
                            format!("event {i}: flight_recorder missing events_dropped")
                        })?;
                    check.dropped += d as u64;
                }
            }
            "s" | "f" => {
                let id = need_str(ev, "id", i)?;
                need_num(ev, "pid", i)?;
                need_num(ev, "tid", i)?;
                let ts = need_num(ev, "ts", i)?;
                need_str(ev, "name", i)?;
                if ph == "s" {
                    check.flows_started += 1;
                    if starts.insert(id.clone(), ts).is_some() {
                        return Err(format!("event {i}: duplicate flow start `{id}`"));
                    }
                } else {
                    if ev.get("bp").and_then(Json::as_str) != Some("e") {
                        return Err(format!("event {i}: flow finish without bp:\"e\""));
                    }
                    check.flows_finished += 1;
                    if finishes.insert(id.clone(), ts).is_some() {
                        return Err(format!("event {i}: duplicate flow finish `{id}`"));
                    }
                }
            }
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    for (id, fts) in &finishes {
        match starts.get(id) {
            Some(sts) => {
                check.flows_matched += 1;
                if fts + 0.0005 < *sts {
                    return Err(format!(
                        "flow `{id}` finishes at {fts}us before it starts at {sts}us"
                    ));
                }
            }
            None if check.dropped == 0 => {
                return Err(format!("flow finish `{id}` has no matching start"));
            }
            None => {}
        }
    }
    if check.dropped == 0 {
        for id in starts.keys() {
            if !finishes.contains_key(id) {
                return Err(format!("flow start `{id}` never finishes"));
            }
        }
    }
    check.nodes = tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{EventKind, Recorder};
    use munin_sim::NodeId;

    fn sample_snapshots() -> Vec<ObsSnapshot> {
        let a = Recorder::new(NodeId::new(0), 64, false);
        let b = Recorder::new(NodeId::new(1), 64, false);
        a.record(1_000, EventKind::WriteFaultBegin, |ev| {
            ev.object = Some(crate::object::ObjectId::new(4));
        });
        a.record(2_500, EventKind::WriteFaultEnd, |ev| {
            ev.object = Some(crate::object::ObjectId::new(4));
            ev.dur_ns = 1_500;
        });
        a.record(3_000, EventKind::UpdateSend, |ev| {
            ev.peer = Some(NodeId::new(1));
            ev.seq = Some(0);
        });
        b.record(4_200, EventKind::UpdateInstall, |ev| {
            ev.peer = Some(NodeId::new(0));
            ev.seq = Some(0);
        });
        b.record(5_000, EventKind::BarrierRelease, |ev| {
            ev.sync_id = Some(1);
            ev.dur_ns = 800;
        });
        vec![a.snapshot(), b.snapshot()]
    }

    #[test]
    fn rendered_trace_validates_with_matched_flows() {
        let trace = render_trace(&sample_snapshots());
        let check = validate_trace_str(&trace).expect("trace should validate");
        assert_eq!(check.nodes, 2);
        assert_eq!(check.flows_started, 1);
        assert_eq!(check.flows_finished, 1);
        assert_eq!(check.flows_matched, 1);
        assert_eq!(check.dropped, 0);
        // write_fault + barrier_wait + the two thin update slices.
        assert_eq!(check.slices, 4);
    }

    #[test]
    fn unmatched_flow_finish_is_rejected_when_nothing_dropped() {
        let b = Recorder::new(NodeId::new(1), 64, false);
        b.record(4_200, EventKind::UpdateInstall, |ev| {
            ev.peer = Some(NodeId::new(0));
            ev.seq = Some(9);
        });
        let trace = render_trace(&[b.snapshot()]);
        let err = validate_trace_str(&trace).unwrap_err();
        assert!(err.contains("no matching start"), "got: {err}");
    }

    #[test]
    fn flow_ordering_violation_is_rejected() {
        // Hand-build a trace whose finish precedes its start.
        let trace = r#"[
{"ph":"s","pid":1,"tid":0,"ts":10.000,"cat":"update","name":"update","id":"0-1-0"},
{"ph":"f","bp":"e","pid":1,"tid":1,"ts":5.000,"cat":"update","name":"update","id":"0-1-0"}
]"#;
        let err = validate_trace_str(trace).unwrap_err();
        assert!(err.contains("before it starts"), "got: {err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(validate_trace_str("[{\"ph\":\"i\"").is_err());
        assert!(validate_trace_str("{\"ph\":\"i\"}").is_err());
        assert!(validate_trace_str("[{\"no_ph\":1}]").is_err());
    }

    #[test]
    fn strings_decode_escapes_and_multibyte_characters() {
        // One to four byte characters, every escape the parser knows, and a
        // multi-byte character as the very last thing before the quote.
        let text = r#""a\"\\\/\n\r\t\b\f\u00e9 é€😀 \u20ac€""#;
        let mut parser = Parser::new(text);
        assert_eq!(
            parser.string().unwrap(),
            "a\"\\/\n\r\t\u{8}\u{c}\u{e9} é€😀 \u{20ac}€"
        );
        assert_eq!(parser.pos, text.len());
        assert!(Parser::new("\"no closing quote é").string().is_err());
        assert!(Parser::new(r#""bad \x escape""#).string().is_err());
        assert!(Parser::new(r#""short \u12""#).string().is_err());
    }

    #[test]
    fn invalid_utf8_inside_a_string_is_rejected() {
        // A lone continuation byte, a truncated 3-byte sequence before the
        // quote, and one cut off by the end of the input.
        for bytes in [
            &b"\"ok \x80\""[..],
            &b"\"ok \xe2\x82\""[..],
            &b"\"ok \xf0\x9f"[..],
        ] {
            let mut parser = Parser { bytes, pos: 0 };
            let err = parser.string().unwrap_err();
            assert!(err.contains("invalid utf-8"), "got: {err}");
        }
    }

    #[test]
    fn string_parsing_is_linear_in_the_input() {
        // 2 MB of string content. Re-validating the rest of the input for
        // every character (the old code) is ~10^12 byte checks here; one
        // bounded decode per character is a few million.
        let body = "é€x".repeat(350_000);
        let text = format!("\"{body}\"");
        let start = std::time::Instant::now();
        assert_eq!(Parser::new(&text).string().unwrap(), body);
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn note_text_is_escaped() {
        let rec = Recorder::new(NodeId::new(0), 8, false);
        // `record` (not `note`) so the test does not depend on dump mode.
        rec.record(100, EventKind::Note, |ev| {
            ev.note = Some("quote\" slash\\ newline\n".to_string());
        });
        let trace = render_trace(&[rec.snapshot()]);
        let check = validate_trace_str(&trace).expect("escaped note should parse");
        assert_eq!(check.instants, 1 + 1); // the note + flight_recorder meta
    }

    #[test]
    fn dropped_events_relax_flow_pairing() {
        // A ring of 1 keeps only the install; the send was evicted.
        let rec = Recorder::new(NodeId::new(1), 1, false);
        rec.record(1_000, EventKind::UpdateSend, |ev| {
            ev.peer = Some(NodeId::new(0));
            ev.seq = Some(3);
        });
        rec.record(2_000, EventKind::UpdateInstall, |ev| {
            ev.peer = Some(NodeId::new(0));
            ev.seq = Some(5);
        });
        let trace = render_trace(&[rec.snapshot()]);
        let check = validate_trace_str(&trace).expect("dropped>0 relaxes pairing");
        assert_eq!(check.dropped, 1);
        assert_eq!(check.flows_matched, 0);
    }
}
