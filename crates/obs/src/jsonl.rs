//! The JSONL capture format: this module writes and reads every row of
//! it, and this comment is its specification.
//!
//! A [`SinkKind::Jsonl`](crate::SinkKind) capture is a text file of one
//! JSON object per line. There are three kinds of row, and a row's
//! leading key says which kind it is:
//!
//! ```text
//! {"seq":N,"kind":K,"domain":"…","name":"…"[,"span":N][,"trace":N][,"parent":N][,STAMP][,"fields":{…}]}
//! {"checkpoint":I,"start_seq":N,"end_seq":N,"chained":"HEX"}
//! {"segments":N,"trace_digest":"HEX"}
//! ```
//!
//! - **Event rows** appear in `seq` order. `K` is `"point"`,
//!   `"span_start"` or `"span_end"`. The three ids are left out when 0.
//!   `STAMP` is `"sim_us":N`, `"block":N` or `"round":N`, left out for
//!   [`Stamp::None`]. `"fields"` is left out when empty; it holds the
//!   fields in emission order. An integer field prints in decimal at its
//!   full width (`u128` amounts and span ids exceed 2^53, so a reader
//!   must not go through `f64`). A finite float prints in Rust's
//!   shortest round-trip decimal form, never with an exponent: an
//!   integral float prints as an integer and reads back as one, and
//!   `-0.0` prints `-0` and reads back as the float it was. A non-finite
//!   float prints as the string `"NaN"`, `"inf"` or `"-inf"`. Strings
//!   escape `"`, `\`, and control characters and are otherwise raw
//!   UTF-8.
//! - **Checkpoint rows**: row `I` follows the last event of segment `I`
//!   and carries the trace digest as of that event ([`SegmentCheckpoint`];
//!   `crate::diff` bisects them), so the `I`th checkpoint row of an
//!   undamaged file has index `I`.
//! - **The trailer** is the last row of a capture that was finished. A
//!   human reads it with `tail -1` to compare two files at a glance; no
//!   code does ([`Row::Trailer`] only recognises it).
//!
//! Rows are a *rendering*: the trace digest is taken over the binary
//! `Event::encode`, never over these bytes, and a row has lost its
//! field's integer width, which is why [`RawEvent`] and [`Event`] stay
//! two types and a parsed row is never digested. For every row this
//! module writes, [`Row::parse`] followed by `to_json` gives the row
//! back byte for byte (`tests/row_pin.rs`, `tests/json_roundtrip.rs`).
//! Unknown keys are ignored, so a field added to a row (a wall-clock
//! channel, ROADMAP item 9) is one writer line and one reader line here.

use crate::trace::{Event, EventKind, SegmentCheckpoint, Stamp, Value};
use pds2_crypto::sha256::Digest;

/// Field value as read from a row. Numbers keep full integer precision
/// (`u128` / `i128`).
#[derive(Clone, Debug, PartialEq)]
pub enum RawValue {
    /// Non-negative integer.
    U(u128),
    /// Negative integer.
    I(i128),
    /// Float that did not print as an integer (fractional, out of
    /// `i128` range, or negative zero).
    F(f64),
    /// String (non-finite floats come back as these).
    S(String),
}

/// One event as read from a row (owned strings: a row has no
/// `&'static` interned names).
#[derive(Clone, Debug, PartialEq)]
pub struct RawEvent {
    /// Position in the capture's stream.
    pub seq: u64,
    /// Point / span-start / span-end.
    pub kind: EventKind,
    /// Subsystem.
    pub domain: String,
    /// Event name.
    pub name: String,
    /// Owning span id (0 = free-standing).
    pub span: u64,
    /// Trace id (0 = untraced).
    pub trace: u64,
    /// Causal parent span id (0 = root/untraced).
    pub parent: u64,
    /// Logical timestamp.
    pub stamp: Stamp,
    /// Payload fields in emission order.
    pub fields: Vec<(String, RawValue)>,
}

/// One parsed row of a capture file.
#[derive(Clone, Debug, PartialEq)]
pub enum Row {
    /// An event.
    Event(RawEvent),
    /// A segment checkpoint.
    Checkpoint(SegmentCheckpoint),
    /// The capture trailer.
    Trailer,
}

/// Appends `s` as a JSON string. The crate's one string escaper
/// (quotes, backslashes, control chars; the rest is raw UTF-8).
pub(crate) fn push_quoted(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How a field value prints: once for the collector's typed [`Value`],
/// once for a value read back from a row.
trait Print {
    fn print(&self, out: &mut String);
}

fn print_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str(&format!("\"{v}\""));
    }
}

impl Print for Value {
    fn print(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::U128(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => print_f64(*v, out),
            Value::Str(v) => push_quoted(v, out),
        }
    }
}

impl Print for RawValue {
    fn print(&self, out: &mut String) {
        match self {
            RawValue::U(v) => out.push_str(&v.to_string()),
            RawValue::I(v) => out.push_str(&v.to_string()),
            RawValue::F(v) => print_f64(*v, out),
            RawValue::S(v) => push_quoted(v, out),
        }
    }
}

fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Point => "point",
        EventKind::SpanStart => "span_start",
        EventKind::SpanEnd => "span_end",
    }
}

/// The event row. `ids` is `[span, trace, parent]`.
fn event_row<K: AsRef<str>, V: Print>(
    seq: u64,
    kind: EventKind,
    domain: &str,
    name: &str,
    ids: [u64; 3],
    stamp: Stamp,
    fields: &[(K, V)],
) -> String {
    let mut s = String::with_capacity(128);
    s.push_str(&format!(
        "{{\"seq\":{seq},\"kind\":\"{}\",\"domain\":",
        kind_name(kind)
    ));
    push_quoted(domain, &mut s);
    s.push_str(",\"name\":");
    push_quoted(name, &mut s);
    for (key, id) in ["span", "trace", "parent"].iter().zip(ids) {
        if id != 0 {
            s.push_str(&format!(",\"{key}\":{id}"));
        }
    }
    match stamp {
        Stamp::None => {}
        Stamp::Sim(t) => s.push_str(&format!(",\"sim_us\":{t}")),
        Stamp::Block(h) => s.push_str(&format!(",\"block\":{h}")),
        Stamp::Round(r) => s.push_str(&format!(",\"round\":{r}")),
    }
    if !fields.is_empty() {
        s.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_quoted(key.as_ref(), &mut s);
            s.push(':');
            value.print(&mut s);
        }
        s.push('}');
    }
    s.push('}');
    s
}

impl Event {
    /// The event's row (what the JSONL sink writes, less the newline).
    pub fn to_json(&self) -> String {
        let ids = [self.span, self.trace, self.parent];
        event_row(
            self.seq,
            self.kind,
            self.domain,
            self.name,
            ids,
            self.stamp,
            &self.fields,
        )
    }
}

impl RawEvent {
    /// The event's row. For a `RawEvent` parsed from a row this module
    /// wrote, it is that row byte for byte.
    pub fn to_json(&self) -> String {
        let ids = [self.span, self.trace, self.parent];
        event_row(
            self.seq,
            self.kind,
            &self.domain,
            &self.name,
            ids,
            self.stamp,
            &self.fields,
        )
    }

    /// First field named `key` as a `u64`, if present and in range.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                RawValue::U(u) => u64::try_from(*u).ok(),
                _ => None,
            })
    }
}

impl From<&Event> for RawEvent {
    /// By way of the row: an in-memory event becomes exactly what a
    /// reader of its JSONL row would see, so ring- and file-sourced
    /// analyses of one run agree by construction.
    fn from(e: &Event) -> RawEvent {
        match Row::parse(&e.to_json()) {
            Some(Row::Event(raw)) => raw,
            // `event_row` writes only what `event` reads back.
            _ => unreachable!("an event row reads back as an event row"),
        }
    }
}

impl SegmentCheckpoint {
    /// The checkpoint's row.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"checkpoint\":{},\"start_seq\":{},\"end_seq\":{},\"chained\":\"{}\"}}",
            self.index,
            self.start_seq,
            self.end_seq,
            self.chained.to_hex()
        )
    }
}

/// The trailer row: checkpoint count, final trace digest.
pub(crate) fn trailer_json(segments: usize, trace_digest: &Digest) -> String {
    format!(
        "{{\"segments\":{segments},\"trace_digest\":\"{}\"}}",
        trace_digest.to_hex()
    )
}

/// The `seq` of an event row, read off the front of the line without
/// parsing the body; `None` for every other row. For a reader that must
/// pass over most event rows cheaply (`crate::diff` reads one segment
/// of a file, not the file).
pub(crate) fn peek_seq(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"seq\":")?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl Row {
    /// Parses one line. `None` when the line is not a row of the
    /// format: malformed JSON, nested deeper than a row can be, an
    /// unknown leading key, or a missing or mistyped member.
    pub fn parse(line: &str) -> Option<Row> {
        let obj = Parser::parse(line)?;
        match obj.first()?.0.as_str() {
            "seq" => event(&obj).map(Row::Event),
            "checkpoint" => checkpoint(&obj).map(Row::Checkpoint),
            "segments" => Some(Row::Trailer),
            _ => None,
        }
    }

    /// The event, if this is an event row.
    pub fn event(self) -> Option<RawEvent> {
        match self {
            Row::Event(e) => Some(e),
            _ => None,
        }
    }
}

type Object = [(String, JsonValue)];

fn get<'o>(obj: &'o Object, key: &str) -> Option<&'o JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(obj: &Object, key: &str) -> Option<u64> {
    match get(obj, key)? {
        JsonValue::U(u) => u64::try_from(*u).ok(),
        _ => None,
    }
}

fn get_str<'o>(obj: &'o Object, key: &str) -> Option<&'o str> {
    match get(obj, key)? {
        JsonValue::S(s) => Some(s),
        _ => None,
    }
}

fn event(obj: &Object) -> Option<RawEvent> {
    let kind = get_str(obj, "kind")?;
    let kind = [EventKind::Point, EventKind::SpanStart, EventKind::SpanEnd]
        .into_iter()
        .find(|k| kind_name(*k) == kind)?;
    let stamp = if let Some(t) = get_u64(obj, "sim_us") {
        Stamp::Sim(t)
    } else if let Some(h) = get_u64(obj, "block") {
        Stamp::Block(h)
    } else if let Some(r) = get_u64(obj, "round") {
        Stamp::Round(r)
    } else {
        Stamp::None
    };
    let fields = match get(obj, "fields") {
        None => Vec::new(),
        Some(JsonValue::Object(kv)) => kv
            .iter()
            .map(|(k, v)| {
                let raw = match v {
                    JsonValue::U(u) => RawValue::U(*u),
                    JsonValue::I(i) => RawValue::I(*i),
                    JsonValue::F(f) => RawValue::F(*f),
                    JsonValue::S(s) => RawValue::S(s.clone()),
                    JsonValue::Object(_) => return None,
                };
                Some((k.clone(), raw))
            })
            .collect::<Option<Vec<_>>>()?,
        Some(_) => return None,
    };
    Some(RawEvent {
        seq: get_u64(obj, "seq")?,
        kind,
        domain: get_str(obj, "domain")?.to_string(),
        name: get_str(obj, "name")?.to_string(),
        span: get_u64(obj, "span").unwrap_or(0),
        trace: get_u64(obj, "trace").unwrap_or(0),
        parent: get_u64(obj, "parent").unwrap_or(0),
        stamp,
        fields,
    })
}

fn checkpoint(obj: &Object) -> Option<SegmentCheckpoint> {
    Some(SegmentCheckpoint {
        index: get_u64(obj, "checkpoint")?,
        start_seq: get_u64(obj, "start_seq")?,
        end_seq: get_u64(obj, "end_seq")?,
        chained: Digest::from_hex(get_str(obj, "chained")?)?,
    })
}

/// JSON value of the row grammar. Integer precision is kept exact; the
/// format has no arrays, booleans or nulls.
enum JsonValue {
    Object(Vec<(String, JsonValue)>),
    S(String),
    U(u128),
    I(i128),
    F(f64),
}

/// Objects a row may nest: the row and its `fields` are two; the slack
/// is for an unknown key that holds an object. A line nested deeper is
/// refused before the recursion `value → object → value` can use the
/// stack a hostile line asks for.
const MAX_DEPTH: usize = 4;

/// Hand-rolled parser for the row grammar (objects, strings, numbers;
/// no JSON dependency is available offline).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// The line as one object, or `None`.
    fn parse(s: &'a str) -> Option<Vec<(String, JsonValue)>> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        match v {
            JsonValue::Object(kv) if p.pos == p.bytes.len() => Some(kv),
            _ => None,
        }
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

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'{' => self.object(),
            b'"' => Some(JsonValue::S(self.string()?)),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.eat(b'{')?;
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.eat(b':')?;
                kv.push((key, self.value()?));
                self.skip_ws();
                match self.bytes.get(self.pos)? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        break;
                    }
                    _ => return None,
                }
            }
        }
        self.depth -= 1;
        Some(JsonValue::Object(kv))
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            let c = char::from_u32(code)?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if !float {
            if let Ok(u) = text.parse::<u128>() {
                return Some(JsonValue::U(u));
            }
            // No integer is written `-0`: only the float -0.0 prints so.
            match text.parse::<i128>() {
                Ok(0) => return Some(JsonValue::F(-0.0)),
                Ok(i) => return Some(JsonValue::I(i)),
                Err(_) => {}
            }
        }
        text.parse::<f64>().ok().map(JsonValue::F)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_told_apart_by_their_leading_key() {
        let cp = SegmentCheckpoint {
            index: 3,
            start_seq: 3072,
            end_seq: 4095,
            chained: pds2_crypto::sha256::sha256(b"c"),
        };
        assert_eq!(Row::parse(&cp.to_json()), Some(Row::Checkpoint(cp)));
        let trailer = trailer_json(4, &cp.chained);
        assert_eq!(Row::parse(&trailer), Some(Row::Trailer));
        let event = r#"{"seq":7,"kind":"point","domain":"d","name":"n","later_key":{"x":1}}"#;
        assert_eq!(peek_seq(event), Some(7));
        assert_eq!(Row::parse(event).and_then(Row::event).unwrap().seq, 7);
        assert_eq!(peek_seq(&trailer), None);
        assert_eq!(Row::parse(r#"{"kind":"point","seq":7}"#), None);
        assert_eq!(Row::parse(r#"{"checkpoint":3,"start_seq":0}"#), None);
        assert_eq!(Row::parse("[]"), None);
        assert_eq!(Row::parse(""), None);
    }

    #[test]
    fn an_event_whose_names_need_escaping_still_reads_back() {
        let e = Event {
            seq: 0,
            kind: EventKind::Point,
            domain: "do\"main",
            name: "na\\me\n",
            span: 0,
            trace: 0,
            parent: 0,
            stamp: Stamp::None,
            fields: vec![("k", Value::F64(-0.0))],
        };
        let raw = RawEvent::from(&e);
        assert_eq!((raw.domain.as_str(), raw.name.as_str()), (e.domain, e.name));
        assert_eq!(raw.to_json(), e.to_json());
        assert!(matches!(raw.fields[0].1, RawValue::F(z) if z == 0.0 && z.is_sign_negative()));
    }
}
