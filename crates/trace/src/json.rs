//! A minimal JSON reader and the trace schema check.
//!
//! The workspace is offline (no serde); exporters hand-write JSON and
//! this module closes the loop by reading it back. The parser covers the
//! full JSON grammar minus exponent-heavy corner cases we never emit
//! (it does accept `e`-notation), and the [`validate_chrome_trace`]
//! check enforces the checked-in schema
//! (`crates/trace/schema/chrome_trace.schema.json`) that CI runs against
//! real exported traces.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse a JSON document.
///
/// # Errors
/// A human-readable message with the byte offset of the first violation.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, bytes: src.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
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
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go. Both are ASCII, so the run ends on a character
                    // boundary of the (already valid) source.
                    let rest = &self.bytes[self.pos..];
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// The checked-in trace schema this crate's exporter is validated against.
pub const CHROME_TRACE_SCHEMA: &str = include_str!("../schema/chrome_trace.schema.json");

/// Counts of what a validated trace contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, metadata included.
    pub total: usize,
    /// Duration (`ph:"X"`) events.
    pub spans: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Counter (`ph:"C"`) samples.
    pub counters: usize,
    /// Metadata (`ph:"M"`) records.
    pub metadata: usize,
}

/// Validate an exported Chrome trace-event JSON document against the
/// checked-in schema: required keys per phase type, numeric/finite
/// timestamps and durations, numeric counter series, and global
/// time-ordering of non-metadata events.
///
/// # Errors
/// The first violation, as a human-readable message.
pub fn validate_chrome_trace(src: &str) -> Result<TraceStats, String> {
    let schema = parse(CHROME_TRACE_SCHEMA).expect("checked-in schema parses");
    let doc = parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("root object must carry a \"traceEvents\" array")?;
    let base_required = schema
        .get("event_required")
        .and_then(Json::as_arr)
        .ok_or("schema: event_required missing")?;
    let phases = schema.get("phases").ok_or("schema: phases missing")?;

    let mut stats = TraceStats::default();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        stats.total += 1;
        let obj = ev.as_obj().ok_or(format!("event {i}: not an object"))?;
        let _ = obj;
        for req in base_required {
            let key = req.as_str().expect("schema keys are strings");
            if ev.get(key).is_none() {
                return Err(format!("event {i}: missing required key \"{key}\""));
            }
        }
        let ph =
            ev.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: ph not a string"))?;
        let rules =
            phases.get(ph).ok_or(format!("event {i}: phase \"{ph}\" not allowed by the schema"))?;
        if let Some(required) = rules.get("required").and_then(Json::as_arr) {
            for req in required {
                let key = req.as_str().expect("schema keys are strings");
                if ev.get(key).is_none() {
                    return Err(format!("event {i} (ph {ph}): missing key \"{key}\""));
                }
            }
        }
        for key in ["ts", "dur"] {
            if let Some(v) = ev.get(key) {
                let n = v.as_f64().ok_or(format!("event {i}: {key} not numeric"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("event {i}: {key}={n} not a finite non-negative number"));
                }
            }
        }
        match ph {
            "X" => stats.spans += 1,
            "i" => stats.instants += 1,
            "C" => {
                stats.counters += 1;
                let args = ev
                    .get("args")
                    .and_then(Json::as_obj)
                    .ok_or(format!("event {i}: counter args not an object"))?;
                for (k, v) in args {
                    if v.as_f64().is_none() {
                        return Err(format!("event {i}: counter series \"{k}\" not numeric"));
                    }
                }
            }
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i}: unexpected phase \"{other}\"")),
        }
        if ph != "M" {
            let ts = ev.get("ts").and_then(Json::as_f64).expect("checked above");
            if ts < last_ts {
                return Err(format!("event {i}: ts {ts} precedes previous event ({last_ts})"));
            }
            last_ts = ts;
        }
    }
    let _ = count_tracks(events);
    Ok(stats)
}

/// Distinct `(pid, tid)` pairs among non-metadata events.
pub fn count_tracks(events: &[Json]) -> usize {
    let mut tracks: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) == Some("M") {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        *tracks.entry((pid, tid)).or_default() += 1;
    }
    tracks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, "x", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(-300.0));
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn parses_multibyte_utf8_and_escapes_in_keys_and_values() {
        let v = parse(r#"{"clé\t日本": "µs → 🚀\"q\"\u00e9\\", "k\n": ["ñ", "\/é"]}"#).unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(members[0].0, "clé\t日本");
        assert_eq!(members[0].1.as_str(), Some("µs → 🚀\"q\"é\\"));
        assert_eq!(members[1].0, "k\n");
        let arr = members[1].1.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("ñ"));
        assert_eq!(arr[1].as_str(), Some("/é"));
        assert!(parse(r#""日本"#).unwrap_err().contains("unterminated"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn schema_is_well_formed() {
        let s = parse(CHROME_TRACE_SCHEMA).unwrap();
        assert!(s.get("event_required").is_some());
        assert!(s.get("phases").and_then(|p| p.get("X")).is_some());
    }

    #[test]
    fn validator_rejects_missing_keys_and_time_travel() {
        let missing = r#"{"traceEvents": [{"ph":"X","pid":1,"tid":1,"name":"a","ts":1}]}"#;
        assert!(validate_chrome_trace(missing).unwrap_err().contains("dur"));
        let unordered = r#"{"traceEvents": [
            {"ph":"i","pid":1,"tid":1,"name":"a","cat":"t","ts":5,"s":"t"},
            {"ph":"i","pid":1,"tid":1,"name":"b","cat":"t","ts":1,"s":"t"}
        ]}"#;
        assert!(validate_chrome_trace(unordered).unwrap_err().contains("precedes"));
    }
}
