//! Minimal dependency-free JSON: an emitter plus a small recursive-descent
//! parser. Shared by the bench harness (`BENCH_*.json` perf baselines and
//! their `--validate` checks), the trace reports, and the serving layer's
//! `/metrics` endpoint — all of which need stable, diffable output without
//! pulling in an external crate.
//!
//! This is deliberately not a general JSON library: it supports exactly
//! the subset those files use (objects, arrays, strings without exotic
//! escapes, finite numbers, booleans, null) and keeps object keys in
//! insertion order so emitted files are stable and diffable.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser. The parser is
/// recursive-descent, and `/metrics`-adjacent callers feed it untrusted
/// HTTP bodies — without a cap, a few hundred KiB of `[` overflows the
/// handler thread's stack and aborts the process.
const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the emitter rejects NaN/infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a finite number. Panics on NaN/infinite input — a
    /// perf baseline with unrepresentable numbers is a bug upstream.
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        Json::Num(v)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `.`-separated path of object keys.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on one line with no whitespace: the form the server sends.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact form (see [`Json::render_compact`]) to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// The one writer behind both forms: `indent` is the nesting depth
    /// when pretty-printing, `None` for compact output. Writing to a
    /// `String` cannot fail, so the `fmt::Result`s are ignored.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // Integers print without a fractional part; everything else
                // as the shortest f64 that parses back to the same f64. The
                // server widens each f32 forecast value to f64 first rather
                // than printing the shortest f32: an exhaustive check of all
                // finite f32 values found that the shortest-f32 text of
                // exactly ±f32::from_bits(0x15ae43fd) (7.038531e-26) parses
                // to an f64 that rounds to a different f32, and every client
                // (the tests, the bench) reads numbers as f64 then casts.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Obj(pairs) => write_seq(out, indent, ['{', '}'], pairs, |out, (k, v), inner| {
                write_str(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.write(out, inner);
            }),
        }
    }

    /// Parses JSON text. Errors carry a byte offset and message.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an array or object: `brackets` around `items`, comma-separated,
/// each item on its own line one level deeper when pretty-printing.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(brackets[0]);
    let inner = indent.map(|depth| depth + 1);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        item(out, it, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

/// A line break plus `depth` levels of two-space padding; nothing when
/// writing compact output.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {}, found {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
            *pos
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&c| c as char),
            *pos
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("bad escape {:?} at byte {}", other, *pos));
                    }
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through unchanged.
                let s = &bytes[*pos..];
                let ch_len = match s[0] {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                    .map_err(|e| format!("bad UTF-8 at byte {}: {e}", *pos))?;
                out.push_str(chunk);
                *pos += chunk.len();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected `,` or `]` at byte {}, found {:?}",
                    *pos,
                    other.map(|&c| c as char)
                ));
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            other => {
                return Err(format!(
                    "expected `,` or `}}` at byte {}, found {:?}",
                    *pos,
                    other.map(|&c| c as char)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_shape() {
        let doc = Json::obj(vec![
            ("schema", Json::str("timekd-kernel-bench/v7")),
            ("created_unix_s", Json::num(1_722_000_000.0)),
            ("quick", Json::Bool(true)),
            (
                "kernels",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("mm_256x256x256")),
                    ("serial_ms", Json::num(12.5)),
                    ("speedup_parallel", Json::num(3.02)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed
                .get_path("kernels")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            parsed.get_path("schema").and_then(Json::as_str),
            Some("timekd-kernel-bench/v7")
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(4.0).render(), "4\n");
        assert_eq!(Json::num(0.25).render(), "0.25\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // 100k nested arrays fits well under the 1 MiB serve body cap but
        // would blow the stack without the depth limit.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).expect_err("must be rejected");
        assert!(err.contains("nesting deeper"), "got {err}");

        // Object nesting is bounded by the same cap.
        let nested_obj = "{\"k\":".repeat(1_000) + "1" + &"}".repeat(1_000);
        let err = Json::parse(&nested_obj).expect_err("must be rejected");
        assert!(err.contains("nesting deeper"), "got {err}");

        // Depth at or below the cap still parses.
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = Json::str("line\nquote\" back\\slash\ttab");
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        // The serving layer relies on f32 → JSON → f32 round-trips being
        // exact: Rust's shortest-repr float printing plus an f64 parse
        // recovers the original f32 bit pattern.
        for bits in [0x3f80_0001u32, 0xbf7f_fffe, 0x0000_0001, 0x7f7f_ffff] {
            let v = f32::from_bits(bits);
            let doc = Json::num(v as f64);
            let parsed = Json::parse(&doc.render()).expect("parse");
            let back = parsed.as_num().expect("num") as f32;
            assert_eq!(back.to_bits(), bits, "f32 {v} must survive the trip");
        }
    }

    #[test]
    fn compact_form_has_no_whitespace_and_parses_back() {
        let doc = Json::obj(vec![
            (
                "a",
                Json::Arr(vec![Json::num(1.0), Json::num(-0.5), Json::Null]),
            ),
            (
                "b",
                Json::obj(vec![("c d", Json::str("x\ty")), ("e", Json::Bool(false))]),
            ),
            ("f", Json::Arr(vec![])),
            ("g", Json::Obj(vec![])),
        ]);
        let text = doc.render_compact();
        assert_eq!(
            text,
            r#"{"a":[1,-0.5,null],"b":{"c d":"x\ty","e":false},"f":[],"g":{}}"#
        );
        assert_eq!(Json::parse(&text).expect("parse"), doc);
        let mut appended = String::from("prefix ");
        doc.write_compact(&mut appended);
        assert_eq!(appended, format!("prefix {text}"));
    }

    #[test]
    fn pretty_render_of_committed_files_is_byte_identical() {
        // Both files were written by the pretty printer; re-rendering their
        // parse must reproduce them exactly.
        for text in [
            include_str!("../../../BENCH_1786121401.json"),
            include_str!("../../../tests/fixtures/golden_trace.json"),
        ] {
            let doc = Json::parse(text).expect("parse");
            assert!(doc.render() == text, "pretty render drifted from the file");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_is_rejected_at_build_time() {
        let _ = Json::num(f64::NAN);
    }
}
