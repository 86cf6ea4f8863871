//! The workspace's JSON: one value type with its recursive-descent
//! parser, and one streaming [`Writer`].
//!
//! The build is fully offline (no registry crates), so both sides are
//! sized to their consumers. Every JSON document the workspace produces
//! — the sweep reports, `cedar-fuzz-v1` and its shards, crash bundles,
//! the `cedar-serve` and campaign wire replies, the campaign's state
//! rows (DESIGN.md, "JSON documents", lists them) — is written through
//! [`Writer`], and every one it consumes is read through [`Json`]. This
//! module is therefore the only place that knows how a string is
//! escaped, where a comma goes, that `None` and a non-finite float are
//! `null`, and that an integer read from outside must be exact
//! ([`Json::u64_at`]); `tests/json_bytes.rs` fails on a hand-spelled
//! key anywhere else under `crates/*/src`.
//!
//! The parser is a strict subset parser: objects, arrays, strings (with
//! the standard escapes incl. `\uXXXX`), numbers, bools, null. It
//! started life as `cedar-serve`'s request-body reader and moved here
//! when the campaign coordinator needed it too; the service re-exports
//! it unchanged. The writer is not a value tree: `Json::Num(f64)`
//! cannot carry the `{}` / `{:.3}` / `{:e}` / exact-`u64` spellings the
//! pinned bytes need, so numbers are written with the caller's
//! spelling straight into the output.

use std::fmt::{self, Display, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Member `key` as a string.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.get(key).and_then(Json::as_str).ok_or_else(|| format!("`{key}` (string) is required"))
    }

    /// Member `key` as an unsigned integer: the one rule by which a
    /// number from outside becomes an index or a count. It must be one
    /// exactly (non-negative, integral, at most 2^53): `-1`, `1.9` and
    /// `1e30` are refused, not rounded or saturated.
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        let n = self.get(key).and_then(Json::as_f64);
        let n = n.ok_or_else(|| format!("`{key}` (unsigned integer) is required"))?;
        let exact = n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64;
        exact.then_some(n as u64).ok_or_else(|| format!("`{key}` = {n} is not an exact unsigned integer"))
    }

    /// Member `key` as an array.
    pub fn arr_at(&self, key: &str) -> Result<&[Json], String> {
        self.get(key).and_then(Json::as_arr).ok_or_else(|| format!("`{key}` (array) is required"))
    }

    /// Member `key` as an array of strings.
    pub fn strs_at(&self, key: &str) -> Result<Vec<String>, String> {
        let strs = self.arr_at(key)?.iter().map(|s| s.as_str().map(str::to_string));
        strs.collect::<Option<_>>().ok_or_else(|| format!("`{key}` entries must be strings"))
    }
}

/// Streaming JSON writer: every document, wire reply and stored row
/// of the workspace is written through one, piece by piece into one
/// `String`. It owns the comma, the quoting and the spelling of absence
/// (`None` and a non-finite float are `null`), in two layouts chosen by
/// which container is opened and by nothing else:
///
/// * **inline** — [`obj`](Writer::obj) / [`arr`](Writer::arr):
///   `{"k": v, "k": v}`, `[a, b]`;
/// * **document** — [`Writer::document`] puts each member on its own
///   2-space line ([`and_key`](Writer::and_key) keeps one on the line
///   before) and ends `\n}\n`; in it [`rows`](Writer::rows) and
///   [`row_obj`](Writer::row_obj) put each element on a 4-space line
///   and close on a 2-space one, or print `[]` / `{}` when empty.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Open containers, innermost last.
    open: Vec<Open>,
    /// A key was just written: the next value follows it directly.
    keyed: bool,
}

struct Open {
    close: &'static str,
    /// Indent of the one-per-line elements; 0 = inline.
    indent: usize,
    len: usize,
}

impl Writer {
    /// A writer with nothing open: the next value is the whole output.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer with the document object open.
    pub fn document() -> Writer {
        let mut w = Writer::new();
        w.begin('{', "}\n", 2);
        w
    }

    /// The text. Closes the outermost container if it is still open.
    pub fn finish(mut self) -> String {
        if self.open.len() == 1 {
            self.end();
        }
        debug_assert!(self.open.is_empty() && !self.keyed, "unfinished JSON: {}", self.out);
        self.out
    }

    /// The separator before the next key or element.
    fn sep(&mut self, same_line: bool) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some(o) = self.open.last_mut() else { return };
        if o.len > 0 {
            self.out.push(',');
        }
        if o.indent > 0 && !(same_line && o.len > 0) {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', o.indent));
        } else if o.len > 0 {
            self.out.push(' ');
        }
        o.len += 1;
    }

    fn begin(&mut self, open: char, close: &'static str, indent: usize) -> &mut Self {
        self.sep(false);
        self.out.push(open);
        self.open.push(Open { close, indent, len: 0 });
        self
    }

    /// Open an inline object.
    pub fn obj(&mut self) -> &mut Self {
        self.begin('{', "}", 0)
    }

    /// Open an inline array.
    pub fn arr(&mut self) -> &mut Self {
        self.begin('[', "]", 0)
    }

    /// Open an array of one element per line (a document member).
    pub fn rows(&mut self) -> &mut Self {
        self.begin('[', "]", 4)
    }

    /// Open an object of one member per line (a document member).
    pub fn row_obj(&mut self) -> &mut Self {
        self.begin('{', "}", 4)
    }

    /// Close the innermost container.
    pub fn end(&mut self) -> &mut Self {
        let o = self.open.pop().expect("end() closes a container that was opened");
        if o.indent > 0 && o.len > 0 {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', o.indent - 2));
        }
        self.out.push_str(o.close);
        self
    }

    /// The next member's key; its value follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member(key, false)
    }

    /// [`key`](Writer::key), kept on the previous member's line.
    pub fn and_key(&mut self, key: &str) -> &mut Self {
        self.member(key, true)
    }

    fn member(&mut self, key: &str, same_line: bool) -> &mut Self {
        self.sep(same_line);
        self.quoted(key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    fn quoted(&mut self, s: impl Display) {
        self.out.push('"');
        let _ = write!(Escaped(&mut self.out), "{s}");
        self.out.push('"');
    }

    /// A string value: what `s` displays, escaped.
    pub fn str(&mut self, s: impl Display) -> &mut Self {
        self.sep(false);
        self.quoted(s);
        self
    }

    /// A value another writer already rendered, exactly as it displays.
    pub fn raw(&mut self, json: impl Display) -> &mut Self {
        self.sep(false);
        let _ = write!(self.out, "{json}");
        self
    }

    /// An integer value, as it displays.
    pub fn int(&mut self, n: impl Display) -> &mut Self {
        self.raw(n)
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(b)
    }

    /// A float `x` as the caller spells it (`format_args!("{x:.3}")`),
    /// or `null` when it is not finite.
    pub fn float(&mut self, x: f64, spelled: fmt::Arguments<'_>) -> &mut Self {
        if x.is_finite() { self.raw(spelled) } else { self.raw("null") }
    }

    /// `null` for `None`, else the value as `write` writes it:
    /// `w.opt(bundle, Writer::str)`.
    pub fn opt<T>(
        &mut self,
        v: Option<T>,
        write: impl for<'a> FnOnce(&'a mut Self, T) -> &'a mut Self,
    ) -> &mut Self {
        match v {
            Some(v) => write(self, v),
            None => self.raw("null"),
        }
    }

    /// An inline array of strings.
    pub fn strs<S: Display>(&mut self, items: impl IntoIterator<Item = S>) -> &mut Self {
        self.arr();
        for s in items {
            self.str(s);
        }
        self.end()
    }
}

/// `{"ok": true}`: the fixed replies of both wire protocols.
pub fn flags(members: &[(&str, bool)]) -> String {
    let mut w = Writer::new();
    w.obj();
    for (key, value) in members {
        w.key(key).bool(*value);
    }
    w.finish()
}

/// Escapes what is written through it for a JSON string literal: `\"`,
/// `\\`, `\n`, `\u00XX` for the other control characters.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut from = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                0..=0x1f => "",
                _ => continue,
            };
            self.0.push_str(&s[from..i]);
            self.0.push_str(esc);
            if esc.is_empty() {
                write!(self.0, "\\u{b:04x}")?;
            }
            from = i + 1;
        }
        self.0.push_str(&s[from..]);
        Ok(())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
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
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape `{hex}`: {e}"))?;
                            self.pos += 4;
                            // Surrogate pairs are rejected rather than
                            // combined; Fortran source is ASCII anyway.
                            out.push(
                                char::from_u32(cp)
                                    .ok_or(format!("\\u{hex} is not a scalar value"))?,
                            );
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so a run of what arrived as `&str` ends on
                    // a character boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|b| matches!(b, b'"' | b'\\')).unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                    out.push_str(run);
                    self.pos += len;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
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
            let value = self.value()?;
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(
            r#"{"source": "do 10 i = 1,\n10 continue", "validate": true,
                "watch": ["a1", "s2"], "deadline_ms": 1500.5, "x": null}"#,
        )
        .unwrap();
        assert_eq!(v.get("source").unwrap().as_str().unwrap(), "do 10 i = 1,\n10 continue");
        assert_eq!(v.get("validate").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("deadline_ms").unwrap().as_f64(), Some(1500.5));
        assert!(v.get("x").unwrap().is_null());
        let watch: Vec<&str> =
            v.get("watch").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
        assert_eq!(watch, vec!["a1", "s2"]);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip_through_the_repo_writer() {
        let original = "line1\nline2\t\"quoted\" \\ \u{1}\r \u{1F980} end";
        let mut w = Writer::new();
        w.obj().key(original).str(original);
        let body = w.finish();
        assert!(body.contains("\\u0009\\\"quoted\\\" \\\\ \\u0001\\u000d \u{1F980}"), "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get(original).unwrap().as_str().unwrap(), original);
    }

    #[test]
    fn multi_byte_scalars_round_trip_beside_escapes_and_at_the_end() {
        // Two, three and four bytes, each next to an escape and each as
        // the last thing in the string and in the document.
        for original in [
            "\"é\\é\né",
            "\n€\"€\\€",
            "\\\u{1F980}\n\u{1F980}\"\u{1F980}",
            "é€\u{1F980}\u{1}é€\u{1F980}",
        ] {
            let mut w = Writer::new();
            w.str(original);
            let body = w.finish();
            assert!(body.ends_with(&format!("{}\"", original.chars().last().unwrap())), "{body}");
            assert_eq!(Json::parse(&body).unwrap().as_str(), Some(original), "{body}");
        }
        assert!(Json::parse("\"é").is_err(), "unterminated after a two-byte scalar");
    }

    #[test]
    fn a_long_string_parses_in_one_pass() {
        // 2 MB of source text in one member. Validating the rest of the
        // document once per character made this 10^12 bytes of UTF-8
        // checks; that this test finishes is the gate.
        let line = "      a(i) = b(i) + 1.5 ! é\n";
        let source = line.repeat((2 << 20) / line.len() + 1);
        let mut w = Writer::new();
        w.obj().key("source").str(&source).key("validate").bool(true);
        let v = Json::parse(&w.finish()).unwrap();
        assert_eq!(v.str_at("source").unwrap(), source);
        assert_eq!(v.get("validate").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn the_two_layouts() {
        let mut w = Writer::new();
        w.obj().key("a").int(1).key("b").arr().float(0.5, format_args!("{:.3}", 0.5));
        w.float(f64::NAN, format_args!("NaN")).end();
        w.key("c").opt(None::<&str>, Writer::str).key("d").opt(Some("x"), Writer::str);
        assert_eq!(w.finish(), r#"{"a": 1, "b": [0.500, null], "c": null, "d": "x"}"#);

        let mut w = Writer::document();
        w.key("n").int(2).and_key("m").float(1.5, format_args!("{}", 1.5));
        w.key("none").rows().end();
        w.key("rows").rows();
        w.obj().key("k").bool(true).end().strs(["s"]).end();
        w.key("map").row_obj().key("x").obj().end().end();
        assert_eq!(
            w.finish(),
            "{\n  \"n\": 2, \"m\": 1.5,\n  \"none\": [],\n  \"rows\": [\n    {\"k\": true},\n    \
             [\"s\"]\n  ],\n  \"map\": {\n    \"x\": {}\n  }\n}\n"
        );
    }

    #[test]
    fn integers_from_outside_are_exact_or_refused() {
        let v = Json::parse(r#"{"a": 7, "b": -1, "c": 1.9, "d": 1e30, "e": "7", "f": 9007199254740992}"#)
            .unwrap();
        assert_eq!(v.u64_at("a"), Ok(7));
        assert_eq!(v.u64_at("f"), Ok(1 << 53));
        for key in ["b", "c", "d"] {
            let e = v.u64_at(key).unwrap_err();
            assert!(e.contains("not an exact unsigned integer"), "{key}: {e}");
        }
        assert!(v.u64_at("e").unwrap_err().contains("is required"));
        assert!(v.u64_at("missing").unwrap_err().contains("`missing`"));
        assert!(v.strs_at("a").is_err() && v.str_at("a").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"a\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("aAé"));
        assert!(Json::parse("\"\\ud800\"").is_err(), "lone surrogate rejected");
    }
}
