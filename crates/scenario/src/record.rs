//! The flat one-line JSON records of the suite artifacts
//! (`BENCH_scenarios*.json`, `BENCH_service*.json`): one writer and one
//! parser, shared by every outcome type that emits a record and by the
//! `--check` gate that reads them back.
//!
//! A record is one JSON object on one line whose values are strings,
//! numbers, `true`, `false` or `null` — no nesting. The writer escapes `"`,
//! `\` and every control character (as `\u00XX`), so a record never spans
//! lines whatever its strings hold; everything else, non-ASCII included, is
//! written as is. The parser reads the whole JSON string grammar back and
//! refuses anything that is not exactly one flat object, naming the column
//! where it stopped.
//!
//! ```
//! use omega_scenario::record::{self, Writer};
//!
//! let mut w = Writer::default();
//! w.str("scenario", "a,b}\t\"c\"").raw("n", 5).opt("ticks", None::<u64>);
//! let line = w.finish();
//! assert_eq!(line, r#"{"scenario":"a,b}\u0009\"c\"","n":5,"ticks":null}"#);
//! let parsed = record::parse(&line).unwrap();
//! assert_eq!(parsed.str("scenario"), Some("a,b}\t\"c\""));
//! assert_eq!(parsed.u64("n"), Some(5));
//! assert_eq!(parsed.u64("ticks"), None);
//! ```

use std::fmt::{Display, Write as _};

/// Builds one record, field by field, in the order written; start from
/// `Writer::default()`.
#[derive(Debug, Default)]
pub struct Writer(String);

impl Writer {
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        quote(&mut self.0, key);
        self.0.push(':');
        &mut self.0
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        quote(self.key(key), value);
        self
    }

    /// Appends a field whose value is written as `value` displays: a
    /// number (`format_args!` fixes its precision), `true` or `false`.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// [`raw`](Self::raw), or `null` when there is no value.
    pub fn opt(&mut self, key: &str, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(value) => self.raw(key, value),
            None => self.raw(key, "null"),
        }
    }

    /// The finished one-line record.
    #[must_use]
    pub fn finish(self) -> String {
        let open = if self.0.is_empty() { "{" } else { "" };
        format!("{open}{}}}", self.0)
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One field value of a parsed record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, unescaped.
    Str(String),
    /// A number, `true`, `false` or `null`, as written (so counters above
    /// 2⁵³ stay exact).
    Literal(String),
}

/// A parsed record: its fields in the order they were written.
#[derive(Debug, Clone, PartialEq)]
pub struct Record(Vec<(String, Value)>);

impl Record {
    /// The value of `key`, if the record has that field.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The fields in the order they were written.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The string field `key`.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            Value::Literal(_) => None,
        }
    }

    /// Whether the field `key` is `null`.
    #[must_use]
    pub fn is_null(&self, key: &str) -> bool {
        matches!(self.get(key), Some(Value::Literal(l)) if l == "null")
    }

    /// The field `key` as a count: `None` when absent, `null`, or not a
    /// non-negative integer.
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.literal(key)?.parse().ok()
    }

    /// The numeric field `key`.
    #[must_use]
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.literal(key)?.parse().ok()
    }

    fn literal(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Literal(l) => Some(l),
            Value::Str(_) => None,
        }
    }
}

/// Parses one record line, surrounding whitespace allowed.
///
/// # Errors
///
/// Anything but exactly one flat JSON object — bad syntax, a nested value,
/// a duplicate key, trailing text — is refused with what was expected and
/// the 1-based byte column where the parser stopped.
pub fn parse(line: &str) -> Result<Record, String> {
    let mut p = Parser { text: line, at: 0 };
    let mut fields: Vec<(String, Value)> = Vec::new();
    p.expect(b'{')?;
    if !p.eat(b'}') {
        loop {
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(p.error(&format!("duplicate field {key:?}")));
            }
            p.expect(b':')?;
            fields.push((key, p.value()?));
            if p.eat(b'}') {
                break;
            }
            p.expect(b',')?;
        }
    }
    p.skip_ws();
    if p.at < line.len() {
        return Err(p.error("text after the record"));
    }
    Ok(Record(fields))
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, what: &str) -> String {
        format!("{what} at column {}", self.at + 1)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Advances over the bytes `pred` accepts. Every caller's `pred`
    /// rejects some ASCII byte, or accepts only ASCII, so the run ends on a
    /// character boundary.
    fn run(&mut self, pred: impl Fn(u8) -> bool) -> &'a str {
        let start = self.at;
        while self.peek().is_some_and(&pred) {
            self.at += 1;
        }
        &self.text[start..self.at]
    }

    fn skip_ws(&mut self) {
        self.run(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        let hit = self.eat(byte);
        hit.then_some(())
            .ok_or_else(|| self.error(&format!("expected `{}`", byte as char)))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            return self.string().map(Value::Str);
        }
        let start = self.at;
        let literal = self.run(|b| b.is_ascii_alphanumeric() || b"+-.".contains(&b));
        let digits = literal.trim_start_matches('-');
        let number =
            digits.starts_with(|c: char| c.is_ascii_digit()) && literal.parse::<f64>().is_ok();
        if number || matches!(literal, "null" | "true" | "false") {
            return Ok(Value::Literal(literal.to_string()));
        }
        self.at = start;
        Err(self.error("expected a string, number, true, false or null"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            out.push_str(self.run(|b| b != b'"' && b != b'\\' && b >= 0x20));
            let byte = self.peek();
            match byte {
                Some(b'"' | b'\\') => self.at += 1,
                Some(_) => return Err(self.error("raw control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
            if byte == Some(b'"') {
                return Ok(out);
            }
            out.push(self.escape()?);
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let byte = self.peek();
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| Some(e) == byte) {
            self.at += 1;
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        let hex = self.text.get(self.at + 1..self.at + 5).unwrap_or("");
        let code = (byte == Some(b'u') && hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .then(|| u32::from_str_radix(hex, 16).ok())
            .flatten()
            .and_then(char::from_u32)
            .ok_or_else(|| {
                self.error("unknown escape, or not four hex digits of a scalar value")
            })?;
        self.at += 5;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_string_round_trips_on_one_line() {
        let names = [
            "",
            "plain",
            "a,b",
            "x}y",
            "k\":\"v",
            "back\\slash",
            "tab\there",
            "new\nline\r",
            "\u{0}\u{1f}\u{7f}",
            "ünï€ode 🦀",
            "\\u0009",
        ];
        for name in names {
            let mut w = Writer::default();
            w.str("scenario", name).str(name, "key too").raw("n", 1);
            let line = w.finish();
            assert!(!line.contains('\n'), "{line}");
            let parsed = parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.str("scenario"), Some(name));
            assert_eq!(parsed.str(name), Some("key too"));
            assert_eq!(parsed.u64("n"), Some(1));
        }
    }

    #[test]
    fn values_keep_their_kind() {
        let r = parse(
            r#" {"a":null,"b":true,"c":false,"d":-1.5e3,"e":18446744073709551615,"f":"\/\b\f"} "#,
        )
        .unwrap();
        assert!(r.is_null("a") && !r.is_null("b") && !r.is_null("missing"));
        assert_eq!(r.get("b"), Some(&Value::Literal("true".into())));
        assert_eq!(r.get("c"), Some(&Value::Literal("false".into())));
        assert_eq!(r.str("c"), None, "a literal is not a string");
        assert_eq!(r.f64("d"), Some(-1500.0));
        assert_eq!(r.u64("d"), None, "not a count");
        assert_eq!(r.u64("e"), Some(u64::MAX), "exact above 2^53");
        assert_eq!(r.str("f"), Some("/\u{8}\u{c}"));
        assert_eq!(r.u64("f"), None, "a string is not a count");
        assert_eq!(r.u64("a"), None);
        assert_eq!(r.get("missing"), None);
        assert_eq!(parse("{}").unwrap(), Record(Vec::new()));
    }

    #[test]
    fn malformed_lines_are_refused_with_a_column() {
        for (line, column) in [
            ("", 1),
            ("[", 1),
            ("{\"a\":1", 7),
            ("{\"a\":1,}", 8),
            ("{\"a\":oops}", 6),
            ("{\"a\":{}}", 6),
            ("{\"a\":[1]}", 6),
            ("{\"a\":1}x", 8),
            ("{\"a\":1,\"a\":2}", 11),
            ("{\"a\":\"x", 8),
            ("{\"a\":\"\t\"}", 7),
            ("{\"a\":\"\\q\"}", 8),
            ("{\"a\":\"\\u+01f\"}", 8),
            ("{\"a\":\"\\ud800\"}", 8),
            ("{\"a\":1-2}", 6),
            ("{\"a\":-inf}", 6),
            ("{\"a\":nan}", 6),
            ("{\"a\":nul}", 6),
            ("{a:1}", 2),
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.ends_with(&format!("at column {column}")),
                "{line:?}: {err}"
            );
        }
    }
}
