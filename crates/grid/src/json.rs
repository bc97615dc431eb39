//! A minimal, dependency-free JSON reader for the grid wire format.
//!
//! The workspace builds fully offline, so `serde_json` is unavailable;
//! this module provides the small subset the wire format needs. Three
//! properties matter more than generality:
//!
//! * **Integer exactness** — timestamps, byte counts and seeds are `u64`
//!   (sums `u128`); parsing them through `f64` would silently corrupt
//!   values above 2⁵³. Numbers without a fraction or exponent therefore
//!   parse into [`Json::Int`] (`i128`), and only the rest into
//!   [`Json::Float`].
//! * **Round-tripping floats** — the writers format `f64`s with `{:?}`
//!   (Rust's shortest-round-trip representation), so
//!   `parse(write(x)) == x` bit-for-bit for every finite float.
//! * **One linear pass** — the parser walks the input once, front to back.
//!   [`Json::parse`] takes a `&str`, so the input is already valid UTF-8:
//!   each string's unescaped runs (everything up to the next `"`, `\` or
//!   control byte, all ASCII and so always on a char boundary) are copied
//!   as whole slices, never decoded or re-validated byte by byte. Decoding
//!   costs O(frame bytes), which the size tripwire test pins down.
//!
//! Writing happens directly with `format!` in `wire`; only escaping
//! ([`escape`]) lives here so both sides agree on it.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction/exponent part, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth accepted by the parser (frames are shallow; the
/// cap only guards against stack exhaustion on corrupt input).
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// content is an error.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an exact `u128`, if it is a non-negative integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Int(i) => u128::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    /// The document; `pos` always sits on one of its char boundaries.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if integral {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|e| self.err(format!("bad integer {text:?}: {e}")))
        } else {
            let f: f64 = text
                .parse()
                .map_err(|e| self.err(format!("bad number {text:?}: {e}")))?;
            if !f.is_finite() {
                return Err(self.err(format!("non-finite number {text:?}")));
            }
            Ok(Json::Float(f))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // as one slice. All three stop bytes are ASCII, so the run
            // ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.src[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| {
                                            0x10000
                                                + ((u32::from(hi) - 0xD800) << 10)
                                                + (u32::from(lo) - 0xDC00)
                                        })
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(hi))
                            };
                            out.push(c.ok_or_else(|| self.err("bad unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control byte in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| self.err("bad unicode escape"))?;
        let v = u16::from_str_radix(text, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_integers_stay_exact() {
        let v = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // 2^53 + 1 is not representable in f64 — must stay exact.
        let tricky = (1u64 << 53) + 1;
        assert_eq!(
            Json::parse(&tricky.to_string()).unwrap().as_u64(),
            Some(tricky)
        );
        // u128 sums too.
        let big = u128::from(u64::MAX) * 3;
        assert_eq!(Json::parse(&big.to_string()).unwrap().as_u128(), Some(big));
    }

    #[test]
    fn floats_round_trip_via_debug_format() {
        for f in [1.0f64, 0.1, 1.75, 41.6e3, f64::MIN_POSITIVE, 1e300] {
            let text = format!("{f:?}");
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(f), "{text}");
        }
    }

    #[test]
    fn containers_and_lookup() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x", "a": 9}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
        // Duplicate keys: first wins.
        assert_eq!(v.get("a").unwrap().as_arr().map(<[Json]>::len), Some(3));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1F600}\u{7}";
        let text = format!("\"{}\"", escape(original));
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(original));
        // Surrogate pair escapes decode.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["", "{", "[1,", "\"x", "tru", "1.2.3", "[1] x", "nan"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
        // Lone surrogate is rejected.
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn multibyte_runs_copy_whole() {
        // Runs of 2-, 3- and 4-byte UTF-8 characters.
        let text = "aé€😀ééé€€€😀😀😀z";
        assert_eq!(
            Json::parse(&format!("\"{text}\"")).unwrap().as_str(),
            Some(text)
        );
        // Escapes directly before and after multi-byte characters.
        for (src, want) in [
            (r#""\né\t""#, "\né\t"),
            (r#""\u00e9€\"😀\\""#, "é€\"😀\\"),
            (r#""😀\/€""#, "😀/€"),
        ] {
            assert_eq!(Json::parse(src).unwrap().as_str(), Some(want), "{src}");
        }
        // A multi-byte object key.
        let v = Json::parse(r#"{"clé€": 1}"#).unwrap();
        assert_eq!(v.get("clé€"), Some(&Json::Int(1)));
    }

    #[test]
    fn surrogates_pair_or_fail() {
        assert_eq!(
            Json::parse(r#""x\ud83d\ude00y""#).unwrap().as_str(),
            Some("x\u{1F600}y")
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\u00""#,
        ] {
            let e = Json::parse(lone).unwrap_err();
            assert!(e.what.contains("unicode escape"), "{lone}: {e}");
        }
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        // A raw control byte inside a run, after a 2-byte character.
        let e = Json::parse("\"aé\u{1}b\"").unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (4, "control byte in string"));
        let e = Json::parse("[\"ok\", \"x\ny\"]").unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (9, "control byte in string"));
        // Unterminated at end of input, after a run and after an escape.
        let e = Json::parse("\"abc€").unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (7, "unterminated string"));
        let e = Json::parse(r#""a\n"#).unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (4, "unterminated string"));
        let e = Json::parse(r#""a\"#).unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (3, "dangling escape"));
        let e = Json::parse(r#""a\qb""#).unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (4, "unknown escape"));
        let e = Json::parse(r#"{"k": "v"} "x""#).unwrap_err();
        assert_eq!((e.at, e.what.as_str()), (11, "trailing content"));
    }

    #[test]
    fn empty_strings_parse() {
        assert_eq!(Json::parse(r#""""#).unwrap(), Json::Str(String::new()));
        let v = Json::parse(r#"{"": ""}"#).unwrap();
        assert_eq!(v.get(""), Some(&Json::Str(String::new())));
    }

    /// A size tripwire, not a timing test: it asserts content only. The
    /// linear parser finishes in milliseconds; a parser that rescans the
    /// rest of the input per string byte would take minutes here.
    #[test]
    fn large_documents_parse_in_one_pass() {
        let long: String = "ab€😀".repeat((1 << 20) / 9 + 1);
        assert!(long.len() >= 1 << 20);
        let doc = format!("[\"{long}\", \"tail\"]");
        let v = Json::parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(long.as_str()));
        assert_eq!(items[1].as_str(), Some("tail"));

        let keys = 50_000;
        let mut doc = String::from("{");
        for i in 0..keys {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"key{i}\":{i}"));
        }
        doc.push('}');
        let Json::Obj(fields) = Json::parse(&doc).unwrap() else {
            panic!("expected an object");
        };
        assert_eq!(fields.len(), keys);
        for (i, (k, v)) in fields.iter().enumerate() {
            assert_eq!(k, &format!("key{i}"));
            assert_eq!(v, &Json::Int(i as i128));
        }
    }

    #[test]
    fn depth_is_capped() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
