//! A minimal JSON value type, writer, and parser.
//!
//! The build environment has no crates.io access, so result persistence
//! cannot lean on serde; this module provides the small, dependency-free
//! JSON kernel the bench crate's [`ResultStore`] serializes through.
//!
//! Two deliberate extensions over strict JSON, both needed to round-trip
//! simulator metrics exactly:
//!
//! - Integers are kept as [`Json::UInt`] (`u128`) rather than being
//!   forced through `f64`, so large counters survive unchanged.
//! - Non-finite floats — projected lifetimes can legitimately be
//!   infinite — are written as the strings `"inf"`, `"-inf"` and
//!   `"nan"`, and [`Json::as_f64`] coerces those strings back.
//!
//! [`ResultStore`]: https://docs.rs/mellow-bench

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number carrying a fractional part or sign.
    Num(f64),
    /// A non-negative integer, kept exact.
    UInt(u128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v as u128)
    }
}

impl From<u128> for Json {
    fn from(v: u128) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u128)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the value as `f64`: numbers directly, integers converted,
    /// and the non-finite marker strings coerced.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// Returns the value as `u64` when it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => u64::try_from(*v).ok(),
            Json::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Returns the value as `u128` when it is an integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => self.as_u64().map(u128::from),
        }
    }

    /// Returns the value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` is the shortest representation that parses
                    // back to the identical f64.
                    write!(f, "{v:?}")
                } else if v.is_nan() {
                    f.write_str("\"nan\"")
                } else if *v > 0.0 {
                    f.write_str("\"inf\"")
                } else {
                    f.write_str("\"-inf\"")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Types that map to and from a single [`Json`] value.
///
/// Implemented for the scalar types experiment metrics are built from;
/// stats structs in other crates implement it for themselves (the trait
/// lives here, the type there, so coherence is satisfied) by listing
/// their fields once in [`impl_json_fields!`].
///
/// [`impl_json_fields!`]: crate::impl_json_fields
pub trait JsonField: Sized {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;
    /// Converts back, returning `None` on a type or range mismatch.
    fn from_json(v: &Json) -> Option<Self>;
}

impl JsonField for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u128)
    }
    fn from_json(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl JsonField for u128 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
    fn from_json(v: &Json) -> Option<u128> {
        v.as_u128()
    }
}

impl JsonField for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u128)
    }
    fn from_json(v: &Json) -> Option<usize> {
        v.as_u64().and_then(|n| usize::try_from(n).ok())
    }
}

impl JsonField for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<f64> {
        v.as_f64()
    }
}

impl JsonField for crate::CoreCycles {
    fn to_json(&self) -> Json {
        self.count().to_json()
    }
    fn from_json(v: &Json) -> Option<crate::CoreCycles> {
        v.as_u64().map(crate::CoreCycles::new)
    }
}

impl JsonField for crate::MemCycles {
    fn to_json(&self) -> Json {
        self.count().to_json()
    }
    fn from_json(v: &Json) -> Option<crate::MemCycles> {
        v.as_u64().map(crate::MemCycles::new)
    }
}

impl JsonField for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Option<bool> {
        v.as_bool()
    }
}

impl JsonField for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Option<String> {
        v.as_str().map(str::to_owned)
    }
}

impl<T: JsonField> JsonField for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(JsonField::to_json).collect())
    }
    fn from_json(v: &Json) -> Option<Vec<T>> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

/// Implements [`JsonField`] for a struct from one list of its fields:
/// `to_json` writes a JSON object with the fields in list order, and
/// `from_json` rebuilds the struct, returning `None` if any field is
/// missing or mistyped. `from_json` is a struct literal, so a list that
/// misses a field does not compile.
///
/// ```
/// use mellow_engine::json::JsonField;
///
/// #[derive(Debug, PartialEq)]
/// struct HitStats {
///     hits: u64,
///     ratio: f64,
/// }
/// mellow_engine::impl_json_fields!(HitStats { hits, ratio });
///
/// let s = HitStats { hits: 3, ratio: 0.5 };
/// assert_eq!(s.to_json().to_string(), r#"{"hits":3,"ratio":0.5}"#);
/// assert_eq!(HitStats::from_json(&s.to_json()), Some(s));
/// ```
#[macro_export]
macro_rules! impl_json_fields {
    ($t:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::json::JsonField for $t {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($f).to_owned(), $crate::json::JsonField::to_json(&self.$f)),)+
                ])
            }

            fn from_json(v: &$crate::json::Json) -> Option<$t> {
                Some($t {
                    $($f: $crate::json::JsonField::from_json(v.get(stringify!($f))?)?,)+
                })
            }
        }
    };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the unescaped run in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // identifiers this module stores.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u128>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "-1.5", "3.25"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = u64::MAX;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string(), big.to_string());
        let huge = u128::MAX;
        assert_eq!(
            Json::parse(&huge.to_string()).unwrap().as_u128(),
            Some(huge)
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, 5e-324, f64::MAX] {
            let text = Json::Num(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn non_finite_floats_use_marker_strings() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "\"inf\"");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "\"-inf\"");
        assert_eq!(Json::Num(f64::NAN).to_string(), "\"nan\"");
        assert_eq!(
            Json::parse("\"inf\"").unwrap().as_f64(),
            Some(f64::INFINITY)
        );
        assert!(Json::parse("\"nan\"").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn objects_preserve_order_and_lookup() {
        let v = Json::obj([("b", 1u64), ("a", 2u64)]);
        assert_eq!(v.to_string(), "{\"b\":1,\"a\":2}");
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let text = Json::Str(nasty.to_owned()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn arrays_nest() {
        let v: Json = vec![Json::from(1u64), Json::from("x"), Json::Null].into();
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 3);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }
}
