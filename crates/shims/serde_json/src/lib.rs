//! Offline shim for `serde_json`.
//!
//! Re-exports the value model from the `serde` shim and adds the pieces the
//! real crate provides on top: a JSON text parser, compact and pretty
//! printers, the `json!` macro, and the `to_*`/`from_*` conversion entry
//! points used across this workspace.
//!
//! Both directions do linear work once. Printing goes through
//! `serde::Serialize::write_json`, the by-reference half of `to_json`: a
//! [`Value`] is printed from where it is, straight into the output. Parsing
//! goes through `serde::Deserialize::from_json_owned`, the by-value half of
//! `from_json`: `from_str::<Value>` returns the tree the parser built. The
//! parser takes untrusted bytes (request bodies, journal frames): it never
//! panics, copies each string run once, and refuses nesting deeper than
//! 128 (`MAX_DEPTH`) instead of recursing until the stack ends.

use std::fmt::{self, Write as _};
use std::io;

pub use serde::value::{Map, Number, Value};

/// Append the JSON string literal of `s` — the escaping the printers use,
/// for callers that write JSON text around borrowed strings.
#[doc(hidden)]
pub use serde::value::write_escaped;

/// Error raised by parsing or conversion.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

/// The printer failed without an I/O error behind it: a `fmt::Write` sink
/// refused, which `String` never does.
impl From<fmt::Error> for Error {
    fn from(_: fmt::Error) -> Error {
        Error::msg("formatter error")
    }
}

/// `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ------------------------------------------------------------ conversions

/// Serialize any `Serialize` value into a [`Value`] tree.
///
/// Takes the value by value, as serde_json does; pass a reference for
/// borrowed data (`&T: Serialize` holds whenever `T: Serialize`).
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.to_json())
}

/// Rebuild a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T> {
    T::from_json_owned(value).map_err(Error::from)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out)?;
    Ok(out)
}

/// Serialize to an indented JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_json(), 0, &mut out)?;
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Serialize as compact JSON into an I/O stream (a `&mut Vec<u8>` is one).
pub fn to_writer<W: io::Write, T: serde::Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    /// The printer speaks `fmt::Write`; this keeps the I/O error it hides.
    struct Utf8<W> {
        inner: W,
        failed: Option<io::Error>,
    }
    impl<W: io::Write> fmt::Write for Utf8<W> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.inner.write_all(s.as_bytes()).map_err(|e| {
                self.failed = Some(e);
                fmt::Error
            })
        }
    }
    let mut out = Utf8 {
        inner: writer,
        failed: None,
    };
    value.write_json(&mut out).map_err(|e| match out.failed {
        Some(io) => Error::msg(format!("write failed: {io}")),
        None => e.into(),
    })
}

/// Parse a typed value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    T::from_json_owned(parse(s)?).map_err(Error::from)
}

/// Parse a typed value from JSON bytes (must be UTF-8).
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------- printer

fn write_pretty(v: &Value, depth: usize, out: &mut String) -> fmt::Result {
    const INDENT: &str = "  ";
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&INDENT.repeat(depth + 1));
                write_pretty(item, depth + 1, out)?;
            }
            out.push('\n');
            out.push_str(&INDENT.repeat(depth));
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&INDENT.repeat(depth + 1));
                write_escaped(k, out)?;
                out.push_str(": ");
                write_pretty(item, depth + 1, out)?;
            }
            out.push('\n');
            out.push_str(&INDENT.repeat(depth));
            out.push('}');
        }
        other => write!(out, "{other}")?,
    }
    Ok(())
}

// ----------------------------------------------------------------- parser

/// Deepest array/object nesting the parser follows. Redfish documents nest
/// a handful of levels; a request body of 100 000 `[` would otherwise
/// recurse once per byte and end the process with a stack overflow. The cap
/// is on the text, whoever wrote it: a service that wraps stored documents
/// in its own frames must accept documents shallower than this.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; `bytes` is the same memory, for byte-wise scanning.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of input"))
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!("expected {:?} at offset {}", b as char, self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::String),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::msg(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::msg(format!(
                "unexpected character {:?} at offset {}",
                other as char, self.pos
            ))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected ',' or ']' at offset {}, got {:?}",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut m = Map::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(Error::msg(format!("expected object key at offset {}", self.pos)));
            }
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            m.insert(key, val);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected ',' or '}}' at offset {}, got {:?}",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape whole. The input
            // is a `&str` and both delimiters are ASCII, so the run is
            // valid UTF-8 cut on char boundaries: nothing is re-validated.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::msg("unterminated string"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::msg("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => out.push(self.unicode_escape()?),
                other => return Err(Error::msg(format!("invalid escape \\{}", other as char))),
            }
        }
    }

    /// The scalar a `\uXXXX` escape names (the `\u` is consumed already),
    /// joining a high surrogate with the low-surrogate escape that must
    /// follow it.
    fn unicode_escape(&mut self) -> Result<char> {
        let mut cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(Error::msg("lone surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(Error::msg("lone surrogate"));
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        // A low surrogate on its own is not a scalar either.
        char::from_u32(cp).ok_or_else(|| Error::msg("lone surrogate"))
    }

    /// Exactly four hex digits (`from_str_radix` alone would take `+041`).
    fn hex4(&mut self) -> Result<u32> {
        let bad = || Error::msg("invalid \\u escape");
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(bad)?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| bad())
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // ASCII on both sides of the cut.
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from_u64(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from_i64(n)));
            }
        }
        // `1e999` parses to infinity, which has no JSON form to print.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::Float(f))),
            _ => Err(Error::msg(format!("invalid number {text:?}"))),
        }
    }
}

// ------------------------------------------------------------------ json!

/// Build a [`Value`] from JSON-ish syntax, `serde_json::json!` style.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`]: a tt-muncher in the style of the
/// real serde_json macro.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // ---- arrays ----
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ---- objects ----
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    // ---- entry points ----
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut __object = $crate::Map::new();
            $crate::json_internal!(@object __object () ($($tt)+) ($($tt)+));
            __object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value is serializable")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested() {
        let v = json!({"a": [1, 2.5, "x"], "b": {"c": null, "d": true}, "n": -4});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn macro_handles_expressions() {
        let id = "cn01".to_string();
        let n = 3u64;
        let v = json!({"Id": id.as_str(), "Count": n + 1, "List": [n, 5]});
        assert_eq!(v["Id"], "cn01");
        assert_eq!(v["Count"], 4);
        assert_eq!(v["List"][1], 5);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = json!({"s": "a\"b\\c\nd\te\u{1F600}"});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_parses() {
        let v = json!({"x": [1, 2], "y": {}});
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&json!(2.0)).unwrap(), "2.0");
        let back: Value = from_str("2.0").unwrap();
        assert!(matches!(back, Value::Number(Number::Float(_))));
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one_behind_it() {
        // Each of these panicked in a debug build (`lo - 0xDC00` underflows)
        // or decoded to an invented character in release.
        for bad in [
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800\ue000""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\udc00""#,
        ] {
            let got = from_str::<Value>(bad);
            assert!(got.is_err(), "{bad} must not decode, got {got:?}");
        }
        assert_eq!(from_str::<Value>(r#""\ud801\udc00""#).unwrap(), "\u{10400}");
        assert_eq!(from_str::<Value>(r#""\ud83d\ude00!""#).unwrap(), "\u{1F600}!");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 41""#,
            r#""\u41""#,
            "\"\\u00\u{e9}\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
        assert_eq!(from_str::<Value>(r#""\u0041\u00e9\u00E9""#).unwrap(), "A\u{e9}\u{e9}");
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        // The parent recursed once per `[`: 100 000 of them ended the
        // process with a stack overflow, which no test can catch.
        for open in ["[", "{\"a\":"] {
            assert!(from_str::<Value>(&open.repeat(100_000)).is_err(), "{open}");
        }
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not the number of containers seen.
        let wide = format!("[{}]", vec!["[{}]"; 10_000].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn numbers_with_no_json_form_are_refused() {
        for bad in ["1e999", "-1e999", "[1e400]", "-", "1.2.3", "+1"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
        assert_eq!(from_str::<Value>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<Value>("-9223372036854775808").unwrap(), i64::MIN);
        // What the printer writes for a float always parses back to itself.
        let edge = to_string(&json!([1e300, -0.5, 1e15, 2.0, 5e-324, f64::MAX])).unwrap();
        assert_eq!(to_string(&from_str::<Value>(&edge).unwrap()).unwrap(), edge);
    }

    #[test]
    fn every_printer_entry_point_writes_the_same_bytes() {
        let v = json!({"s": "q\"b\\n\n\u{1}\u{1f}\u{7f}\u{e9}\u{1F600}", "a": [1, -2, 2.5, null, true], "o": {}});
        let text = to_string(&v).unwrap();
        assert_eq!(
            text,
            "{\"s\":\"q\\\"b\\\\n\\n\\u0001\\u001f\u{7f}\u{e9}\u{1F600}\",\"a\":[1,-2,2.5,null,true],\"o\":{}}"
        );
        assert_eq!(v.to_string(), text);
        assert_eq!(to_vec(&v).unwrap(), text.as_bytes());
        let mut sink = b"<".to_vec();
        to_writer(&mut sink, &v).unwrap();
        assert_eq!(sink, format!("<{text}").into_bytes());
        // A typed value goes through the same printer via its tree.
        assert_eq!(to_string(&vec![Some("x"), None]).unwrap(), "[\"x\",null]");

        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = to_writer(Full, &v).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    /// Parsing is linear in the input. The parent re-validated the rest of
    /// the input once per character of a string: 1 MiB took > 20 s in a
    /// debug build, and one such request stalls the single epoll worker.
    #[test]
    fn a_mebibyte_parses_in_well_under_a_second() {
        let one_string = format!("{{\"Description\":\"{}\"}}", "x\u{e9}".repeat(349_000));
        let link = r#"{"@odata.id":"/redfish/v1/Chassis/churn-00000"}"#;
        let members = format!(
            "{{\"Members\":[{}],\"Members@odata.count\":20000}}",
            vec![link; 20_000].join(",")
        );
        for doc in [one_string, members] {
            assert!(doc.len() > 900_000 && doc.len() <= 1 << 20, "{}", doc.len());
            let start = std::time::Instant::now();
            let v: Value = from_slice(doc.as_bytes()).unwrap();
            let took = start.elapsed();
            assert!(took.as_millis() < 1000, "{} bytes took {took:?}", doc.len());
            assert_eq!(to_string(&v).unwrap(), doc);
        }
    }
}
