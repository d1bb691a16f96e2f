//! Offline shim for `serde_json`.
//!
//! Re-exports the value model from the `serde` shim and adds the pieces the
//! real crate provides on top: a JSON text parser, compact and pretty
//! printers, the `json!` macro, and the `to_*`/`from_*` conversion entry
//! points used across this workspace.

use std::fmt;

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
    T::from_json(&value).map_err(Error::from)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write_compact(&value.to_json()))
}

/// Serialize to an indented JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_json(), 0, &mut out);
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parse a typed value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let v = parse(s)?;
    T::from_json(&v).map_err(Error::from)
}

/// Parse a typed value from JSON bytes (must be UTF-8).
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------- printer

fn write_compact(v: &Value) -> String {
    v.to_string()
}

fn write_pretty(v: &Value, depth: usize, out: &mut String) {
    const INDENT: &str = "  ";
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&INDENT.repeat(depth + 1));
                write_pretty(item, depth + 1, out);
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
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            out.push_str(&INDENT.repeat(depth));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
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
            b'[' => self.array(),
            b'{' => self.object(),
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
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::msg("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
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
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(c).ok_or_else(|| Error::msg("invalid surrogate pair"))?);
                                } else {
                                    return Err(Error::msg("lone surrogate"));
                                }
                            } else {
                                out.push(char::from_u32(cp).ok_or_else(|| Error::msg("invalid \\u escape"))?);
                            }
                        }
                        other => return Err(Error::msg(format!("invalid escape \\{}", other as char))),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().ok_or_else(|| Error::msg("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| Error::msg("invalid \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| Error::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(n)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from_u64(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from_i64(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| Error::msg(format!("invalid number {text:?}")))
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
}
