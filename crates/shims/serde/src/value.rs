//! The JSON value tree shared by the `serde` and `serde_json` shims.
//!
//! Lives here (rather than in `serde_json`) so the `Serialize` /
//! `Deserialize` traits can name it without a dependency cycle;
//! `serde_json` re-exports everything.

use std::borrow::Cow;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (integer or float).
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Map),
}

/// A JSON number. Integers are kept exact; floats carry `f64`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Floating point (finite).
    Float(f64),
}

impl Number {
    /// Wrap a `u64`.
    pub fn from_u64(n: u64) -> Number {
        Number::PosInt(n)
    }

    /// Wrap an `i64`, normalizing non-negative values to `PosInt`.
    pub fn from_i64(n: i64) -> Number {
        if n >= 0 {
            Number::PosInt(n as u64)
        } else {
            Number::NegInt(n)
        }
    }

    /// Wrap an `f64`. Non-finite values have no JSON representation and
    /// collapse to `0.0`; callers guard with [`f64::is_finite`] first.
    pub fn from_f64(n: f64) -> Number {
        Number::Float(if n.is_finite() { n } else { 0.0 })
    }

    /// The value as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(_) => None,
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= 0.0 && f <= u64::MAX as f64 {
                    Some(f as u64)
                } else {
                    None
                }
            }
        }
    }

    /// The value as `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }

    /// The value as `f64` (always possible, possibly lossy).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::PosInt(n) => Some(n as f64),
            Number::NegInt(n) => Some(n as f64),
            Number::Float(f) => Some(f),
        }
    }

    /// True if this number was stored as a float.
    pub fn is_f64(&self) -> bool {
        matches!(self, Number::Float(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self, other) {
            (Number::PosInt(a), Number::PosInt(b)) => a == b,
            (Number::NegInt(a), Number::NegInt(b)) => a == b,
            (Number::PosInt(_), Number::NegInt(_)) | (Number::NegInt(_), Number::PosInt(_)) => false,
            // Mixed int/float: compare numerically so `2` == `2.0` after a
            // print/parse round trip.
            (a, b) => a.as_f64() == b.as_f64(),
        }
    }
}

impl Number {
    /// Append the JSON text of the number.
    fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match *self {
            Number::PosInt(n) => write!(out, "{n}"),
            Number::NegInt(n) => write!(out, "{n}"),
            Number::Float(x) => {
                if x == x.trunc() && x.abs() < 1e15 {
                    // Keep a decimal point so the value re-parses as a float.
                    write!(out, "{x:.1}")
                } else {
                    write!(out, "{x}")
                }
            }
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// An insertion-ordered string-keyed map, mirroring
/// `serde_json::Map<String, Value>` with `preserve_order`.
#[derive(Debug, Clone, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map { entries: Vec::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a key mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Insert, replacing in place (order preserved). Returns the old value.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Vacant-or-occupied entry for in-place updates.
    pub fn entry(&mut self, key: impl Into<String>) -> Entry<'_> {
        Entry {
            map: self,
            key: key.into(),
        }
    }

    /// Iterate `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Value)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterate values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl PartialEq for Map {
    // Key order is an artifact of construction, not content: compare as sets.
    fn eq(&self, other: &Map) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Map {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (String, Value)>, fn(&'a (String, Value)) -> (&'a String, &'a Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A view into a single [`Map`] slot, from [`Map::entry`].
pub struct Entry<'a> {
    map: &'a mut Map,
    key: String,
}

impl<'a> Entry<'a> {
    /// Insert `default` if the key is vacant; return the slot either way.
    pub fn or_insert(self, default: Value) -> &'a mut Value {
        let idx = match self.map.entries.iter().position(|(k, _)| *k == self.key) {
            Some(i) => i,
            None => {
                self.map.entries.push((self.key, default));
                self.map.entries.len() - 1
            }
        };
        &mut self.map.entries[idx].1
    }

    /// Like [`Entry::or_insert`] with a lazily-built default.
    pub fn or_insert_with(self, default: impl FnOnce() -> Value) -> &'a mut Value {
        let idx = match self.map.entries.iter().position(|(k, _)| *k == self.key) {
            Some(i) => i,
            None => {
                let v = default();
                self.map.entries.push((self.key, v));
                self.map.entries.len() - 1
            }
        };
        &mut self.map.entries[idx].1
    }
}

impl Value {
    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// Borrow the array, if this is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow the array mutably.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow the object, if this is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow the object mutably.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for booleans.
    pub fn is_boolean(&self) -> bool {
        matches!(self, Value::Bool(_))
    }

    /// True for numbers.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// True for strings.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// True for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// True for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Index by key or position, returning `None` on mismatch.
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Mutable [`Value::get`].
    pub fn get_mut<I: Index>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    /// Replace `self` with `Null`, returning the old value.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            _ => false,
        }
    }
}

// -------- scalar comparisons so `v["n"] == 3` / `v["s"] == "x"` just work

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<Value> for str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_i64().is_some_and(|n| i64::try_from(*other).map(|o| n == o).unwrap_or(false))
                    || self.as_u64().is_some_and(|n| u64::try_from(*other).map(|o| n == o).unwrap_or(false))
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<Value> for f64 {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

// ----------------------------------------------------------- indexing

/// Types usable as `Value` indices: `&str`/`String` (objects) and `usize`
/// (arrays).
pub trait Index {
    /// Non-panicking lookup.
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    /// Non-panicking mutable lookup.
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
    /// Lookup for `IndexMut`, inserting intermediate objects on demand.
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
    /// Description for panic messages.
    fn describe(&self) -> Cow<'static, str>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object().and_then(|m| m.get(self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut().and_then(|m| m.get_mut(self))
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        match v {
            Value::Object(m) => m.entry(self).or_insert(Value::Null),
            other => panic!("cannot index {} with key {self:?}", kind(other)),
        }
    }

    fn describe(&self) -> Cow<'static, str> {
        Cow::Owned(format!("key {self:?}"))
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }

    fn describe(&self) -> Cow<'static, str> {
        self.as_str().describe()
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array().and_then(|a| a.get(*self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut().and_then(|a| a.get_mut(*self))
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        match v {
            Value::Array(a) => {
                let len = a.len();
                a.get_mut(*self)
                    .unwrap_or_else(|| panic!("index {self} out of bounds (len {len})"))
            }
            other => panic!("cannot index {} with {self}", kind(other)),
        }
    }

    fn describe(&self) -> Cow<'static, str> {
        Cow::Owned(format!("index {self}"))
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(v)
    }

    fn describe(&self) -> Cow<'static, str> {
        (**self).describe()
    }
}

impl fmt::Display for Value {
    /// Compact JSON rendering (matches `serde_json::to_string`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_compact(self, f)
    }
}

/// The one compact printer: `Display`, `serde_json::to_string` / `to_vec` /
/// `to_writer` and [`crate::Serialize::write_json`] all end here. Writes
/// from the borrowed tree; nothing is cloned or staged.
pub(crate) fn write_compact<W: fmt::Write + ?Sized>(v: &Value, out: &mut W) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Number(n) => n.write_to(out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(a) => {
            out.write_char('[')?;
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_compact(item, out)?;
            }
            out.write_char(']')
        }
        Value::Object(m) => write_map(m, out),
    }
}

/// [`write_compact`] for a bare [`Map`].
pub(crate) fn write_map<W: fmt::Write + ?Sized>(m: &Map, out: &mut W) -> fmt::Result {
    out.write_char('{')?;
    for (i, (k, item)) in m.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_escaped(k, out)?;
        out.write_char(':')?;
        write_compact(item, out)?;
    }
    out.write_char('}')
}

/// Append the JSON string-literal form of `s` (quotes and escapes included).
/// Runs of characters that need no escape are copied whole.
#[doc(hidden)]
pub fn write_escaped<W: fmt::Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // `b` is ASCII, so `run..i` and `i + 1..` fall on char boundaries.
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

static NULL: Value = Value::Null;

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;

    // Missing keys read as `Null`, matching serde_json.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: Index> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}
