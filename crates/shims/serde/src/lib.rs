//! Offline shim for the `serde` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal, API-compatible-enough replacement. Instead
//! of serde's visitor-based data model, serialization goes directly through
//! the JSON [`value::Value`] tree that `serde_json` (also shimmed) re-exports.
//! The `#[derive(Serialize, Deserialize)]` macros are provided by the
//! sibling `serde_derive` shim and honour the subset of `#[serde(...)]`
//! attributes this repository uses: `rename`, `default`,
//! `skip_serializing_if`, `flatten`, `transparent`.
//!
//! Each trait has a required tree-building method (what the derives emit)
//! and a provided half that spares the tree where the type *is* the tree:
//! [`Serialize::write_json`] is the by-reference half of
//! [`Serialize::to_json`] — `Value` and `Map` print themselves from where
//! they are instead of cloning first — and [`Deserialize::from_json_owned`]
//! is the by-value half of [`Deserialize::from_json`] — `Value` hands the
//! parsed tree back instead of copying it.

pub mod value;

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;
use value::{Map, Number, Value};

/// Serialization: convert `self` into a JSON value tree.
pub trait Serialize {
    /// Build the JSON representation of `self`.
    fn to_json(&self) -> Value;

    /// Append the compact JSON text of `self`: what printing
    /// [`Serialize::to_json`] gives, which is how the provided body does it.
    /// Types that hold JSON already print it by reference.
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        value::write_compact(&self.to_json(), out)
    }
}

/// Deserialization: rebuild `Self` from a JSON value tree.
pub trait Deserialize: Sized {
    /// Parse `Self` out of `v`.
    fn from_json(v: &Value) -> Result<Self, DeError>;

    /// [`Deserialize::from_json`] for a tree the caller is done with.
    fn from_json_owned(v: Value) -> Result<Self, DeError> {
        Self::from_json(&v)
    }
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error for an unexpected value shape.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, got {}", kind_of(got)))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

// ------------------------------------------------------------- Serialize

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }

    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        value::write_compact(self, out)
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::from_i64(*self as i64))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json(&self) -> Value {
        // Non-finite floats have no JSON representation; serialize as null
        // (the same shape serde_json produces for an unrepresentable float).
        if self.is_finite() {
            Value::Number(Number::from_f64(*self))
        } else {
            Value::Null
        }
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Value {
        Value::Number(Number::from_f64(f64::from(*self)))
    }
}

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        value::write_escaped(self, out)
    }
}

impl Serialize for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }

    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        value::write_escaped(self, out)
    }
}

impl Serialize for char {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }

    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        (**self).write_json(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }

    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        (**self).write_json(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for std::collections::HashSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_json());
        }
        Value::Object(m)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<u64, V> {
    fn to_json(&self) -> Value {
        // JSON object keys are strings; integer keys stringify (as serde_json does).
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.to_string(), v.to_json());
        }
        Value::Object(m)
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_json(&self) -> Value {
        let mut pairs: Vec<(&String, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k.clone(), v.to_json());
        }
        Value::Object(m)
    }
}

impl Serialize for Map {
    fn to_json(&self) -> Value {
        Value::Object(self.clone())
    }

    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        value::write_map(self, out)
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json(&self) -> Value {
                Value::Array(vec![$(self.$n.to_json()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ----------------------------------------------------------- Deserialize

impl Deserialize for Value {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_json_owned(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

impl Deserialize for bool {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("a boolean", v))
    }
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json(v: &Value) -> Result<Self, DeError> {
                let n = v.as_u64().ok_or_else(|| DeError::expected("an unsigned integer", v))?;
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range")))
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json(v: &Value) -> Result<Self, DeError> {
                let n = v.as_i64().ok_or_else(|| DeError::expected("an integer", v))?;
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range")))
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("a number", v))
    }
}

impl Deserialize for f32 {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl Deserialize for String {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::expected("a string", v))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        let arr = v.as_array().ok_or_else(|| DeError::expected("an array", v))?;
        arr.iter().map(T::from_json).collect()
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_json(v).map(Into::into)
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_json(v).map(|v| v.into_iter().collect())
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for std::collections::HashSet<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_json(v).map(|v| v.into_iter().collect())
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("an object", v))?;
        obj.iter()
            .map(|(k, v)| V::from_json(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<u64, V> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("an object", v))?;
        obj.iter()
            .map(|(k, v)| {
                let key: u64 = k.parse().map_err(|_| DeError(format!("invalid u64 map key {k:?}")))?;
                V::from_json(v).map(|v| (key, v))
            })
            .collect()
    }
}

impl Deserialize for &'static str {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        // The shim's data model is owned, so borrowed strings are produced by
        // leaking. Only round-trip tests deserialize `&'static str` fields
        // (fixed metric names), so the leak is tiny and bounded per run.
        v.as_str()
            .map(|s| &*Box::leak(s.to_string().into_boxed_str()))
            .ok_or_else(|| DeError::expected("a string", v))
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("an object", v))?;
        obj.iter()
            .map(|(k, v)| V::from_json(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

macro_rules! de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json(v: &Value) -> Result<Self, DeError> {
                let arr = v.as_array().ok_or_else(|| DeError::expected("an array", v))?;
                Ok(($($t::from_json(
                    arr.get($n).ok_or_else(|| DeError(format!("tuple element {} missing", $n)))?
                )?,)+))
            }
        }
    )*};
}
de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}
