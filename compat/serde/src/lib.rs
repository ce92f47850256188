//! Offline API-compatible subset of `serde`.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal serde: a self-describing [`Value`] data
//! model, [`Serialize`]/[`Deserialize`] traits over it, impls for the std
//! types the workspace serializes, and derive macros re-exported from the
//! sibling `serde_derive` stub. The vendored `serde_json` renders [`Value`]
//! to JSON text and back.
//!
//! Representation choices mirror real serde's JSON behavior where the
//! workspace depends on it: structs are maps keyed by field name, newtype
//! structs are transparent, unit enum variants are strings, data-carrying
//! variants are single-entry maps, and `#[serde(skip)]` fields are omitted
//! and default-initialized on the way back in.

// Like the crate it stands in for, this stub implements its traits for
// std's hash maps, so the workspace's map rule (`clippy.toml`) is off here.
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Self-describing serialized value: the stub's data model.
///
/// Maps preserve insertion order and allow arbitrary (non-string) keys;
/// `serde_json` decides how to render them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON null / `Option::None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (always < 0; non-negative ints normalize to `U64`).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Key-value pairs in insertion order.
    Map(Vec<(Value, Value)>),
}

impl Value {
    /// Borrow as a string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as map entries, if this is a `Map`.
    pub fn as_map(&self) -> Option<&[(Value, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }
}

/// Find a struct field by name in serialized map entries.
pub fn find_field<'a>(entries: &'a [(Value, Value)], name: &str) -> Option<&'a Value> {
    entries
        .iter()
        .find(|(k, _)| matches!(k, Value::Str(s) if s == name))
        .map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Construct an error from any message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Convert `self` into the [`Value`] data model.
pub trait Serialize {
    /// Serialize into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruct `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Deserialize from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}
uint_impl!(u8, u16, u32, u64, usize);

macro_rules! sint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}
sint_impl!(i8, i16, i32, i64, isize);

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}
float_impl!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------
// Option / collections / tuples
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

fn seq_to_value<'a, T: Serialize + 'a>(it: impl Iterator<Item = &'a T>) -> Value {
    Value::Seq(it.map(|x| x.to_value()).collect())
}

fn value_to_seq<T: Deserialize>(v: &Value) -> Result<Vec<T>, Error> {
    match v {
        Value::Seq(items) => items.iter().map(T::from_value).collect(),
        _ => Err(Error::custom("expected sequence")),
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        value_to_seq(v)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = value_to_seq::<T>(v)?;
        items
            .try_into()
            .map_err(|_| Error::custom("wrong array length"))
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(value_to_seq(v)?.into())
    }
}

impl<T: Serialize + Eq + Hash, S: BuildHasher> Serialize for HashSet<T, S> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(value_to_seq::<T>(v)?.into_iter().collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(value_to_seq::<T>(v)?.into_iter().collect())
    }
}

fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    it: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Map(it.map(|(k, v)| (k.to_value(), v.to_value())).collect())
}

/// Accept either a native `Map` or (as produced by a JSON round trip of a
/// non-string-keyed map) a `Seq` of `[key, value]` pairs.
fn value_to_pairs<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .map(|(k, val)| Ok((K::from_value(k)?, V::from_value(val)?)))
            .collect(),
        Value::Seq(items) => items
            .iter()
            .map(|item| match item {
                Value::Seq(pair) if pair.len() == 2 => {
                    Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
                }
                _ => Err(Error::custom("expected [key, value] pair")),
            })
            .collect(),
        _ => Err(Error::custom("expected map")),
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}
impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(value_to_pairs::<K, V>(v)?.into_iter().collect())
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(value_to_pairs::<K, V>(v)?.into_iter().collect())
    }
}

macro_rules! tuple_impl {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                match v {
                    Value::Seq(s) if s.len() == LEN => {
                        Ok(($($t::from_value(&s[$n])?,)+))
                    }
                    _ => Err(Error::custom("expected tuple sequence")),
                }
            }
        }
    )*};
}
tuple_impl! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn containers_round_trip() {
        let m: HashMap<u32, Vec<u64>> = [(1, vec![2, 3]), (4, vec![])].into_iter().collect();
        let back: HashMap<u32, Vec<u64>> = Deserialize::from_value(&m.to_value()).unwrap();
        assert_eq!(m, back);

        let t = (1u32, "x".to_string(), -2i32);
        let back: (u32, String, i32) = Deserialize::from_value(&t.to_value()).unwrap();
        assert_eq!(t, back);
    }
}
