//! Offline stand-in for the parts of `serde` this workspace uses.
//!
//! The registry is unreachable in the build environment, so this crate
//! provides a self-contained value-tree serialization framework with the
//! same surface the workspace relies on: `#[derive(Serialize, Deserialize)]`
//! (via the sibling `serde_derive` proc-macro) and the two traits. The data
//! model is a JSON-shaped [`Value`] tree; `serde_json` renders and parses
//! it.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree — the serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (field order preserved).
    Map(Vec<(String, Value)>),
}

/// Deserialization error: what was expected and what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can be turned into a [`Value`] tree.
pub trait Serialize {
    /// Build the value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// A `Value` is its own serialization — the identity impls let callers
// work with free-form JSON (`serde_json::from_str::<Value>`) the way
// they would with serde_json's own `Value`.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Look up a struct field in a map value (helper for derived impls).
pub fn value_get<'v>(v: &'v Value, key: &str) -> Result<&'v Value, DeError> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, val)| val)
            .ok_or_else(|| DeError(format!("missing field `{key}`"))),
        other => Err(DeError(format!(
            "expected map for field `{key}`, got {other:?}"
        ))),
    }
}

/// Fetch the `idx`-th element of a sequence value (helper for derived
/// tuple-variant impls).
pub fn value_seq_get(v: &Value, idx: usize) -> Result<&Value, DeError> {
    match v {
        Value::Seq(items) => items
            .get(idx)
            .ok_or_else(|| DeError(format!("sequence too short: no element {idx}"))),
        other => Err(DeError(format!("expected sequence, got {other:?}"))),
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    other => Err(DeError(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    other => Err(DeError(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(f64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    other => Err(DeError(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

// `u128` exceeds the value tree's native integer width: values that fit
// `u64` serialize as plain integers (so IPv4-sized quantities look
// unchanged on the wire); wider values fall back to a decimal string.
impl Serialize for u128 {
    fn to_value(&self) -> Value {
        match u64::try_from(*self) {
            Ok(n) => Value::U64(n),
            Err(_) => Value::Str(self.to_string()),
        }
    }
}

impl Deserialize for u128 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::U64(n) => Ok(u128::from(*n)),
            Value::Str(s) => s
                .parse::<u128>()
                .map_err(|_| DeError(format!("cannot parse {s:?} as u128"))),
            other => Err(DeError(format!("expected integer, got {other:?}"))),
        }
    }
}

impl<T: ?Sized> Serialize for std::marker::PhantomData<T> {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T: ?Sized> Deserialize for std::marker::PhantomData<T>
where
    std::marker::PhantomData<T>: Default,
{
    fn from_value(_v: &Value) -> Result<Self, DeError> {
        Ok(Default::default())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, got {other:?}"))),
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Default + Copy, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) if items.len() == N => {
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::from_value(item)?;
                }
                Ok(out)
            }
            other => Err(DeError(format!(
                "expected sequence of length {N}, got {other:?}"
            ))),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok((
            A::from_value(value_seq_get(v, 0)?)?,
            B::from_value(value_seq_get(v, 1)?)?,
        ))
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items
                .iter()
                .map(|pair| {
                    Ok((
                        K::from_value(value_seq_get(pair, 0)?)?,
                        V::from_value(value_seq_get(pair, 1)?)?,
                    ))
                })
                .collect(),
            other => Err(DeError(format!(
                "expected sequence of pairs, got {other:?}"
            ))),
        }
    }
}
