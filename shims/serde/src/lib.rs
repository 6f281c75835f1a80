//! Offline shim for `serde`: the trait names this workspace uses, backed by
//! an owned [`Value`] tree instead of serde's visitor machinery.
//!
//! A [`Serializer`] here is anything that can accept a finished [`Value`];
//! a [`Deserializer`] is anything that can hand one over. The shimmed
//! `serde_derive` macros generate code against these traits, and the
//! shimmed `serde_json` renders/parses the `Value` tree as JSON text.
//! Manual `impl Serialize`/`impl Deserialize` blocks written against real
//! serde (via `serialize_str`, `String::deserialize`, `collect_seq`)
//! compile unchanged.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data tree every (de)serialization passes through.
/// Mirrors the JSON data model; maps preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

/// Uninhabited error for infallible serializers.
#[derive(Debug)]
pub enum Never {}

impl fmt::Display for Never {
    fn fmt(&self, _f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

impl std::error::Error for Never {}

/// Deserialization error: a message describing the shape mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

pub mod ser {
    use super::{Serialize, Value};

    /// Accepts a finished [`Value`]. Default methods cover the entry
    /// points manual impls in this workspace use.
    pub trait Serializer: Sized {
        type Ok;
        type Error: std::fmt::Display;

        /// The single required method: consume a complete value tree.
        fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

        fn serialize_str(self, s: &str) -> Result<Self::Ok, Self::Error> {
            self.serialize_value(Value::Str(s.to_owned()))
        }

        fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
        where
            I: IntoIterator,
            I::Item: Serialize,
        {
            let seq = iter.into_iter().map(|item| super::__private::to_value(&item)).collect();
            self.serialize_value(Value::Seq(seq))
        }

        fn collect_map<K, V, I>(self, iter: I) -> Result<Self::Ok, Self::Error>
        where
            K: Serialize,
            V: Serialize,
            I: IntoIterator<Item = (K, V)>,
        {
            super::serialize_map_pairs(iter.into_iter(), self)
        }
    }
}

pub mod de {
    use super::Value;

    /// Errors constructible from a message, as in serde's `de::Error`.
    /// The `From<DeError>` bound lets derive-generated code run nested
    /// deserializations (whose error is the concrete [`super::DeError`])
    /// inside a function generic over the deserializer.
    pub trait Error: Sized + std::fmt::Display + From<super::DeError> {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for super::DeError {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            super::DeError(msg.to_string())
        }
    }

    /// Hands over a complete value tree. The `'de` lifetime exists only so
    /// impls written against real serde keep their signatures.
    pub trait Deserializer<'de>: Sized {
        type Error: Error;

        fn take_value(self) -> Result<Value, Self::Error>;
    }

    impl<'de> Deserializer<'de> for Value {
        type Error = super::DeError;

        fn take_value(self) -> Result<Value, Self::Error> {
            Ok(self)
        }
    }

    impl<'de> Deserializer<'de> for &Value {
        type Error = super::DeError;

        fn take_value(self) -> Result<Value, Self::Error> {
            Ok(self.clone())
        }
    }
}

pub use de::Deserializer;
pub use ser::Serializer;

/// A type that can render itself into a [`Value`] via any [`Serializer`].
pub trait Serialize {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error>;
}

/// A type reconstructible from a [`Value`] via any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error>;
}

/// Support code for the derive macros and sibling shims. Not a stable API.
pub mod __private {
    use super::de::Error as DeErrorTrait;
    use super::{Never, Serialize, Serializer, Value};

    /// The infallible serializer: returns the value tree itself.
    pub struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Never;

        fn serialize_value(self, value: Value) -> Result<Value, Never> {
            Ok(value)
        }
    }

    /// Renders any serializable value into its tree (infallible).
    pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
        ok(value.serialize(ValueSerializer))
    }

    /// Unwraps an infallible serialization result.
    pub fn ok(result: Result<Value, Never>) -> Value {
        match result {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// Extracts the key/value pairs of a map-shaped value.
    pub fn take_map<'de, D: super::Deserializer<'de>>(
        de: D,
    ) -> Result<Vec<(String, Value)>, D::Error> {
        match de.take_value()? {
            Value::Map(fields) => Ok(fields),
            other => Err(D::Error::custom(format!("expected map, got {other:?}"))),
        }
    }

    /// Removes a required field from a decoded map.
    pub fn take_field<E: DeErrorTrait>(
        fields: &mut Vec<(String, Value)>,
        name: &str,
    ) -> Result<Value, E> {
        take_field_opt(fields, name)
            .ok_or_else(|| E::custom(format!("missing field `{name}`")))
    }

    /// Removes an optional field from a decoded map.
    pub fn take_field_opt(fields: &mut Vec<(String, Value)>, name: &str) -> Option<Value> {
        let idx = fields.iter().position(|(k, _)| k == name)?;
        Some(fields.remove(idx).1)
    }

    /// Decodes an externally tagged enum: either `"Variant"` or
    /// `{"Variant": payload}`. Returns the variant name and its payload.
    pub fn take_variant<'de, D: super::Deserializer<'de>>(
        de: D,
    ) -> Result<(String, Option<Value>), D::Error> {
        match de.take_value()? {
            Value::Str(name) => Ok((name, None)),
            Value::Map(mut fields) if fields.len() == 1 => {
                let (name, payload) = fields.pop().expect("len checked");
                Ok((name, Some(payload)))
            }
            other => Err(D::Error::custom(format!("expected enum, got {other:?}"))),
        }
    }

    /// Extracts a fixed-arity sequence (tuple payloads).
    pub fn take_seq<E: DeErrorTrait>(value: Value, len: usize) -> Result<Vec<Value>, E> {
        match value {
            Value::Seq(items) if items.len() == len => Ok(items),
            Value::Seq(items) => {
                Err(E::custom(format!("expected {len} elements, got {}", items.len())))
            }
            other => Err(E::custom(format!("expected sequence, got {other:?}"))),
        }
    }

    /// Stringifies a map key the way serde_json does (strings verbatim,
    /// integers and bools via Display).
    pub fn key_string(value: Value) -> String {
        match value {
            Value::Str(s) => s,
            Value::U64(n) => n.to_string(),
            Value::I64(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            other => panic!("map key must be a string-like value, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Serialize impls for std types.
// ---------------------------------------------------------------------------

macro_rules! serialize_via {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
                ser.serialize_value(Value::$variant(*self as $conv))
            }
        }
    )*};
}

serialize_via!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_value(Value::Bool(*self))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(self)
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_value(Value::Str(self.to_string()))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_value(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(ser)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(ser)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(ser)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(ser),
            None => ser.serialize_value(Value::Null),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        let pair = vec![__private::to_value(&self.0), __private::to_value(&self.1)];
        ser.serialize_value(Value::Seq(pair))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        let triple = vec![
            __private::to_value(&self.0),
            __private::to_value(&self.1),
            __private::to_value(&self.2),
        ];
        ser.serialize_value(Value::Seq(triple))
    }
}

fn serialize_map_pairs<K, V, S, I>(iter: I, ser: S) -> Result<S::Ok, S::Error>
where
    K: Serialize,
    V: Serialize,
    S: Serializer,
    I: Iterator<Item = (K, V)>,
{
    let fields = iter
        .map(|(k, v)| (__private::key_string(__private::to_value(&k)), __private::to_value(&v)))
        .collect();
    ser.serialize_value(Value::Map(fields))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        serialize_map_pairs(self.iter(), ser)
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        serialize_map_pairs(self.iter(), ser)
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls for std types.
// ---------------------------------------------------------------------------

use de::Error as _;

macro_rules! deserialize_int {
    ($($t:ty),* $(,)?) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
                match de.take_value()? {
                    Value::U64(n) => <$t>::try_from(n)
                        .map_err(|_| D::Error::custom(format!("{n} out of range"))),
                    Value::I64(n) => <$t>::try_from(n)
                        .map_err(|_| D::Error::custom(format!("{n} out of range"))),
                    // Map keys arrive stringified; accept parseable strings.
                    Value::Str(s) => s
                        .parse::<$t>()
                        .map_err(|_| D::Error::custom(format!("`{s}` is not an integer"))),
                    other => Err(D::Error::custom(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}

deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        match de.take_value()? {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            other => Err(D::Error::custom(format!("expected number, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        f64::deserialize(de).map(|x| x as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        match de.take_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(D::Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        match de.take_value()? {
            Value::Str(s) => Ok(s),
            other => Err(D::Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let s = String::deserialize(de)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(D::Error::custom(format!("expected single char, got `{s}`"))),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        de.take_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        T::deserialize(de).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        T::deserialize(de).map(std::sync::Arc::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        match de.take_value()? {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some).map_err(Into::into),
        }
    }
}

fn take_seq_items<'de, D: Deserializer<'de>>(de: D) -> Result<Vec<Value>, D::Error> {
    match de.take_value()? {
        Value::Seq(items) => Ok(items),
        other => Err(D::Error::custom(format!("expected sequence, got {other:?}"))),
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        take_seq_items(de)?
            .into_iter()
            .map(|item| T::deserialize(item).map_err(Into::into))
            .collect()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let items = Vec::<T>::deserialize(de)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| D::Error::custom(format!("expected {N} elements, got {got}")))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::collections::VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(de).map(Into::into)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        take_seq_items(de)?
            .into_iter()
            .map(|item| T::deserialize(item).map_err(Into::into))
            .collect()
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash> Deserialize<'de> for HashSet<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        take_seq_items(de)?
            .into_iter()
            .map(|item| T::deserialize(item).map_err(Into::into))
            .collect()
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let mut items = __private::take_seq::<D::Error>(de.take_value()?, 2)?.into_iter();
        let a = A::deserialize(items.next().expect("len checked"))?;
        let b = B::deserialize(items.next().expect("len checked"))?;
        Ok((a, b))
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>, C: Deserialize<'de>> Deserialize<'de>
    for (A, B, C)
{
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let mut items = __private::take_seq::<D::Error>(de.take_value()?, 3)?.into_iter();
        let a = A::deserialize(items.next().expect("len checked"))?;
        let b = B::deserialize(items.next().expect("len checked"))?;
        let c = C::deserialize(items.next().expect("len checked"))?;
        Ok((a, b, c))
    }
}

fn deserialize_map_pairs<'de, K, V, D>(de: D) -> Result<Vec<(K, V)>, D::Error>
where
    K: Deserialize<'de>,
    V: Deserialize<'de>,
    D: Deserializer<'de>,
{
    match de.take_value()? {
        Value::Map(fields) => fields
            .into_iter()
            .map(|(k, v)| {
                let key = K::deserialize(Value::Str(k))?;
                let value = V::deserialize(v)?;
                Ok((key, value))
            })
            .collect::<Result<_, DeError>>()
            .map_err(Into::into),
        other => Err(D::Error::custom(format!("expected map, got {other:?}"))),
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(deserialize_map_pairs(de)?.into_iter().collect())
    }
}

impl<'de, K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>> Deserialize<'de>
    for HashMap<K, V>
{
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(deserialize_map_pairs(de)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::__private::to_value;
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize(to_value(&7u64)).unwrap(), 7);
        assert_eq!(String::deserialize(to_value(&"hi".to_string())).unwrap(), "hi");
        assert_eq!(Option::<u8>::deserialize(Value::Null).unwrap(), None);
        assert_eq!(Option::<u8>::deserialize(to_value(&3u8)).unwrap(), Some(3));
    }

    #[test]
    fn maps_stringify_integer_keys() {
        let mut m = HashMap::new();
        m.insert(5u64, "x".to_string());
        let v = to_value(&m);
        assert_eq!(v, Value::Map(vec![("5".into(), Value::Str("x".into()))]));
        let back: HashMap<u64, String> = Deserialize::deserialize(v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn nested_containers_round_trip() {
        let orig: BTreeMap<String, Vec<(u32, bool)>> =
            [("k".to_string(), vec![(1, true), (2, false)])].into_iter().collect();
        let back: BTreeMap<String, Vec<(u32, bool)>> =
            Deserialize::deserialize(to_value(&orig)).unwrap();
        assert_eq!(back, orig);
    }
}
