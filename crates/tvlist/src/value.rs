//! The primitive value types a typed TVList can hold.

/// A primitive value storable in a [`crate::TVList`].
///
/// IoTDB generates one concrete TVList class per primitive type to avoid
/// boxing (paper §V-A); in Rust the same zero-overhead effect falls out of
/// monomorphization over this trait.
pub trait Value: Copy + PartialEq + std::fmt::Debug + Send + 'static {}

impl Value for bool {}

impl Value for i32 {}

impl Value for i64 {}

impl Value for f32 {}

impl Value for f64 {}

impl Value for u32 {}
