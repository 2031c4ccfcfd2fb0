//! Event payload storage: small payloads inline, large ones boxed.
//!
//! Boxing every payload (`Box<dyn Any>`) would cost one heap allocation per
//! emitted event — the dominant allocation source on multi-million-event
//! runs. Almost every real payload is tiny (the cluster simulator's largest
//! event is a single `usize`), so [`Payload::new`] stores values of at most
//! [`Payload::INLINE_BYTES`] bytes (and alignment ≤ 8) directly inside the
//! event node and only spills larger or over-aligned types to a `Box`.

use std::any::{Any, TypeId};
use std::mem::{align_of, size_of, MaybeUninit};

/// Inline storage: three `u64` words — 24 bytes, 8-byte aligned.
type InlineBuf = [MaybeUninit<u64>; 3];

enum Repr {
    Inline {
        type_id: TypeId,
        /// The value's bytes, written by `std::ptr::write` at construction.
        data: InlineBuf,
        /// Drops the value in place; `None` for types without drop glue.
        drop_fn: Option<unsafe fn(*mut u64)>,
        /// Keeps the payload `!Send`/`!Sync` like `Box<dyn Any>`, matching the
        /// single-threaded engine (payload types need not be `Send`).
        _not_send: std::marker::PhantomData<*const ()>,
    },
    Boxed(Box<dyn Any>),
}

/// A type-erased event payload (see module docs).
pub struct Payload {
    repr: Repr,
}

unsafe fn drop_inline<T>(ptr: *mut u64) {
    unsafe { std::ptr::drop_in_place(ptr.cast::<T>()) }
}

impl Payload {
    /// Largest payload stored inline (in bytes).
    pub const INLINE_BYTES: usize = size_of::<InlineBuf>();

    /// Wraps a payload, storing it inline when it fits.
    pub fn new<T: Any>(value: T) -> Self {
        if size_of::<T>() <= Self::INLINE_BYTES && align_of::<T>() <= align_of::<u64>() {
            let mut data: InlineBuf = [MaybeUninit::uninit(); 3];
            // SAFETY: the buffer is large enough and sufficiently aligned for
            // `T` (checked above); the value is moved in exactly once and from
            // here on only dropped via `drop_fn` or borrowed via
            // `downcast_ref` after a `TypeId` match.
            unsafe { std::ptr::write(data.as_mut_ptr().cast::<T>(), value) };
            Self {
                repr: Repr::Inline {
                    type_id: TypeId::of::<T>(),
                    data,
                    drop_fn: std::mem::needs_drop::<T>().then_some(drop_inline::<T> as _),
                    _not_send: std::marker::PhantomData,
                },
            }
        } else {
            Self::boxed(value)
        }
    }

    /// The spill path of [`Payload::new`]: wraps a payload in a `Box`.
    fn boxed<T: Any>(value: T) -> Self {
        Self {
            repr: Repr::Boxed(Box::new(value)),
        }
    }

    /// Whether the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        match &self.repr {
            Repr::Inline { type_id, .. } => *type_id == TypeId::of::<T>(),
            Repr::Boxed(b) => b.is::<T>(),
        }
    }

    /// The payload as `&T`, if it is of type `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match &self.repr {
            Repr::Inline { type_id, data, .. } => (*type_id == TypeId::of::<T>())
                // SAFETY: the TypeId matches the type written at construction,
                // so the buffer holds a valid, live `T`.
                .then(|| unsafe { &*data.as_ptr().cast::<T>() }),
            Repr::Boxed(b) => b.downcast_ref::<T>(),
        }
    }

    /// Whether the payload is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Repr::Inline {
            data,
            drop_fn: Some(drop_fn),
            ..
        } = &mut self.repr
        {
            // SAFETY: the buffer holds a live value of the type `drop_fn` was
            // instantiated for; it is dropped exactly once, here.
            unsafe { drop_fn(data.as_mut_ptr().cast::<u64>()) }
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.repr {
            Repr::Inline { .. } => f.write_str("Payload::Inline"),
            Repr::Boxed(_) => f.write_str("Payload::Boxed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Debug, PartialEq)]
    struct Small {
        a: u64,
        b: u32,
    }

    #[derive(Debug, PartialEq)]
    struct Large([u64; 8]);

    #[test]
    fn small_payloads_are_inline_and_downcast() {
        let p = Payload::new(Small { a: 7, b: 9 });
        assert!(p.is_inline());
        assert!(p.is::<Small>());
        assert!(!p.is::<u32>());
        assert_eq!(p.downcast_ref::<Small>(), Some(&Small { a: 7, b: 9 }));
        assert_eq!(p.downcast_ref::<u64>(), None);
    }

    #[test]
    fn large_payloads_spill_to_box() {
        let p = Payload::new(Large([1; 8]));
        assert!(!p.is_inline());
        assert_eq!(p.downcast_ref::<Large>(), Some(&Large([1; 8])));
    }

    #[test]
    fn boxed_constructor_never_inlines() {
        let p = Payload::boxed(3u8);
        assert!(!p.is_inline());
        assert_eq!(p.downcast_ref::<u8>(), Some(&3));
    }

    #[test]
    fn zero_sized_payloads_work() {
        struct Marker;
        let p = Payload::new(Marker);
        assert!(p.is_inline());
        assert!(p.is::<Marker>());
    }

    #[test]
    fn inline_payloads_run_destructors_exactly_once() {
        struct Counts(Rc<Cell<u32>>);
        impl Drop for Counts {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let p = Payload::new(Counts(Rc::clone(&drops)));
        assert!(p.is_inline());
        assert_eq!(drops.get(), 0);
        drop(p);
        assert_eq!(drops.get(), 1);
    }

    #[test]
    fn plain_data_payloads_have_no_drop_glue() {
        let p = Payload::new(123u64);
        match &p.repr {
            Repr::Inline { drop_fn, .. } => assert!(drop_fn.is_none()),
            Repr::Boxed(_) => panic!("u64 must be inline"),
        }
    }
}
