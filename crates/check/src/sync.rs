//! Model-aware drop-in replacements for `std::sync` primitives.
//!
//! Each primitive wraps its `std` counterpart and remembers whether it
//! was *created inside a model execution* (a thread-local `Ctx` was
//! live at construction). If so, every visible operation first yields to
//! the scheduler; otherwise — or when the primitive outlives its
//! execution — every method is a straight passthrough to `std`, so code
//! compiled against these types behaves identically outside
//! [`crate::model`].
//!
//! Poisoning is modelled with the real thing: the inner `std` mutex is
//! genuinely held while a model guard is live, so a panic that unwinds
//! through a guard poisons it exactly as in production, and `lock()`
//! reports `Err(PoisonError)` with the data still accessible via
//! `into_inner()`.

use crate::sched::{self, Ctx, ObjKind, Op};
use std::fmt;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

pub use std::sync::{LockResult, PoisonError};

/// Where a model primitive registered itself: which execution, which id.
#[derive(Clone, Copy, Debug)]
struct ModelRef {
    exec_id: u64,
    id: usize,
}

fn model_ref(kind: ObjKind) -> Option<ModelRef> {
    sched::current_ctx().map(|ctx| ModelRef {
        exec_id: ctx.exec.id,
        id: ctx.exec.register_object(kind),
    })
}

/// The live model context for an operation on `model`, if the current
/// thread belongs to the same execution the object registered with.
fn ctx_for(model: Option<ModelRef>) -> Option<(Ctx, usize)> {
    let m = model?;
    let ctx = sched::current_ctx()?;
    (ctx.exec.id == m.exec_id).then_some((ctx, m.id))
}

pub struct Mutex<T: ?Sized> {
    model: Option<ModelRef>,
    inner: StdMutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            model: model_ref(ObjKind::Mutex),
            inner: StdMutex::new(value),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let model = ctx_for(self.model);
        if let Some((ctx, id)) = &model {
            ctx.exec.request(ctx.tid, Op::Lock(*id));
        }
        // Under the model the scheduler has granted exclusivity, so this
        // never blocks; it exists to carry the data and real poison.
        let (inner, poisoned) = match self.inner.lock() {
            Ok(g) => (g, false),
            Err(p) => (p.into_inner(), true),
        };
        let guard = MutexGuard {
            lock: self,
            inner: Some(inner),
            model,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    pub fn clear_poison(&self) {
        self.inner.clear_poison();
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not consumed")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not consumed")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first: if we are unwinding, this is what
        // sets the poison bit, exactly like production.
        drop(self.inner.take());
        if let Some((ctx, id)) = self.model.take() {
            ctx.exec.unlock(ctx.tid, id);
        }
    }
}

pub struct Condvar {
    model: Option<ModelRef>,
    inner: StdCondvar,
}

impl Condvar {
    pub fn new() -> Condvar {
        Condvar {
            model: model_ref(ObjKind::Condvar),
            inner: StdCondvar::new(),
        }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match (ctx_for(self.model), guard.model.is_some()) {
            (Some((ctx, cv)), true) => {
                let (_, mutex) = guard.model.take().expect("checked above");
                let lock = guard.lock;
                // Really release, then skip the guard's model unlock: the
                // scheduler clears ownership as part of granting CondWait,
                // atomically with parking us on the condvar.
                drop(guard.inner.take());
                std::mem::forget(guard);
                ctx.exec.request(ctx.tid, Op::CondWait { cv, mutex });
                // Woken and re-granted the mutex; retake the real lock.
                let (inner, poisoned) = match lock.inner.lock() {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                };
                let guard = MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: Some((ctx, mutex)),
                };
                if poisoned {
                    Err(PoisonError::new(guard))
                } else {
                    Ok(guard)
                }
            }
            (None, false) => {
                let lock = guard.lock;
                let inner = guard.inner.take().expect("guard not consumed");
                std::mem::forget(guard);
                match self.inner.wait(inner) {
                    Ok(g) => Ok(MutexGuard {
                        lock,
                        inner: Some(g),
                        model: None,
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(p.into_inner()),
                        model: None,
                    })),
                }
            }
            _ => panic!("stems-check: Condvar and Mutex must both be model-managed or both std"),
        }
    }

    pub fn notify_one(&self) {
        if let Some((ctx, cv)) = ctx_for(self.model) {
            ctx.exec.request(ctx.tid, Op::Notify { cv, all: false });
        } else {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if let Some((ctx, cv)) = ctx_for(self.model) {
            ctx.exec.request(ctx.tid, Op::Notify { cv, all: true });
        } else {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

/// Sequentially-consistent model atomics. Every access is a yield point,
/// making load/store races visible to the explorer. Weak-memory effects
/// are out of scope (that is ThreadSanitizer's half of the contract).
pub mod atomic {
    use super::{ctx_for, model_ref, ModelRef};
    use crate::sched::{ObjKind, Op};
    use std::fmt;

    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            pub struct $name {
                model: Option<ModelRef>,
                inner: $std,
            }

            impl $name {
                pub fn new(v: $prim) -> Self {
                    Self {
                        model: model_ref(ObjKind::Atomic),
                        inner: <$std>::new(v),
                    }
                }

                fn hook(&self, op: &'static str) {
                    if let Some((ctx, id)) = ctx_for(self.model) {
                        ctx.exec.request(ctx.tid, Op::Atomic(op, id));
                    }
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    self.hook("load");
                    self.inner.load(order)
                }

                pub fn store(&self, v: $prim, order: Ordering) {
                    self.hook("store");
                    self.inner.store(v, order)
                }

                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    self.hook("swap");
                    self.inner.swap(v, order)
                }

                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.hook("cas");
                    self.inner.compare_exchange(current, new, success, failure)
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    self.inner.fmt(f)
                }
            }
        };
    }

    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

    impl AtomicUsize {
        pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
            self.hook("fetch_add");
            self.inner.fetch_add(v, order)
        }

        pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
            self.hook("fetch_sub");
            self.inner.fetch_sub(v, order)
        }
    }

    impl AtomicU64 {
        pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
            self.hook("fetch_add");
            self.inner.fetch_add(v, order)
        }

        pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
            self.hook("fetch_sub");
            self.inner.fetch_sub(v, order)
        }
    }

    impl AtomicBool {
        pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
            self.hook("fetch_or");
            self.inner.fetch_or(v, order)
        }

        pub fn fetch_and(&self, v: bool, order: Ordering) -> bool {
            self.hook("fetch_and");
            self.inner.fetch_and(v, order)
        }
    }
}
