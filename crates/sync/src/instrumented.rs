//! The facade: every operation first asks the controlled scheduler (when
//! the calling thread is a model task) so interleavings become explorable
//! and blocking becomes modeled.
//!
//! Threads that are *not* model tasks — everything outside
//! [`crate::check::explore`], i.e. all of production — take a fast path
//! (one relaxed atomic load) and then use the vendored `parking_lot` /
//! `crossbeam` / `std::thread` primitive directly.
//!
//! Model invariant: the real primitive is only ever acquired after the
//! scheduler granted it, so real acquisition never contends and real
//! blocking never happens on a model task.

use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

use crate::check;

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

fn thin_addr<T: ?Sized>(p: *const T) -> usize {
    p as *const () as usize
}

/// Mutual exclusion; model tasks route acquisition through the scheduler.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    name: Option<&'static str>,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    #[inline]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { name: None, inner: parking_lot::Mutex::new(value) }
    }

    /// Named lock: the name is the node identity in the lock-order graph
    /// and the subject string in schedule traces.
    #[inline]
    pub const fn named(name: &'static str, value: T) -> Mutex<T> {
        Mutex { name: Some(name), inner: parking_lot::Mutex::new(value) }
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        thin_addr(self as *const Mutex<T>)
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = match check::cur() {
            Some(h) => {
                h.ctrl.op_lock(h.task, self.addr(), self.name);
                true
            }
            None => false,
        };
        MutexGuard { lock: self, inner: Some(self.inner.lock()), model }
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
    model: bool,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.inner = None; // release the real lock first
            if self.model {
                if let Some(h) = check::cur() {
                    h.ctrl.op_unlock(h.task, self.lock.addr());
                }
            }
        }
    }
}

/// Condition variable compatible with this module's [`MutexGuard`]. Model
/// waiters park in the scheduler, never on the real condvar, so notify
/// routing is exact and lost wakeups are observable.
#[derive(Debug, Default)]
pub struct Condvar {
    name: Option<&'static str>,
    inner: parking_lot::Condvar,
}

impl Condvar {
    #[inline]
    pub const fn new() -> Condvar {
        Condvar { name: None, inner: parking_lot::Condvar::new() }
    }

    #[inline]
    pub const fn named(name: &'static str) -> Condvar {
        Condvar { name: Some(name), inner: parking_lot::Condvar::new() }
    }

    fn addr(&self) -> usize {
        thin_addr(self as *const Condvar)
    }

    fn trace_name(&self) -> &'static str {
        self.name.unwrap_or("condvar")
    }

    pub fn notify_one(&self) -> bool {
        if let Some(h) = check::cur() {
            return h.ctrl.op_cv_notify(h.task, self.addr(), self.trace_name(), false) > 0;
        }
        self.inner.notify_one()
    }

    pub fn notify_all(&self) -> usize {
        if let Some(h) = check::cur() {
            return h.ctrl.op_cv_notify(h.task, self.addr(), self.trace_name(), true);
        }
        self.inner.notify_all()
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if guard.model {
            if let Some(h) = check::cur() {
                let lock = guard.lock;
                guard.inner = None; // release the real mutex for the wait
                let _ =
                    h.ctrl.op_cv_wait(h.task, self.addr(), self.trace_name(), lock.addr(), false);
                guard.inner = Some(lock.inner.lock());
                return;
            }
        }
        self.inner.wait(guard.inner.as_mut().expect("guard present"));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if guard.model {
            if let Some(h) = check::cur() {
                let lock = guard.lock;
                guard.inner = None;
                let timed_out =
                    h.ctrl.op_cv_wait(h.task, self.addr(), self.trace_name(), lock.addr(), true);
                guard.inner = Some(lock.inner.lock());
                return WaitTimeoutResult(timed_out);
            }
        }
        WaitTimeoutResult(
            self.inner.wait_for(guard.inner.as_mut().expect("guard present"), timeout).timed_out(),
        )
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        if guard.model && check::cur().is_some() {
            return self.wait_for(guard, Duration::from_secs(0));
        }
        WaitTimeoutResult(
            self.inner
                .wait_until(guard.inner.as_mut().expect("guard present"), deadline)
                .timed_out(),
        )
    }
}

/// Unbounded MPMC channels over the crossbeam shim, with modeled blocking.
pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex as StdMutex};
    use std::time::Duration;

    pub use crossbeam::channel::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    use super::check::{self, Handle, RecvMode, RecvOutcome};

    pub(super) struct ChanMeta {
        name: Option<&'static str>,
        /// `(controller token, channel id)` cache for the current run.
        reg: StdMutex<Option<(u64, u64)>>,
        /// Live sender count, tracked unconditionally so a run that first
        /// touches the channel mid-life seeds the model correctly.
        senders: AtomicUsize,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        make(None)
    }

    /// Like [`unbounded`] with a trace/model name.
    pub fn unbounded_named<T>(name: &'static str) -> (Sender<T>, Receiver<T>) {
        make(Some(name))
    }

    fn make<T>(name: Option<&'static str>) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let meta =
            Arc::new(ChanMeta { name, reg: StdMutex::new(None), senders: AtomicUsize::new(1) });
        (Sender { inner: tx, meta: Arc::clone(&meta) }, Receiver { inner: rx, meta })
    }

    fn model_id(meta: &ChanMeta, h: &Handle, real_len: usize) -> u64 {
        h.ctrl.ensure_chan(&meta.reg, meta.name, meta.senders.load(Ordering::SeqCst), real_len)
    }

    /// The channel's id for this run, only if it is already registered.
    fn registered_id(meta: &ChanMeta, h: &Handle) -> Option<u64> {
        let slot = meta.reg.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match *slot {
            Some((tok, id)) if tok == h.ctrl.token => Some(id),
            _ => None,
        }
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        inner: crossbeam::channel::Sender<T>,
        meta: Arc<ChanMeta>,
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if let Some(h) = check::cur() {
                let id = model_id(&self.meta, &h, 0);
                h.ctrl.op_yield(h.task);
                let r = self.inner.send(value);
                if r.is_ok() {
                    h.ctrl.op_chan_send_commit(h.task, id);
                }
                return r;
            }
            self.inner.send(value)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.meta.senders.fetch_add(1, Ordering::SeqCst);
            if let Some(h) = check::cur() {
                if let Some(id) = registered_id(&self.meta, &h) {
                    h.ctrl.chan_sender_cloned(id);
                }
            }
            Sender { inner: self.inner.clone(), meta: Arc::clone(&self.meta) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.meta.senders.fetch_sub(1, Ordering::SeqCst);
            if let Some(h) = check::cur() {
                if let Some(id) = registered_id(&self.meta, &h) {
                    h.ctrl.chan_sender_dropped(h.task, id);
                }
            }
        }
    }

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        inner: crossbeam::channel::Receiver<T>,
        meta: Arc<ChanMeta>,
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            if let Some(h) = check::cur() {
                let id = model_id(&self.meta, &h, self.inner.len());
                return match h.ctrl.op_chan_recv(h.task, id, RecvMode::Block) {
                    RecvOutcome::Data => Ok(self.inner.try_recv().expect("model granted data")),
                    _ => Err(RecvError),
                };
            }
            self.inner.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if let Some(h) = check::cur() {
                let id = model_id(&self.meta, &h, self.inner.len());
                return match h.ctrl.op_chan_recv(h.task, id, RecvMode::Try) {
                    RecvOutcome::Data => Ok(self.inner.try_recv().expect("model granted data")),
                    RecvOutcome::Empty => Err(TryRecvError::Empty),
                    _ => Err(TryRecvError::Disconnected),
                };
            }
            self.inner.try_recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            if let Some(h) = check::cur() {
                let id = model_id(&self.meta, &h, self.inner.len());
                return match h.ctrl.op_chan_recv(h.task, id, RecvMode::Timed) {
                    RecvOutcome::Data => Ok(self.inner.try_recv().expect("model granted data")),
                    RecvOutcome::TimedOut => Err(RecvTimeoutError::Timeout),
                    _ => Err(RecvTimeoutError::Disconnected),
                };
            }
            self.inner.recv_timeout(timeout)
        }

        /// Committed sends are atomic with respect to scheduling, so the
        /// real queue length is exact even under the model.
        pub fn is_empty(&self) -> bool {
            self.inner.is_empty()
        }

        pub fn len(&self) -> usize {
            self.inner.len()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            Receiver { inner: self.inner.clone(), meta: Arc::clone(&self.meta) }
        }
    }
}

/// Thread spawning; model tasks are registered with the scheduler and
/// parked until granted, and `join` is a modeled blocking operation.
pub mod thread {
    use std::io;
    use std::sync::Arc;

    use super::check::{self, task_body, Controller};

    pub struct JoinHandle<T>(Imp<T>);

    enum Imp<T> {
        Plain(std::thread::JoinHandle<T>),
        Model { real: std::thread::JoinHandle<Option<T>>, ctrl: Arc<Controller>, task: u32 },
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Imp::Plain(h) => h.join(),
                Imp::Model { real, ctrl, task } => {
                    if let Some(h) = check::cur() {
                        ctrl.op_join(h.task, task);
                    }
                    match real.join() {
                        Ok(Some(v)) => Ok(v),
                        Ok(None) => Err(Box::new("model task panicked".to_string())),
                        Err(e) => Err(e),
                    }
                }
            }
        }

        pub fn is_finished(&self) -> bool {
            match &self.0 {
                Imp::Plain(h) => h.is_finished(),
                Imp::Model { real, .. } => real.is_finished(),
            }
        }
    }

    pub struct Builder {
        inner: std::thread::Builder,
    }

    impl Default for Builder {
        fn default() -> Builder {
            Builder::new()
        }
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder { inner: std::thread::Builder::new() }
        }

        pub fn name(self, name: String) -> Builder {
            Builder { inner: self.inner.name(name) }
        }

        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if let Some(h) = check::cur() {
                let id = h.ctrl.op_spawn(h.task);
                let ctrl = Arc::clone(&h.ctrl);
                let real = self.inner.spawn(move || task_body(ctrl, id, f))?;
                return Ok(JoinHandle(Imp::Model { real, ctrl: h.ctrl, task: id }));
            }
            Ok(JoinHandle(Imp::Plain(self.inner.spawn(f)?)))
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }
}

#[cfg(test)]
mod tests {
    //! The path outside an explorer — the one production takes.
    use super::*;
    use std::sync::Arc;

    #[test]
    fn facade_roundtrip() {
        let m = Mutex::named("test.m", 1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_and_channel_work() {
        let pair = Arc::new((Mutex::new(false), Condvar::named("test.cv")));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();

        let (tx, rx) = channel::unbounded_named("test.chan");
        tx.send(5).unwrap();
        assert_eq!(rx.recv(), Ok(5));
    }
}
