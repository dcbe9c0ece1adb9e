//! The sharded event loop.
//!
//! A [`Reactor`] owns N shard threads, each running one epoll instance,
//! one timer wheel, and one command [`Mailbox`] whose waker is the
//! shard's eventfd. Callers register [`EventHandler`]s (each owning at
//! most one fd); handlers are pinned to a shard for life, so everything a
//! handler touches is single-threaded — no locks inside handlers, per-fd
//! ordering for free. Besides installing a handler and stopping the shard,
//! cross-thread interaction with a handler is one command, `Notify` (data
//! was queued for you, flush when ready); a handler closes itself by
//! returning [`Action::Close`].
//!
//! Connections come in one way: [`Reactor::listen`] installs one acceptor
//! that hands every accepted stream, nonblocking and `TCP_NODELAY`, to the
//! caller's handler on the next shard in turn. Handlers read through
//! [`read_budgeted`], so no connection takes more than
//! [`MAX_READS_PER_WAKE`] reads of its shard's turn.
//!
//! The wakeup protocol: a producer pushes a command, and iff the mailbox
//! was empty it rings the shard's eventfd; `epoll_wait` returns, the
//! shard drains the eventfd, then the mailbox, then expired timers. A
//! non-empty mailbox already has a ring in flight, so steady-state
//! producers pay one queue push and no syscall.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_sync::{thread, Mutex};

use crate::mailbox::{Mailbox, Waker};
use crate::sys::{self, Epoll, EpollEvent, EventFd};
use crate::wheel::{Expired, TimerId, TimerWheel};

/// Identifies one registered handler; the owning shard lives in the high
/// bits so any thread can route a command from the token alone.
pub type Token = u64;

const SHARD_SHIFT: u32 = 48;
/// Reserved epoll token for the shard's own wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

fn shard_of(token: Token) -> usize {
    (token >> SHARD_SHIFT) as usize
}

/// Milliseconds per timer-wheel tick: the resolution of every
/// [`ShardCtx::arm_timer`] delay, which is rounded up to whole ticks.
pub const TICK_MS: u64 = 5;
/// Wheel slots per shard (horizon = slots * TICK_MS per revolution).
const WHEEL_SLOTS: usize = 512;
/// Longest `epoll_wait` nap even with no timers armed, so a shard always
/// notices shutdown promptly even if a wakeup is somehow lost.
const MAX_WAIT_MS: i32 = 500;
/// Events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Shared per-shard read scratch handed to handlers.
const SCRATCH_BYTES: usize = 64 * 1024;
/// Reads a single wake-up may issue before yielding the shard, so one
/// firehose connection cannot starve its shard-mates (level-triggered
/// epoll re-reports unread data immediately).
pub const MAX_READS_PER_WAKE: usize = 16;

/// What a handler callback tells the shard to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep the handler installed.
    Continue,
    /// Tear the handler down: deregister its fd, call `on_close`, drop it.
    Close,
}

/// A per-connection (or per-listener, per-socket) state machine living on
/// one shard. Handlers own their fd; the shard only manages epoll
/// membership and timers for it.
pub trait EventHandler: Send {
    /// Called once, on the owning shard, when the handler is installed.
    /// Register the fd / start the connect / arm timers here.
    fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action;

    /// The registered fd reported readiness.
    fn on_ready(&mut self, ctx: &mut ShardCtx<'_>, readable: bool, writable: bool) -> Action;

    /// A timer armed via [`ShardCtx::arm_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut ShardCtx<'_>, _tag: u64) -> Action {
        Action::Continue
    }

    /// A cross-thread [`Reactor::notify`] arrived for this handler.
    fn on_notify(&mut self, _ctx: &mut ShardCtx<'_>) -> Action {
        Action::Continue
    }

    /// The handler is being removed (`Action::Close` or reactor shutdown).
    /// The fd is already out of the epoll set.
    fn on_close(&mut self) {}
}

/// Shard-side services exposed to handler callbacks.
pub struct ShardCtx<'a> {
    token: Token,
    epoll: &'a Epoll,
    wheel: &'a mut TimerWheel,
    fd: &'a mut Option<RawFd>,
    interest: &'a mut u32,
    scratch: &'a mut Vec<u8>,
}

impl ShardCtx<'_> {
    /// This handler's token (for storing where other threads can see it).
    pub fn token(&self) -> Token {
        self.token
    }

    fn events_mask(readable: bool, writable: bool) -> u32 {
        let mut ev = 0;
        if readable {
            ev |= sys::EPOLLIN;
        }
        if writable {
            ev |= sys::EPOLLOUT;
        }
        ev
    }

    /// Put `fd` (the handler's one fd) into the shard's epoll set.
    pub fn register_fd(&mut self, fd: RawFd, readable: bool, writable: bool) -> io::Result<()> {
        let ev = Self::events_mask(readable, writable);
        self.epoll.add(fd, ev, self.token)?;
        *self.fd = Some(fd);
        *self.interest = ev;
        Ok(())
    }

    /// Change readiness interest for the registered fd.
    pub fn set_interest(&mut self, readable: bool, writable: bool) -> io::Result<()> {
        let Some(fd) = *self.fd else { return Ok(()) };
        let ev = Self::events_mask(readable, writable);
        if ev == *self.interest {
            return Ok(());
        }
        self.epoll.modify(fd, ev, self.token)?;
        *self.interest = ev;
        Ok(())
    }

    /// Remove the registered fd from the epoll set (does not close it —
    /// the handler owns the fd).
    pub fn deregister_fd(&mut self) {
        if let Some(fd) = self.fd.take() {
            let _ = self.epoll.delete(fd);
        }
        *self.interest = 0;
    }

    /// Arm a one-shot timer; `tag` comes back in `on_timer`.
    pub fn arm_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        let ticks = (delay.as_millis() as u64).div_ceil(TICK_MS).max(1);
        self.wheel.insert(ticks, self.token, tag)
    }

    /// Cancel an armed timer; false if it already fired.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.wheel.cancel(id)
    }

    /// Borrow the shard's shared read scratch (return it when done so the
    /// next handler on this shard reuses the allocation).
    pub fn take_scratch(&mut self) -> Vec<u8> {
        let mut buf = std::mem::take(self.scratch);
        if buf.len() < SCRATCH_BYTES {
            buf.resize(SCRATCH_BYTES, 0);
        }
        buf
    }

    pub fn put_scratch(&mut self, buf: Vec<u8>) {
        *self.scratch = buf;
    }
}

enum Command {
    Add { token: Token, handler: Box<dyn EventHandler> },
    Notify { token: Token },
    Shutdown,
}

struct Slot {
    handler: Box<dyn EventHandler>,
    fd: Option<RawFd>,
    interest: u32,
}

struct EventFdWaker(Arc<EventFd>);

impl Waker for EventFdWaker {
    fn wake(&self) {
        self.0.ring();
    }
}

struct ShardHandle {
    mailbox: Arc<Mailbox<Command>>,
    wakeup: Arc<EventFd>,
}

/// Every shard's mailbox and the token sequence: what installing a handler
/// needs, shared by the [`Reactor`] and its acceptors.
struct Shards {
    handles: Vec<ShardHandle>,
    next_token: AtomicU64,
}

impl Shards {
    fn register_on(&self, shard: usize, handler: Box<dyn EventHandler>) -> Token {
        let shard = shard % self.handles.len();
        let seq = self.next_token.fetch_add(1, Ordering::Relaxed);
        let token = ((shard as u64) << SHARD_SHIFT) | (seq & ((1 << SHARD_SHIFT) - 1));
        self.handles[shard].mailbox.push(Command::Add { token, handler });
        token
    }
}

/// The sharded event loop, owned by whoever serves on it; shuts down when
/// [`Reactor::shutdown`] is called or it drops.
pub struct Reactor {
    shards: Arc<Shards>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Reactor {
    /// Spawn `shards` event-loop threads named `cn-reactor-<name>-<i>`; 0
    /// means [`default_shards`](crate::default_shards).
    pub fn new(name: &str, shards: usize) -> io::Result<Reactor> {
        let shards = if shards == 0 { crate::default_shards() } else { shards };
        let mut handles = Vec::with_capacity(shards);
        let mut runners = Vec::with_capacity(shards);
        for _ in 0..shards {
            let wakeup = Arc::new(EventFd::new()?);
            let epoll = Epoll::new()?;
            epoll.add(wakeup.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)?;
            let mailbox = Arc::new(Mailbox::new(Box::new(EventFdWaker(Arc::clone(&wakeup)))));
            handles
                .push(ShardHandle { mailbox: Arc::clone(&mailbox), wakeup: Arc::clone(&wakeup) });
            runners.push(Shard {
                epoll,
                wakeup,
                mailbox,
                slots: HashMap::new(),
                wheel: TimerWheel::new(WHEEL_SLOTS),
                start: Instant::now(),
                scratch: vec![0; SCRATCH_BYTES],
                shutting_down: false,
            });
        }
        let reactor = Reactor {
            shards: Arc::new(Shards { handles, next_token: AtomicU64::new(1) }),
            threads: Mutex::named("reactor.threads", Vec::new()),
            stopped: AtomicBool::new(false),
        };
        let mut threads = Vec::with_capacity(shards);
        for (idx, shard) in runners.into_iter().enumerate() {
            let t = thread::Builder::new()
                .name(format!("cn-reactor-{name}-{idx}"))
                .spawn(move || shard.run())
                .map_err(|e| io::Error::other(format!("spawn reactor shard: {e}")))?;
            threads.push(t);
        }
        *reactor.threads.lock() = threads;
        Ok(reactor)
    }

    pub fn shards(&self) -> usize {
        self.shards.handles.len()
    }

    /// Install a handler on the shard `key` hashes to and return its
    /// token. The handler's `on_register` runs asynchronously on that
    /// shard; if the reactor is already shut down the handler is simply
    /// dropped (its `Drop` releases the fd).
    pub fn register_hashed(&self, key: u64, handler: Box<dyn EventHandler>) -> Token {
        self.register_on((key % self.shards() as u64) as usize, handler)
    }

    /// Install a handler on a specific shard.
    pub fn register_on(&self, shard: usize, handler: Box<dyn EventHandler>) -> Token {
        self.shards.register_on(shard, handler)
    }

    /// Serve `listener` from shard 0: every connection it accepts is made
    /// nonblocking with `TCP_NODELAY` and handed to `make`, whose handler
    /// is installed on the next shard in turn.
    pub fn listen<F>(&self, listener: TcpListener, make: F) -> io::Result<()>
    where
        F: FnMut(TcpStream, SocketAddr) -> Box<dyn EventHandler> + Send + 'static,
    {
        listener.set_nonblocking(true)?;
        let shards = Arc::clone(&self.shards);
        self.register_on(0, Box::new(Acceptor { shards, listener, make, next: 0 }));
        Ok(())
    }

    /// Tell `token`'s handler that cross-thread work was queued for it.
    pub fn notify(&self, token: Token) {
        let shard = shard_of(token) % self.shards();
        self.shards.handles[shard].mailbox.push(Command::Notify { token });
    }

    /// Stop every shard and join the threads. Idempotent. Must not be
    /// called from inside a handler callback (it joins the very thread
    /// the callback runs on).
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards.handles {
            shard.mailbox.push(Command::Shutdown);
            shard.mailbox.stop();
            shard.wakeup.ring();
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`Reactor::listen`]'s handler: accepts until `WouldBlock` and spreads
/// the connections round-robin over the shards.
struct Acceptor<F> {
    shards: Arc<Shards>,
    listener: TcpListener,
    make: F,
    next: usize,
}

impl<F> EventHandler for Acceptor<F>
where
    F: FnMut(TcpStream, SocketAddr) -> Box<dyn EventHandler> + Send,
{
    fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        match ctx.register_fd(self.listener.as_raw_fd(), true, false) {
            Ok(()) => Action::Continue,
            Err(_) => Action::Close,
        }
    }

    fn on_ready(&mut self, _ctx: &mut ShardCtx<'_>, _readable: bool, _writable: bool) -> Action {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let handler = (self.make)(stream, peer);
                    self.shards.register_on(self.next, handler);
                    self.next = (self.next + 1) % self.shards.handles.len();
                }
                // `WouldBlock` ends the burst; any other error (EMFILE, a
                // connection reset while queued) waits for the next wake.
                Err(_) => return Action::Continue,
            }
        }
    }
}

/// How a [`read_budgeted`] pass ended.
pub enum ReadOutcome {
    /// Drained to `WouldBlock`, or the read budget is spent and epoll
    /// reports the rest on the next wake.
    KeepOpen,
    /// The peer closed its half.
    Eof,
    /// The consumer refused what it was handed.
    Refused,
    /// The read failed.
    Failed(io::Error),
}

/// Read `src` into `buf` at most [`MAX_READS_PER_WAKE`] times, handing
/// each read's bytes to `take`, which returns `false` to stop reading.
pub fn read_budgeted(
    src: &mut impl Read,
    buf: &mut [u8],
    mut take: impl FnMut(&[u8]) -> bool,
) -> ReadOutcome {
    for _ in 0..MAX_READS_PER_WAKE {
        match src.read(buf) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                if !take(&buf[..n]) {
                    return ReadOutcome::Refused;
                }
            }
            Err(e) if sys::is_would_block(&e) => return ReadOutcome::KeepOpen,
            Err(e) => return ReadOutcome::Failed(e),
        }
    }
    ReadOutcome::KeepOpen
}

struct Shard {
    epoll: Epoll,
    wakeup: Arc<EventFd>,
    mailbox: Arc<Mailbox<Command>>,
    slots: HashMap<Token, Slot>,
    wheel: TimerWheel,
    start: Instant,
    scratch: Vec<u8>,
    shutting_down: bool,
}

impl Shard {
    fn now_tick(&self) -> u64 {
        (self.start.elapsed().as_millis() as u64) / TICK_MS
    }

    fn wait_timeout_ms(&self) -> i32 {
        match self.wheel.next_deadline() {
            Some(deadline) => {
                let due_ms = deadline * TICK_MS;
                let elapsed = self.start.elapsed().as_millis() as u64;
                ((due_ms.saturating_sub(elapsed)) as i32).clamp(0, MAX_WAIT_MS)
            }
            None => MAX_WAIT_MS,
        }
    }

    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
        let mut commands: Vec<Command> = Vec::new();
        let mut fired: Vec<Expired> = Vec::new();
        loop {
            let timeout = self.wait_timeout_ms();
            let n = self.epoll.wait(&mut events, timeout).unwrap_or_default();
            for ev in &events[..n] {
                if ev.token() == WAKE_TOKEN {
                    self.wakeup.drain();
                } else {
                    let (r, w) = (ev.readable(), ev.writable());
                    self.invoke(ev.token(), |h, ctx| h.on_ready(ctx, r, w));
                }
            }

            commands.clear();
            self.mailbox.try_drain(&mut commands);
            for cmd in commands.drain(..) {
                match cmd {
                    Command::Add { token, handler } => {
                        self.slots.insert(token, Slot { handler, fd: None, interest: 0 });
                        self.invoke(token, |h, ctx| h.on_register(ctx));
                    }
                    Command::Notify { token } => {
                        self.invoke(token, |h, ctx| h.on_notify(ctx));
                    }
                    Command::Shutdown => self.shutting_down = true,
                }
            }

            fired.clear();
            self.wheel.advance(self.now_tick(), &mut fired);
            for exp in fired.drain(..) {
                let tag = exp.tag;
                self.invoke(exp.token, |h, ctx| h.on_timer(ctx, tag));
            }

            if self.shutting_down {
                for (_, slot) in self.slots.drain() {
                    if let Some(fd) = slot.fd {
                        let _ = self.epoll.delete(fd);
                    }
                    let mut slot = slot;
                    slot.handler.on_close();
                }
                return;
            }
        }
    }

    /// Run one handler callback with the slot temporarily removed, so the
    /// callback gets `&mut` to both the handler and the shard services.
    fn invoke(
        &mut self,
        token: Token,
        f: impl FnOnce(&mut dyn EventHandler, &mut ShardCtx<'_>) -> Action,
    ) {
        let Some(mut slot) = self.slots.remove(&token) else { return };
        let mut ctx = ShardCtx {
            token,
            epoll: &self.epoll,
            wheel: &mut self.wheel,
            fd: &mut slot.fd,
            interest: &mut slot.interest,
            scratch: &mut self.scratch,
        };
        match f(slot.handler.as_mut(), &mut ctx) {
            Action::Continue => {
                self.slots.insert(token, slot);
            }
            Action::Close => self.teardown(slot),
        }
    }

    fn teardown(&mut self, mut slot: Slot) {
        if let Some(fd) = slot.fd.take() {
            let _ = self.epoll.delete(fd);
        }
        slot.handler.on_close();
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use cn_sync::channel::unbounded_named;

    struct TimerProbe {
        tx: cn_sync::channel::Sender<&'static str>,
    }

    impl EventHandler for TimerProbe {
        fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
            let a = ctx.arm_timer(Duration::from_millis(10), 1);
            ctx.arm_timer(Duration::from_millis(30), 2);
            let cancelled = ctx.arm_timer(Duration::from_millis(20), 3);
            assert!(ctx.cancel_timer(cancelled));
            let _ = a;
            self.tx.send("registered").unwrap();
            Action::Continue
        }

        fn on_ready(&mut self, _ctx: &mut ShardCtx<'_>, _r: bool, _w: bool) -> Action {
            Action::Continue
        }

        fn on_timer(&mut self, _ctx: &mut ShardCtx<'_>, tag: u64) -> Action {
            match tag {
                1 => {
                    self.tx.send("t1").unwrap();
                    Action::Continue
                }
                2 => {
                    self.tx.send("t2").unwrap();
                    Action::Close
                }
                _ => panic!("cancelled timer fired"),
            }
        }

        fn on_notify(&mut self, _ctx: &mut ShardCtx<'_>) -> Action {
            self.tx.send("notified").unwrap();
            Action::Continue
        }

        fn on_close(&mut self) {
            self.tx.send("closed").unwrap();
        }
    }

    #[test]
    fn timers_notifies_and_shutdown_reach_the_handler() {
        let reactor = Reactor::new("test", 2).unwrap();
        assert_eq!(reactor.shards(), 2);
        let (tx, rx) = unbounded_named("reactor.test");
        let token = reactor.register_hashed(7, Box::new(TimerProbe { tx }));
        let within = Duration::from_secs(2);
        assert_eq!(rx.recv_timeout(within).unwrap(), "registered");
        reactor.notify(token);
        assert_eq!(rx.recv_timeout(within).unwrap(), "notified");
        assert_eq!(rx.recv_timeout(within).unwrap(), "t1");
        assert_eq!(rx.recv_timeout(within).unwrap(), "t2");
        // tag 2 returned Close: teardown follows, cancelled tag 3 never fires.
        assert_eq!(rx.recv_timeout(within).unwrap(), "closed");
        reactor.shutdown();
        assert!(rx.try_recv().is_err());
    }

    struct Idle {
        tx: cn_sync::channel::Sender<&'static str>,
    }

    impl EventHandler for Idle {
        fn on_register(&mut self, _ctx: &mut ShardCtx<'_>) -> Action {
            Action::Continue
        }
        fn on_ready(&mut self, _ctx: &mut ShardCtx<'_>, _r: bool, _w: bool) -> Action {
            Action::Continue
        }
        fn on_close(&mut self) {
            self.tx.send("closed").unwrap();
        }
    }

    #[test]
    fn shutdown_closes_every_live_handler() {
        let reactor = Reactor::new("drain", 1).unwrap();
        let (tx, rx) = unbounded_named("reactor.drain");
        for _ in 0..3 {
            reactor.register_on(0, Box::new(Idle { tx: tx.clone() }));
        }
        reactor.shutdown();
        for _ in 0..3 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), "closed");
        }
    }

    /// Echoes what its stream sent, with the shard it was installed on.
    struct StreamProbe {
        stream: TcpStream,
        tx: cn_sync::channel::Sender<(usize, Vec<u8>)>,
    }

    impl EventHandler for StreamProbe {
        fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
            match ctx.register_fd(self.stream.as_raw_fd(), true, false) {
                Ok(()) => Action::Continue,
                Err(_) => Action::Close,
            }
        }

        fn on_ready(&mut self, ctx: &mut ShardCtx<'_>, _r: bool, _w: bool) -> Action {
            let shard = shard_of(ctx.token());
            let mut buf = ctx.take_scratch();
            let mut got = Vec::new();
            let outcome = read_budgeted(&mut self.stream, &mut buf, |bytes| {
                got.extend_from_slice(bytes);
                true
            });
            ctx.put_scratch(buf);
            if !got.is_empty() {
                self.tx.send((shard, got)).unwrap();
            }
            match outcome {
                ReadOutcome::KeepOpen => Action::Continue,
                _ => Action::Close,
            }
        }
    }

    #[test]
    fn accepted_connections_take_the_shards_in_turn() {
        use std::io::Write;
        let reactor = Reactor::new("accept", 3).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let at = listener.local_addr().unwrap();
        let (tx, rx) = unbounded_named("reactor.accept");
        reactor
            .listen(listener, move |stream, peer| {
                assert!(peer.ip().is_loopback());
                Box::new(StreamProbe { stream, tx: tx.clone() })
            })
            .unwrap();
        // One connection at a time, so the accept order is the connect order.
        let mut clients = Vec::new();
        for i in 0..7u8 {
            let mut client = TcpStream::connect(at).unwrap();
            client.write_all(&[i]).unwrap();
            let (shard, got) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got, [i], "connection {i} reached its own handler");
            assert_eq!(shard, usize::from(i) % 3, "connection {i}");
            clients.push(client);
        }
        reactor.shutdown();
    }
}
