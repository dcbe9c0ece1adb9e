//! The TaskManager's tasks as a value, like `placement::Round` and
//! `job::Job`: the server's loop hands [`Tasks`] the TaskManager's messages
//! and each task it has hosted (reserved for and registered), and carries out
//! the [`Action`]s it gets back. `now` is an argument, so the dispatch
//! latency the bids carry is measured on whatever clock the caller keeps.
//! `H` is what the server holds for a hosted task's endpoint, `R` its
//! reservation.
//!
//! | stage | entered on | holds |
//! |---|---|---|
//! | assigned | `AssignTask`, hosted | `H`, `R` |
//! | queued | `StartTask` | `H`, `R` |
//! | running | a free slot: `Launch` | nothing: its thread has both |
//!
//! A task leaves on `TaskExited` (running) or `CancelTask` (assigned,
//! queued); a running task that is cancelled is told to stop, and leaves as
//! its thread ends.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use cn_cluster::Addr;

use crate::message::{JobId, NetMsg, TaskSpec};
use crate::scheduler::{Ewma, LoadSignal};

type Key = (JobId, String);

pub(crate) enum Event<H, R> {
    /// A TaskManager message: `StartTask`, `CancelTask` or `TaskExited`.
    Net(NetMsg),
    /// The task of an `AssignTask`, hosted at `endpoint`.
    Hosted { job: JobId, spec: TaskSpec, jm: Addr, endpoint: Addr, held: H, reservation: R },
}

pub(crate) enum Action<H, R> {
    /// Run a task on a thread.
    Launch(Launch<H, R>),
    /// Tell the running task at `endpoint` to stop.
    Stop { endpoint: Addr },
    /// Unregister `endpoint`: what held it here has gone.
    Release { endpoint: Addr },
}

/// A task to run, with what holds its endpoint and its reservation.
pub(crate) struct Launch<H, R> {
    pub(crate) job: JobId,
    pub(crate) spec: TaskSpec,
    pub(crate) jm: Addr,
    pub(crate) endpoint: Addr,
    pub(crate) directory: HashMap<String, Addr>,
    pub(crate) held: H,
    pub(crate) reservation: R,
}

struct Task<H, R> {
    spec: TaskSpec,
    /// The JobManager its lifecycle goes to.
    jm: Addr,
    endpoint: Addr,
    held: Option<H>,
    reservation: Option<R>,
    stage: Stage,
}

enum Stage {
    Assigned,
    Queued,
    Running,
}

pub(crate) struct Tasks<H, R> {
    /// Tasks that may run at once: `exec_slots`, unbounded when unset.
    slots: usize,
    tasks: HashMap<Key, Task<H, R>>,
    /// Started tasks waiting for a slot, their directories, and since when.
    queue: VecDeque<(Key, HashMap<String, Addr>, Instant)>,
    running: usize,
    /// Queue-to-launch latency, the third part of [`LoadSignal`].
    dispatch: Ewma,
    actions: Vec<Action<H, R>>,
}

impl<H, R> Tasks<H, R> {
    pub(crate) fn new(exec_slots: Option<usize>) -> Self {
        Tasks {
            slots: exec_slots.unwrap_or(usize::MAX),
            tasks: HashMap::new(),
            queue: VecDeque::new(),
            running: 0,
            dispatch: Ewma::default(),
            actions: Vec::new(),
        }
    }

    /// The load this TaskManager advertises in its bids.
    pub(crate) fn signal(&self) -> LoadSignal {
        let (queue_depth, in_flight) = (self.queue.len() as u32, self.running as u32);
        LoadSignal { queue_depth, in_flight, ewma_dispatch_us: self.dispatch.get() }
    }

    /// Take `event` in at `now` and say what to do about it.
    pub(crate) fn on(&mut self, event: Event<H, R>, now: Instant) -> Vec<Action<H, R>> {
        match event {
            Event::Net(NetMsg::StartTask { job, task, directory, .. }) => {
                self.start((job, task), directory, now)
            }
            Event::Net(NetMsg::CancelTask { job, task }) => self.cancel((job, task)),
            Event::Net(NetMsg::TaskExited { job, task }) => self.exited((job, task), now),
            Event::Net(_) => {}
            Event::Hosted { job, spec, jm, endpoint, held, reservation } => {
                let (held, reservation, stage) = (Some(held), Some(reservation), Stage::Assigned);
                let t = Task { spec, jm, endpoint, held, reservation, stage };
                self.tasks.insert((job, t.spec.name.clone()), t);
            }
        }
        std::mem::take(&mut self.actions)
    }

    /// Queue a started task and launch what slots are free for.
    fn start(&mut self, key: Key, directory: HashMap<String, Addr>, now: Instant) {
        let Some(t) = self.tasks.get_mut(&key) else { return };
        if matches!(t.stage, Stage::Assigned) {
            t.stage = Stage::Queued;
            self.queue.push_back((key, directory, now));
            self.drain(now);
        }
    }

    /// Launch queued tasks, oldest first, while a slot is free.
    fn drain(&mut self, now: Instant) {
        while self.running < self.slots {
            let Some((key, directory, since)) = self.queue.pop_front() else { break };
            let Some(t) = self.tasks.get_mut(&key) else { continue };
            let (Some(held), Some(reservation)) = (t.held.take(), t.reservation.take()) else {
                continue;
            };
            t.stage = Stage::Running;
            self.running += 1;
            self.dispatch.observe(now.duration_since(since).as_micros() as u64);
            let (job, spec, jm, endpoint) = (key.0, t.spec.clone(), t.jm, t.endpoint);
            let launch = Launch { job, spec, jm, endpoint, directory, held, reservation };
            self.actions.push(Action::Launch(launch));
        }
    }

    /// A running task is told to stop (it leaves as its thread ends); an
    /// assigned or queued one leaves now, and its reservation with it.
    fn cancel(&mut self, key: Key) {
        let Some(t) = self.tasks.get(&key) else { return };
        let endpoint = t.endpoint;
        if matches!(t.stage, Stage::Running) {
            return self.actions.push(Action::Stop { endpoint });
        }
        self.queue.retain(|(k, ..)| *k != key);
        self.tasks.remove(&key);
        self.actions.push(Action::Release { endpoint });
    }

    /// A task's thread has ended, its endpoint with it: its slot takes the
    /// next queued task.
    fn exited(&mut self, key: Key, now: Instant) {
        if self.tasks.get(&key).is_some_and(|t| matches!(t.stage, Stage::Running)) {
            self.tasks.remove(&key);
            self.running -= 1;
        }
        self.drain(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::rc::Rc;
    use std::time::Duration;

    /// Stands in for what the server holds for a hosted task (its endpoint's
    /// queue, its reservation): it counts itself while it lives.
    struct Token(Rc<Cell<i64>>);

    impl Token {
        fn new(live: &Rc<Cell<i64>>) -> Token {
            live.set(live.get() + 1);
            Token(Rc::clone(live))
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            self.0.set(self.0.get() - 1);
        }
    }

    type Tm = Tasks<Token, Token>;

    const JM: Addr = Addr(100);
    const CLIENT: Addr = Addr(200);

    fn key(i: usize) -> Key {
        (JobId(1 + i as u64 % 2), format!("t{i}"))
    }

    fn index(key: &Key) -> usize {
        key.1[1..].parse().unwrap()
    }

    /// A tiny deterministic die for the interleavings (xorshift).
    struct Dice(u64);

    impl Dice {
        fn roll(&mut self, sides: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % sides.max(1) as u64) as usize
        }
    }

    /// Where an endpoint stands, as the server around the value sees it.
    enum Ep {
        /// Registered: its task waits to run.
        Queue,
        /// Its task runs on a thread, which holds the tokens; `stop` once it
        /// has been told to.
        Running { key: Key, at: usize, stop: bool, _held: (Token, Token) },
        /// Unregistered by its TaskManager ([`Action::Release`]).
        Released,
        /// Unregistered by its task's thread as it ended.
        Gone,
    }

    /// What the JobManager knows of a task.
    #[derive(Default)]
    struct Fate {
        placed: Option<usize>,
        refused: bool,
        started: bool,
        cancelled: bool,
        launched: usize,
    }

    /// What is in flight: a message for TaskManager `.0`, or a stop for the
    /// endpoint `.1`.
    enum Mail {
        Tm(usize, NetMsg),
        Stop(Addr),
    }

    /// TaskManagers, the JobManager of their tasks and the threads and
    /// endpoints around them, on a synthetic clock. What is sent waits in a
    /// mailbox that delivers in any order.
    struct World {
        tms: Vec<Tm>,
        now: Instant,
        dice: Dice,
        live: Rc<Cell<i64>>,
        mailbox: Vec<Mail>,
        endpoints: HashMap<Addr, Ep>,
        fates: Vec<Fate>,
    }

    impl World {
        fn new(tms: usize, slots: Option<usize>, tasks: usize, seed: u64) -> World {
            World {
                tms: (0..tms).map(|_| Tm::new(slots)).collect(),
                now: Instant::now(),
                dice: Dice(seed | 1),
                live: Rc::new(Cell::new(0)),
                mailbox: Vec::new(),
                endpoints: HashMap::new(),
                fates: (0..tasks).map(|_| Fate::default()).collect(),
            }
        }

        /// Hand TaskManager `at` the event, and carry out what it asks as its
        /// server would.
        fn on(&mut self, at: usize, event: Event<Token, Token>) -> Result<(), TestCaseError> {
            for action in self.tms[at].on(event, self.now) {
                self.carry(at, action)?;
            }
            let tm = &self.tms[at];
            let stage = |s: fn(&Stage) -> bool| tm.tasks.values().filter(|t| s(&t.stage)).count();
            prop_assert!(tm.running <= tm.slots, "{} running on {} slots", tm.running, tm.slots);
            prop_assert_eq!(tm.running, stage(|s| matches!(s, Stage::Running)));
            let queued = stage(|s| matches!(s, Stage::Queued));
            prop_assert_eq!(tm.signal().queue_depth as usize, queued);
            Ok(())
        }

        fn carry(&mut self, at: usize, action: Action<Token, Token>) -> Result<(), TestCaseError> {
            match action {
                Action::Launch(Launch { job, spec, endpoint, held, reservation, .. }) => {
                    let key = (job, spec.name);
                    let fate = &mut self.fates[index(&key)];
                    fate.launched += 1;
                    prop_assert!(fate.launched == 1, "{:?} launched twice", key);
                    let queued = matches!(self.endpoints.get(&endpoint), Some(Ep::Queue));
                    prop_assert!(queued, "a launch from a queue that is not");
                    let _held = (held, reservation);
                    let running = Ep::Running { key, at, stop: false, _held };
                    self.endpoints.insert(endpoint, running);
                }
                Action::Stop { endpoint } => {
                    // A stop never goes to an endpoint its TaskManager has
                    // unregistered: it could not be delivered.
                    let released = matches!(self.endpoints.get(&endpoint), Some(Ep::Released));
                    prop_assert!(!released, "a stop for released {:?}", endpoint);
                    self.mailbox.push(Mail::Stop(endpoint));
                }
                Action::Release { endpoint } => {
                    let was = self.endpoints.insert(endpoint, Ep::Released);
                    prop_assert!(matches!(was, Some(Ep::Queue)), "a release of {:?}", endpoint);
                }
            }
            Ok(())
        }

        fn deliver_any(&mut self) -> Result<bool, TestCaseError> {
            if self.mailbox.is_empty() {
                return Ok(false);
            }
            match self.mailbox.swap_remove(self.dice.roll(self.mailbox.len())) {
                Mail::Tm(at, msg) => self.on(at, Event::Net(msg))?,
                Mail::Stop(endpoint) => {
                    if let Some(Ep::Running { stop, .. }) = self.endpoints.get_mut(&endpoint) {
                        *stop = true;
                    }
                }
            }
            Ok(true)
        }

        /// A running task's thread ends: one cancelled only once it has been
        /// told to stop, the others when they like.
        fn exit_any(&mut self) -> Result<bool, TestCaseError> {
            let fates = &self.fates;
            let ending = |ep: &Ep| matches!(ep, Ep::Running { key, stop, .. } if *stop || !fates[index(key)].cancelled);
            let mut ends: Vec<Addr> =
                self.endpoints.iter().filter(|(_, ep)| ending(ep)).map(|(a, _)| *a).collect();
            ends.sort();
            if ends.is_empty() {
                return Ok(false);
            }
            let endpoint = ends[self.dice.roll(ends.len())];
            if let Some(Ep::Running { key: (job, task), at, .. }) =
                self.endpoints.insert(endpoint, Ep::Gone)
            {
                self.mailbox.push(Mail::Tm(at, NetMsg::TaskExited { job, task }));
            }
            Ok(true)
        }

        /// One step of the JobManager, the mailbox, a thread or the clock.
        fn step(&mut self) -> Result<(), TestCaseError> {
            let i = self.dice.roll(self.fates.len());
            let (job, task) = key(i);
            match self.dice.roll(16) {
                0..=2 if self.fates[i].placed.is_none() && !self.fates[i].refused => {
                    // Hosting fails now and then (no room, no archive), and
                    // the task is refused without the tasks hearing of it.
                    if self.dice.roll(6) == 0 {
                        self.fates[i].refused = true;
                        return Ok(());
                    }
                    // The first TaskManager gets the most, so queues form.
                    let at = if self.dice.roll(4) > 0 { 0 } else { self.dice.roll(self.tms.len()) };
                    let endpoint = Addr(1000 + self.endpoints.len() as u64);
                    self.endpoints.insert(endpoint, Ep::Queue);
                    self.fates[i].placed = Some(at);
                    let spec = TaskSpec::new(task, "x.jar", "X");
                    let (held, reservation) = (Token::new(&self.live), Token::new(&self.live));
                    self.on(at, Event::Hosted { job, spec, jm: JM, endpoint, held, reservation })?;
                }
                3..=5 => {
                    let fate = &mut self.fates[i];
                    let Some(at) = fate.placed.filter(|_| !fate.cancelled) else { return Ok(()) };
                    // Sometimes twice.
                    fate.started = true;
                    let msg =
                        NetMsg::StartTask { job, task, directory: HashMap::new(), client: CLIENT };
                    self.mailbox.push(Mail::Tm(at, msg));
                }
                6 if self.dice.roll(4) == 0 => {
                    // Its job ends.
                    let fate = &mut self.fates[i];
                    let Some(at) = fate.placed.filter(|_| !fate.cancelled) else { return Ok(()) };
                    fate.cancelled = true;
                    self.mailbox.push(Mail::Tm(at, NetMsg::CancelTask { job, task }));
                }
                7 | 8 => {
                    self.exit_any()?;
                }
                9 => self.now += Duration::from_micros(self.dice.roll(3000) as u64),
                _ => {
                    self.deliver_any()?;
                }
            }
            Ok(())
        }

        /// Deliver everything and let every thread that can end, end.
        fn settle(&mut self) -> Result<(), TestCaseError> {
            for _ in 0..100_000 {
                if !self.deliver_any()? && !self.exit_any()? {
                    return Ok(());
                }
            }
            Err(TestCaseError::fail("the world never settles"))
        }

        fn check(&self) -> Result<(), TestCaseError> {
            let holds = |i: usize| self.tms.iter().any(|tm| tm.tasks.contains_key(&key(i)));
            for (i, fate) in self.fates.iter().enumerate() {
                if fate.started && !fate.cancelled {
                    prop_assert!(fate.launched == 1, "t{} started, run {} times", i, fate.launched);
                }
                if fate.cancelled {
                    prop_assert!(!holds(i), "t{} cancelled but still held", i);
                }
            }
            let running = self.endpoints.values().filter(|ep| matches!(ep, Ep::Running { .. }));
            prop_assert!(running.count() == 0, "a cancelled task runs for good");
            // An endpoint still registered is a task's its TaskManager holds:
            // every other one was released (once: see `carry`).
            let kept: HashSet<Addr> =
                self.tms.iter().flat_map(|tm| tm.tasks.values()).map(|t| t.endpoint).collect();
            for (endpoint, ep) in &self.endpoints {
                let registered = matches!(ep, Ep::Queue);
                prop_assert!(!registered || kept.contains(endpoint), "{:?} kept", endpoint);
            }
            let held =
                |t: &Task<Token, Token>| t.held.is_some() as i64 + t.reservation.is_some() as i64;
            let held: i64 = self.tms.iter().flat_map(|tm| tm.tasks.values()).map(held).sum();
            prop_assert!(self.live.get() == held, "{} tokens live, {} held", self.live.get(), held);
            Ok(())
        }
    }

    /// One case: `tms` TaskManagers of `slots` slots each (unbounded for 0)
    /// and `tasks` tasks.
    fn a_world(tms: usize, slots: usize, tasks: usize, seed: u64) -> Result<(), TestCaseError> {
        let slots = (slots > 0).then_some(slots);
        let mut world = World::new(tms, slots, tasks, seed);
        for _ in 0..400 {
            world.step()?;
        }
        world.settle()?;
        world.check()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn every_task_runs_once_and_every_cancel_is_released_once(
            tms in 2usize..4,
            slots in 0usize..4,
            tasks in 2usize..12,
            seed in any::<u64>(),
        ) {
            a_world(tms, slots, tasks, seed)?;
        }
    }
}
