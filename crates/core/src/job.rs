//! A job as its JobManager keeps it: a task starts once every task it
//! depends on has completed (the paper's §3, Figure 3), with the transport
//! outside it. Like `placement::Round`, a [`Job`] is a value: the server's
//! loop turns `StartJob`, `CancelJob`, `TaskCompleted`, `TaskFailed` and a
//! settled `TaskAck` into an [`Event`], carries out the [`Action`]s it gets
//! back and forgets the job at its `End`.
//!
//! An ending job cancels every placed task that neither completed nor
//! failed before its `End`, and says nothing after it. `Start` ends a job
//! that no order of completions can finish (a dependency it does not hold,
//! or a cycle). `Completed` or `Failed` of a task it is not running changes
//! nothing.

use std::collections::{HashMap, HashSet};

use cn_cluster::Addr;

use crate::message::{JobId, NetMsg, UserData, CLIENT_TASK_NAME};

/// What the server's loop hands a job.
pub(crate) enum Event {
    Placed { task: String, depends: Vec<String>, tm: Addr, task_addr: Addr },
    Start,
    Completed { task: String, result: UserData },
    Failed { task: String, error: String },
    Cancel,
}

/// What a job asks the server's loop to do; `End` is for the client.
pub(crate) enum Action {
    StartTask { tm: Addr, task: String, directory: HashMap<String, Addr> },
    ToClient(NetMsg),
    CancelTask { tm: Addr, task: String },
    End(NetMsg),
}

/// A placed task: started once its `StartTask` is out, done once it has a
/// result. A task that fails leaves the job, which ends over it.
struct Task {
    name: String,
    depends: Vec<String>,
    tm: Addr,
    task_addr: Addr,
    started: bool,
    result: Option<UserData>,
}

pub(crate) struct Job {
    id: JobId,
    client: Addr,
    /// In placement (burst) order, the order of `JobCompleted`'s results.
    tasks: Vec<Task>,
    started: bool,
    ended: bool,
}

impl Job {
    pub(crate) fn new(id: JobId, client: Addr) -> Job {
        Job { id, client, tasks: Vec::new(), started: false, ended: false }
    }

    pub(crate) fn client(&self) -> Addr {
        self.client
    }

    pub(crate) fn holds(&self, task: &str) -> bool {
        self.tasks.iter().any(|t| t.name == task)
    }

    /// Take `event` in and say what to do about it.
    pub(crate) fn on(&mut self, event: Event) -> Vec<Action> {
        let (mut actions, job) = (Vec::new(), self.id);
        let running = |t: &Task, task: &str| t.name == task && t.started && t.result.is_none();
        match event {
            _ if self.ended => {}
            Event::Placed { task, depends, tm, task_addr } => {
                let (started, result) = (false, None);
                self.tasks.push(Task { name: task, depends, tm, task_addr, started, result });
                if self.started {
                    self.start(&mut actions);
                }
            }
            Event::Start => {
                self.started = true;
                self.start(&mut actions);
            }
            Event::Completed { task, result } => {
                if let Some(t) = self.tasks.iter_mut().find(|t| running(t, &task)) {
                    t.result = Some(result.clone());
                    actions.push(Action::ToClient(NetMsg::TaskCompleted { job, task, result }));
                    self.advance(&mut actions);
                }
            }
            Event::Failed { task, error } => {
                if let Some(i) = self.tasks.iter().position(|t| running(t, &task)) {
                    self.tasks.remove(i);
                    let why = format!("task {task:?} failed: {error}");
                    actions.push(Action::ToClient(NetMsg::TaskFailed { job, task, error }));
                    self.end(&mut actions, NetMsg::JobFailed { job, error: why });
                }
            }
            Event::Cancel => {
                let error = "cancelled by client".to_string();
                self.end(&mut actions, NetMsg::JobFailed { job, error });
            }
        }
        actions
    }

    /// End a job that can never finish, naming a task that would never
    /// start; or go on with it.
    fn start(&mut self, actions: &mut Vec<Action>) {
        // What some order of completions starts, grown one pass over the
        // tasks per level of the DAG.
        let mut can: HashSet<&str> = HashSet::new();
        loop {
            let next: HashSet<&str> = self
                .tasks
                .iter()
                .filter(|t| t.depends.iter().all(|d| can.contains(d.as_str())))
                .map(|t| t.name.as_str())
                .collect();
            if next.len() == can.len() {
                break;
            }
            can = next;
        }
        let never = |d: &&String| !can.contains(d.as_str());
        let Some((t, d)) = self.tasks.iter().find_map(|t| Some((t, t.depends.iter().find(never)?)))
        else {
            return self.advance(actions);
        };
        let why = if self.holds(d) { "never completes" } else { "is not in the job" };
        let error = format!("task {:?} can never start: it depends on {d:?}, which {why}", t.name);
        self.end(actions, NetMsg::JobFailed { job: self.id, error });
    }

    /// End the job once every task has completed, else start every task
    /// whose dependencies have.
    fn advance(&mut self, actions: &mut Vec<Action>) {
        if self.tasks.iter().all(|t| t.result.is_some()) {
            let results = self.tasks.drain(..).filter_map(|t| Some((t.name, t.result?))).collect();
            return self.end(actions, NetMsg::JobCompleted { job: self.id, results });
        }
        let mut directory: HashMap<String, Addr> =
            self.tasks.iter().map(|t| (t.name.clone(), t.task_addr)).collect();
        directory.insert(CLIENT_TASK_NAME.to_string(), self.client);
        let done: HashSet<String> =
            self.tasks.iter().filter(|t| t.result.is_some()).map(|t| t.name.clone()).collect();
        for t in self.tasks.iter_mut().filter(|t| !t.started) {
            if t.depends.iter().all(|d| done.contains(d)) {
                t.started = true;
                let (tm, task, directory) = (t.tm, t.name.clone(), directory.clone());
                actions.push(Action::StartTask { tm, task, directory });
            }
        }
    }

    /// Cancel every placed task that neither completed nor failed — a
    /// running one is interrupted, the rest give their reservations back —
    /// then `end`.
    fn end(&mut self, actions: &mut Vec<Action>, end: NetMsg) {
        for t in self.tasks.drain(..).filter(|t| t.result.is_none()) {
            actions.push(Action::CancelTask { tm: t.tm, task: t.name });
        }
        actions.push(Action::End(end));
        self.ended = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const JOB: JobId = JobId(1);
    const CLIENT: Addr = Addr(1);

    fn placed(task: &str, depends: &[&str], tm: u64) -> Event {
        let depends = depends.iter().map(|d| d.to_string()).collect();
        Event::Placed { task: task.into(), depends, tm: Addr(tm), task_addr: Addr(tm * 100) }
    }

    fn completed(task: &str) -> Event {
        Event::Completed { task: task.into(), result: UserData::Text(task.into()) }
    }

    /// What `actions` say, one line each: `start t@tm`, `client TaskCompleted
    /// t`, `cancel t@tm`, `end …`.
    fn said(actions: Vec<Action>) -> Vec<String> {
        let line = |action| match action {
            Action::StartTask { tm, task, .. } => format!("start {task}@{}", tm.0),
            Action::ToClient(NetMsg::TaskCompleted { task, .. }) => format!("done {task}"),
            Action::ToClient(NetMsg::TaskFailed { task, .. }) => format!("failed {task}"),
            Action::ToClient(msg) => format!("client {msg:?}"),
            Action::CancelTask { tm, task } => format!("cancel {task}@{}", tm.0),
            Action::End(NetMsg::JobCompleted { results, .. }) => {
                let names: Vec<&str> = results.iter().map(|(t, _)| t.as_str()).collect();
                format!("completed {}", names.join(","))
            }
            Action::End(NetMsg::JobFailed { error, .. }) => format!("failed: {error}"),
            Action::End(msg) => format!("end {msg:?}"),
        };
        actions.into_iter().map(line).collect()
    }

    /// A `TaskCompleted` for a name the job never started, for one it holds
    /// but has not started, or for one that already completed, neither ends
    /// the job early nor reaches the client.
    #[test]
    fn a_completion_the_job_did_not_ask_for_changes_nothing() {
        let mut job = Job::new(JOB, CLIENT);
        job.on(placed("a", &[], 2));
        job.on(placed("b", &["a"], 3));
        assert_eq!(said(job.on(Event::Start)), ["start a@2"]);
        for stray in ["ghost", "b"] {
            assert!(job.on(completed(stray)).is_empty(), "{stray}");
            let error = "stray".to_string();
            assert!(job.on(Event::Failed { task: stray.into(), error }).is_empty(), "{stray}");
        }
        assert_eq!(said(job.on(completed("a"))), ["done a", "start b@3"]);
        assert!(job.on(completed("a")).is_empty(), "a repeated completion is relayed once");
        assert_eq!(said(job.on(completed("b"))), ["done b", "completed a,b"]);
        assert!(job.on(Event::Cancel).is_empty(), "nothing after the end");
    }

    /// `Start` refuses a job no order of completions finishes: it ends
    /// failed, naming a task that would never start, and releases every
    /// placement first.
    #[test]
    fn a_job_that_can_never_finish_fails_at_start() {
        let mut job = Job::new(JOB, CLIENT);
        job.on(placed("a", &[], 2));
        job.on(placed("b", &["ghost"], 3));
        assert_eq!(
            said(job.on(Event::Start)),
            [
                "cancel a@2",
                "cancel b@3",
                "failed: task \"b\" can never start: it depends on \"ghost\", which is not in \
                 the job",
            ]
        );
        let mut job = Job::new(JOB, CLIENT);
        job.on(placed("a", &["c"], 2));
        job.on(placed("b", &[], 3));
        job.on(placed("c", &["a"], 4));
        let said = said(job.on(Event::Start));
        assert_eq!(said[..3], ["cancel a@2", "cancel b@3", "cancel c@4"]);
        assert!(
            said[3].contains("task \"a\" can never start") && said[3].contains("never completes")
        );
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

    /// A job driven by a test playing its tasks' TaskManagers, checking
    /// every action as the job takes it.
    struct Rig {
        job: Job,
        depends: HashMap<String, Vec<String>>,
        /// Each placed task's `(tm, endpoint)`, in placement order.
        placed: Vec<(String, Addr, Addr)>,
        started: HashSet<String>,
        running: Vec<String>,
        completed: Vec<String>,
        failed: Option<String>,
        relayed: Vec<String>,
        cancels: Vec<(Addr, String)>,
        end: Option<NetMsg>,
        next_addr: u64,
    }

    impl Rig {
        fn on(&mut self, event: Event) -> Result<(), TestCaseError> {
            let ended = self.end.is_some();
            let actions = self.job.on(event);
            prop_assert!(!ended || actions.is_empty(), "the job spoke after its end");
            for action in actions {
                prop_assert!(self.end.is_none(), "an action after the end");
                match action {
                    Action::StartTask { tm, task, directory } => {
                        prop_assert!(self.started.insert(task.clone()), "{} started twice", task);
                        for d in &self.depends[&task] {
                            prop_assert!(self.completed.contains(d), "{} before {}", task, d);
                        }
                        let at = self.placed.iter().find(|(t, ..)| *t == task).map(|p| p.1);
                        prop_assert_eq!(at, Some(tm));
                        let mut expected: HashMap<String, Addr> =
                            self.placed.iter().map(|(t, _, a)| (t.clone(), *a)).collect();
                        expected.insert(CLIENT_TASK_NAME.to_string(), CLIENT);
                        prop_assert_eq!(directory, expected);
                        self.running.push(task);
                    }
                    Action::ToClient(NetMsg::TaskCompleted { task, result, .. }) => {
                        prop_assert_eq!(result, UserData::Text(task.clone()));
                        self.relayed.push(task);
                    }
                    Action::ToClient(NetMsg::TaskFailed { task, .. }) => {
                        prop_assert_eq!(Some(task), self.failed.clone());
                    }
                    Action::ToClient(msg) => prop_assert!(false, "to the client: {:?}", msg),
                    Action::CancelTask { tm, task } => self.cancels.push((tm, task)),
                    Action::End(msg) => self.end = Some(msg),
                }
            }
            Ok(())
        }

        /// Place `task` at a TaskManager of `dice`'s choosing.
        fn place(&mut self, dice: &mut Dice, task: &str) -> Result<(), TestCaseError> {
            let (tm, task_addr) = (Addr(10 + dice.roll(4) as u64), Addr(self.next_addr));
            self.next_addr += 1;
            // What was placed when the job ended is what it had to release.
            if self.end.is_none() {
                self.placed.push((task.to_string(), tm, task_addr));
            }
            let depends = self.depends[task].clone();
            self.on(Event::Placed { task: task.to_string(), depends, tm, task_addr })
        }

        /// A running task of `dice`'s choosing, finished.
        fn finish(&mut self, dice: &mut Dice) -> Option<String> {
            let i = dice.roll(self.running.len());
            (!self.running.is_empty()).then(|| self.running.swap_remove(i))
        }

        /// `Completed` or `Failed` the job did not ask for: an unknown name,
        /// a task not started, or one finished already.
        fn stray(&mut self, dice: &mut Dice) -> Result<(), TestCaseError> {
            let idle: Vec<&String> = self
                .depends
                .keys()
                .filter(|t| !self.running.contains(t) && self.failed.as_ref() != Some(t))
                .collect();
            let task = match dice.roll(2) {
                0 if !idle.is_empty() => idle[dice.roll(idle.len())].clone(),
                _ => format!("ghost{}", dice.roll(3)),
            };
            let before = (self.started.len(), self.relayed.len(), self.cancels.len());
            let ended = self.end.is_some();
            match dice.roll(2) {
                0 => self.on(completed(&task))?,
                _ => self.on(Event::Failed { task, error: "stray".into() })?,
            }
            let after = (self.started.len(), self.relayed.len(), self.cancels.len());
            prop_assert!(before == after, "a stray event did something");
            prop_assert!(ended == self.end.is_some(), "a stray event ended the job");
            Ok(())
        }
    }

    /// One case: a DAG of `n` tasks, each depending on a random set of the
    /// tasks before it, perhaps with a dependency on a missing task or a
    /// cycle added (`flaw`), placed in random order, then
    /// `Start`, completions, at most one failure and at most one `Cancel`
    /// interleaved with stray events, and the job driven to its end.
    fn a_job(n: usize, flaw: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut dice = Dice(seed | 1);
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let mut depends: HashMap<String, Vec<String>> = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            let deps = names[..i].iter().filter(|_| dice.roll(3) == 0).cloned().collect();
            depends.insert(name.clone(), deps);
        }
        let i = dice.roll(n);
        match flaw {
            0 => depends.get_mut(&names[i]).unwrap().push("ghost".into()),
            1 => {
                let j = (i + 1).min(n - 1);
                depends.get_mut(&names[i]).unwrap().push(names[j].clone());
                depends.get_mut(&names[j]).unwrap().push(names[i].clone());
            }
            _ => {}
        }
        let mut rig = Rig {
            job: Job::new(JOB, CLIENT),
            depends,
            placed: Vec::new(),
            started: HashSet::new(),
            running: Vec::new(),
            completed: Vec::new(),
            failed: None,
            relayed: Vec::new(),
            cancels: Vec::new(),
            end: None,
            next_addr: 1000,
        };
        let mut order = names.clone();
        for k in (1..n).rev() {
            order.swap(k, dice.roll(k + 1));
        }
        for task in &order {
            rig.place(&mut dice, task)?;
        }
        let (mut start, mut fail, mut cancel) = (true, dice.roll(3) == 0, dice.roll(4) == 0);
        for _ in 0..4 * n {
            match dice.roll(6) {
                0 if start => {
                    start = false;
                    rig.on(Event::Start)?;
                }
                1 | 2 => {
                    let Some(task) = rig.finish(&mut dice) else { continue };
                    if rig.end.is_none() {
                        rig.completed.push(task.clone());
                    }
                    rig.on(completed(&task))?;
                }
                3 if fail && !rig.running.is_empty() && rig.end.is_none() => {
                    fail = false;
                    let task = rig.finish(&mut dice).unwrap();
                    rig.failed = Some(task.clone());
                    rig.on(Event::Failed { task, error: "boom".into() })?;
                }
                4 if cancel => {
                    cancel = false;
                    rig.on(Event::Cancel)?;
                }
                _ => rig.stray(&mut dice)?,
            }
        }
        if start {
            rig.on(Event::Start)?;
        }
        while rig.end.is_none() {
            let task = rig.finish(&mut dice);
            prop_assert!(task.is_some(), "nothing runs and the job never ends");
            let task = task.unwrap();
            rig.completed.push(task.clone());
            rig.on(completed(&task))?;
        }
        // Whatever comes after the end is met with silence.
        rig.on(Event::Start)?;
        rig.on(Event::Cancel)?;
        let late = placed("late", &[], 5);
        rig.on(late)?;
        for _ in 0..4 {
            rig.stray(&mut dice)?;
        }

        prop_assert_eq!(&rig.relayed, &rig.completed);
        let mut cancelled: Vec<(Addr, String)> = rig
            .placed
            .iter()
            .filter(|(t, ..)| !rig.completed.contains(t) && rig.failed.as_ref() != Some(t))
            .map(|(t, tm, _)| (*tm, t.clone()))
            .collect();
        let (mut cancels, end) = (rig.cancels.clone(), rig.end.clone().unwrap());
        if !matches!(end, NetMsg::JobFailed { .. }) {
            prop_assert!(cancelled.is_empty());
        }
        cancelled.sort();
        cancels.sort();
        // Each task that neither completed nor failed, once, where it is.
        prop_assert_eq!(cancels, cancelled);
        match end {
            NetMsg::JobCompleted { results, .. } => {
                prop_assert!(flaw > 1, "a job that cannot finish completed");
                let expected: Vec<(String, UserData)> = rig
                    .placed
                    .iter()
                    .map(|(t, ..)| (t.clone(), UserData::Text(t.clone())))
                    .collect();
                prop_assert_eq!(results, expected);
            }
            NetMsg::JobFailed { error, .. } if flaw <= 1 && error != "cancelled by client" => {
                prop_assert!(rig.started.is_empty(), "a task of a job that cannot finish ran");
                prop_assert!(error.contains("can never start"), "{}", error);
            }
            NetMsg::JobFailed { error, .. } => {
                prop_assert!(error == "cancelled by client" || rig.failed.is_some(), "{}", error)
            }
            msg => prop_assert!(false, "ended with {:?}", msg),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_job_starts_each_task_after_its_dependencies_and_ends_once(
            n in 1usize..11,
            flaw in 0usize..5,
            seed in any::<u64>(),
        ) {
            a_job(n, flaw, seed)?;
        }
    }
}
