//! The diagnostic codes and their long-form documentation (`cnctl lint
//! --explain`).
//!
//! One `diagnostics!` row per stable `CN0xx` code: its constant's name, the
//! code, what the finding means, and why it is worth acting on and how to
//! address it. [`codes`], [`ALL_CODES`] and [`EXPLANATIONS`] are expansions
//! of that one table, so a code cannot ship without its explanation; the
//! table in DESIGN.md §7 documents each one, and a test keeps the two in
//! sync.

/// The documentation for one diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explanation {
    pub code: &'static str,
    /// One-line headline (what happened).
    pub title: &'static str,
    /// Why it matters and what to do — full sentences, possibly multi-line.
    pub rationale: &'static str,
}

impl Explanation {
    /// The `--explain` rendering: headline, blank line, rationale.
    pub fn render(&self) -> String {
        format!("{}: {}\n\n{}\n", self.code, self.title, self.rationale)
    }
}

/// Look up the documentation for a code (case-insensitive, `cn055` works).
pub fn explain(code: &str) -> Option<&'static Explanation> {
    let needle = code.to_ascii_uppercase();
    EXPLANATIONS.iter().find(|e| e.code == needle)
}

macro_rules! diagnostics {
    ($($name:ident = $code:literal => $title:literal, $rationale:literal;)*) => {
        /// Stable diagnostic codes, one constant per table row.
        pub mod codes {
            $(#[doc = $title] pub const $name: &str = $code;)*
        }

        /// Every code, in table order.
        pub const ALL_CODES: &[&str] = &[$($code,)*];

        /// Every code's documentation, in table order.
        pub const EXPLANATIONS: &[Explanation] = &[
            $(Explanation { code: $code, title: $title, rationale: $rationale },)*
        ];
    };
}

diagnostics! {
    PARSE = "CN000" =>
        "input could not be parsed or imported",
        "The CNX or XMI input failed to parse, so no other check could run. \
         Fix the syntax error at the reported span first; every other \
         diagnostic is downstream of a well-formed document.";
    // CNX semantic validity (mapped from `cn_cnx::validate_all`).
    NO_JOBS = "CN001" =>
        "descriptor declares no jobs",
        "A CNX client with no <job> elements submits nothing. Either the \
         descriptor is a stub or the jobs were accidentally removed.";
    EMPTY_JOB = "CN002" =>
        "job has no tasks",
        "An empty job still costs a JobManager selection round but executes \
         nothing. Remove the job or add its tasks.";
    EMPTY_FIELD = "CN003" =>
        "required task field is empty",
        "Task name, jar, and class must be non-empty for the TaskManager to \
         load and dispatch the task. An empty field fails at submission.";
    ZERO_MEMORY = "CN004" =>
        "task requests zero memory",
        "Memory requirements drive manager selection; a zero requirement \
         makes the task schedulable on a node that cannot actually host it.";
    BAD_MULTIPLICITY = "CN005" =>
        "task multiplicity is invalid",
        "Multiplicity must be a positive count (or a bounded range). Zero or \
         inverted bounds expand to no tasks or fail expansion outright.";
    UNKNOWN_DEPENDENCY = "CN006" =>
        "task depends on a name that does not exist",
        "Dependencies are resolved by task name within the job; an unknown \
         name can never be satisfied, so the dependent task would wait \
         forever. Usually a typo or a task renamed without updating \
         depends= lists.";
    DEPENDENCY_CYCLE = "CN007" =>
        "task dependency cycle",
        "The depends= edges form a cycle, so no topological execution order \
         exists and none of the tasks on the cycle can ever start.";
    DUPLICATE_TASK = "CN008" =>
        "duplicate task name within a job",
        "Task names are the identity used by dependency resolution and \
         result reporting; duplicates make depends= references ambiguous.";
    PAYLOAD_SIZE = "CN009" =>
        "task parameter payload approaches the wire frame limit",
        "Socket deployments reject frames above MAX_FRAME_BYTES. A payload \
         close to the limit works in-process but fails on the wire; shrink \
         the parameters or move bulk data to a shared space.";
    // CNX style/consistency passes.
    DUPLICATE_DEPENDS = "CN010" =>
        "duplicate entries in a depends= list",
        "Repeating a dependency is harmless at runtime but usually indicates \
         a hand-edited list that drifted; the duplicate hides real edits in \
         diffs.";
    TASK_EXCEEDS_NODE_MEMORY = "CN011" =>
        "task exceeds the largest node's memory",
        "No node in the configured cluster capacity can host this task, so \
         manager selection will never place it. Lower the requirement or \
         grow the cluster description.";
    PARAM_TYPE_MISMATCH = "CN012" =>
        "parameter value does not match its declared type",
        "A parameter whose value cannot parse as its declared type fails \
         when the task unmarshals it — at run time, on a remote node. Catch \
         it here instead.";
    ORPHAN_TASK = "CN013" =>
        "task is isolated from the rest of the job",
        "Every other task is connected by dependency edges, but this one is \
         not referenced and references nothing. Often a task that was meant \
         to be wired into the pipeline.";
    REDUNDANT_DEPENDS = "CN014" =>
        "dependency is implied by a longer path",
        "The direct edge duplicates an ordering the transitive chain already \
         guarantees. Removing it keeps the graph minimal and the descriptor \
         readable.";
    UNBOUNDED_MULTIPLICITY = "CN015" =>
        "multiplicity has no upper bound",
        "An unbounded expansion is decided by runtime cluster state, so job \
         size is unpredictable and capacity checks cannot be meaningful. \
         Bound the range.";
    MEMORY_OVERSUBSCRIBED = "CN016" =>
        "job's concurrent memory demand exceeds cluster capacity",
        "Tasks that may run concurrently together demand more memory than \
         the whole cluster provides; the job will serialize on memory \
         availability rather than dependencies.";
    SERIAL_JOB = "CN017" =>
        "job is a pure chain",
        "Every task depends on the previous one, so the job has no \
         parallelism and gains nothing from cluster execution. Possibly \
         intended, but worth a look.";
    RECORDER_CAPACITY = "CN018" =>
        "job expands to more tasks than the flight recorder holds",
        "A run of this job would wrap the flight-recorder ring and evict \
         its own earliest events, making post-mortem traces incomplete. \
         Raise the recorder capacity for jobs this size.";
    SERVER_MEMORY = "CN019" =>
        "task exceeds every TaskManager's node memory",
        "Every TaskManager the JobManager asked answered with a Decline: \
         the task's memory requirement is more than its whole node has, so \
         no amount of waiting places it. The JobManager refuses the task \
         at once, naming the largest capacity it heard, instead of asking \
         again. Give the task less memory or start a server with more \
         (cnctl serve --memory).";
    // Model validity (mapped from `cn_model::validate_all`).
    MODEL_NO_INITIAL = "CN020" =>
        "activity model has no initial node",
        "Import needs a unique entry point to anchor the task graph; \
         without one the model cannot be scheduled at all.";
    MODEL_MULTIPLE_INITIALS = "CN021" =>
        "activity model has multiple initial nodes",
        "More than one initial node makes the entry point ambiguous; merge \
         them or fork explicitly after a single initial.";
    MODEL_NO_FINAL = "CN022" =>
        "activity model has no final node",
        "Without a final node, job completion is undefined — there is no \
         state in which the runtime can declare the job done.";
    MODEL_UNREACHABLE = "CN023" =>
        "activity node unreachable from the initial node",
        "The node can never execute. Usually a transition was deleted or \
         points the wrong way.";
    MODEL_CYCLE = "CN024" =>
        "activity model contains a cycle",
        "CN jobs are finite DAGs; a cycle in the activity graph cannot be \
         translated into task dependencies.";
    MODEL_DUPLICATE_TASK = "CN025" =>
        "duplicate activity names",
        "Activity names become task names; duplicates collide in the \
         generated CNX descriptor.";
    MODEL_MISSING_TAG = "CN026" =>
        "activity is missing required CN tagged values",
        "The jar/class/memory tagged values are how a UML activity carries \
         CN deployment data; an activity without them generates an invalid \
         task.";
    MODEL_DYNAMIC_NO_MULTIPLICITY = "CN027" =>
        "dynamic activity lacks a multiplicity tag",
        "An activity marked dynamic expands to N tasks at generation time; \
         without the multiplicity tag, N is undefined.";
    MODEL_DANGLING_TRANSITION = "CN028" =>
        "transition references a missing node",
        "A control-flow edge whose source or target does not exist — the \
         XMI export is internally inconsistent, usually from a partial \
         hand edit.";
    MODEL_EMPTY = "CN029" =>
        "activity model has no activities",
        "A model with control nodes but no activities generates an empty \
         job. Export from the modeling tool probably failed.";
    // Model structure passes.
    FORK_JOIN_IMBALANCE = "CN030" =>
        "fork/join branch structure is imbalanced",
        "A join waits on a different set of branches than the matching fork \
         created, so the join either deadlocks waiting for a branch that \
         never arrives or fires early.";
    // Cross-artifact consistency.
    ROUNDTRIP_DRIFT = "CN040" =>
        "model and descriptor disagree after round-trip",
        "Re-generating the artifact and comparing shows a semantic \
         difference: the two layers have drifted and one of them is stale.";
    // Runtime concurrency (`cnctl check`, reported out of `cn-check` model
    // runs; see DESIGN.md §11).
    LOCK_ORDER_CYCLE = "CN050" =>
        "lock-order cycle across the runtime's locks",
        "Model-checked schedules acquired the named locks in conflicting \
         orders (a -> b in one schedule, b -> a in another). The cycle is a \
         latent deadlock even if no explored schedule happened to deadlock: \
         two threads entering the cycle from different sides will block \
         each other forever. Fix by imposing one global acquisition order \
         or collapsing the locks.";
    CV_WHILE_HOLDING = "CN051" =>
        "condvar wait entered while holding an unrelated lock",
        "A task blocked on a condition variable while still holding a lock \
         other than the one paired with the wait. The held lock stays held \
         for the whole wait, so any thread that needs it — including the \
         one that would signal the condvar — can deadlock against the \
         waiter. Release the unrelated lock before waiting.";
    DEADLOCK = "CN052" =>
        "deadlock: every live task is blocked",
        "The model checker reached a state where no task can run and no \
         timed wait can fire — a genuine deadlock, with the replayable \
         seed and schedule attached as a counterexample. The subjects list \
         names the resources each blocked task is waiting on; follow the \
         cycle to pick the lock to reorder or split.";
    DOUBLE_LOCK = "CN053" =>
        "double lock: a task re-acquired a lock it already holds",
        "The runtime's mutexes are not reentrant; acquiring one twice from \
         the same thread self-deadlocks. This usually appears after a \
         refactor inlines a helper that takes the same lock as its caller. \
         Pass the guard down instead of re-locking.";
    LOST_NOTIFY = "CN054" =>
        "lost notification: a wakeup was never delivered",
        "A schedule only made progress because the checker force-fired a \
         timed wait at global quiescence — in production that is a thread \
         stuck until its poll interval saves it. Some path enqueues work or \
         flips the awaited condition without signalling the condvar; audit \
         every write to the waited-on state for a matching notify.";
    SCHEDULE_ASSERT = "CN055" =>
        "assertion failed under some interleaving",
        "A scenario invariant held on most schedules but failed on the \
         attached counterexample — a real ordering bug, not a flaky test: \
         replaying the recorded seed and schedule reproduces it \
         deterministically. The trace shows the exact operation order that \
         broke the invariant.";
    STEP_LIMIT = "CN056" =>
        "schedule exceeded the step budget",
        "One schedule ran past the checker's step budget, which usually \
         means a livelock: tasks keep running without making progress \
         (spin-retry loops, or two tasks repeatedly undoing each other). \
         If the scenario is legitimately long, raise the budget; otherwise \
         inspect the trace tail for the repeating cycle.";
    // Deployment capacity, judged by `cnctl serve` / `cnctl portal` as they
    // start (`deployment`; see DESIGN.md §12).
    REACTOR_CAPACITY = "CN057" =>
        "deployment shape exceeds the host's process limits",
        "cnctl serve judges its own shape as it starts and prints this on \
         stderr. Every peer connection on the socket fabric holds one file \
         descriptor, and each reactor shard holds an epoll instance plus \
         its wakeup eventfd, so a peer count near the process fd soft \
         limit fails in accept/connect exactly when the cluster is \
         busiest. Shards beyond the available cores add cross-thread \
         wakeups and cache migration without adding parallelism. Raise \
         the fd limit (ulimit -n), shrink the deployment, or lower \
         --reactor-shards.";
    PORTAL_CAPACITY = "CN058" =>
        "portal deployment shape exceeds the host's capacity",
        "cnctl portal judges its own shape as it starts and prints this \
         on stderr. Every submission the portal admits pins the HTTP \
         connection that posted it, on top of what the process holds once \
         (its listener, reactor and the one client fabric every job runs \
         on), so --max-inflight near the process fd soft limit makes \
         accepts and submits fail exactly when the portal is busiest. \
         Reactor shards beyond the available cores add wakeups without \
         parallelism, and max-inflight times the request body limit \
         bounds the memory a submission flood can pin in buffered bodies \
         before admission pushes back. Lower --max-inflight or \
         --body-limit, raise the fd limit (ulimit -n), or match \
         --reactor-shards to the cores.";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row is one constant, one `ALL_CODES` entry and one explanation;
    /// what the table cannot rule out is two rows spelling the same code,
    /// which would leave the second unreachable from [`explain`].
    #[test]
    fn every_code_has_exactly_one_explanation() {
        for (code, row) in ALL_CODES.iter().zip(EXPLANATIONS) {
            assert_eq!(explain(code), Some(row), "code {code} is spelled by two rows");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(explain("cn052").map(|e| e.code), Some("CN052"));
        assert_eq!(explain("CN052").map(|e| e.code), Some("CN052"));
        assert_eq!(explain("CN999"), None);
    }

    #[test]
    fn render_has_headline_and_rationale() {
        let text = explain("CN050").unwrap().render();
        assert!(text.starts_with("CN050: lock-order cycle"), "{text}");
        assert!(text.contains("\n\n"), "{text}");
        assert!(text.ends_with('\n'), "{text}");
    }
}
