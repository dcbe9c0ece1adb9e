//! Task archives — the CN analogue of the paper's JAR packaging.
//!
//! "A Task is typically packaged as a self-sufficient JAR file that has a
//! class that conforms to the Task interface defined by CN API" (paper
//! Section 3). In this Rust reproduction an archive is a named bundle
//! mapping class names to task factories, with a synthetic byte payload so
//! the "JobManager uploads the JAR to the TaskManager" step has a measurable
//! transfer size. Factories live in a process-wide registry standing in for
//! the class loader; the upload message carries the archive *identity* and
//! size (DESIGN.md §2 documents this substitution).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cn_sync::Mutex;

use crate::task::Task;

/// Creates a fresh task instance per execution.
pub type TaskFactory = Arc<dyn Fn() -> Box<dyn Task> + Send + Sync>;

/// A named task archive.
#[derive(Clone)]
pub struct TaskArchive {
    /// Archive file name, e.g. `tctask.jar`.
    pub name: String,
    /// Synthetic payload size in bytes (for upload accounting).
    pub size_bytes: u64,
    classes: HashMap<String, TaskFactory>,
}

impl fmt::Debug for TaskArchive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskArchive")
            .field("name", &self.name)
            .field("size_bytes", &self.size_bytes)
            .field("classes", &self.classes.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl TaskArchive {
    pub fn new(name: impl Into<String>) -> Self {
        TaskArchive { name: name.into(), size_bytes: 64 * 1024, classes: HashMap::new() }
    }

    /// Register a class (fully-qualified name → factory).
    pub fn class(
        mut self,
        class_name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Task> + Send + Sync + 'static,
    ) -> Self {
        self.classes.insert(class_name.into(), Arc::new(factory));
        self
    }

    /// The manifest: class names in this archive.
    pub fn manifest(&self) -> Vec<String> {
        let mut names: Vec<String> = self.classes.keys().cloned().collect();
        names.sort();
        names
    }

    /// Instantiate a task by class name.
    pub fn instantiate(&self, class_name: &str) -> Option<Box<dyn Task>> {
        self.classes.get(class_name).map(|f| f())
    }
}

/// Archive lookup failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    UnknownArchive(String),
    UnknownClass { archive: String, class: String },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::UnknownArchive(a) => write!(f, "unknown archive {a:?}"),
            ArchiveError::UnknownClass { archive, class } => {
                write!(f, "archive {archive:?} has no class {class:?}")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

/// The archive registry — the "file store" clients publish jars to and
/// TaskManagers load them from.
#[derive(Default)]
pub struct ArchiveRegistry {
    archives: Mutex<HashMap<String, Arc<TaskArchive>>>,
}

impl fmt::Debug for ArchiveRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArchiveRegistry")
            .field("archives", &self.archives.lock().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ArchiveRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish an archive (replaces any previous version).
    pub fn publish(&self, archive: TaskArchive) {
        self.archives.lock().insert(archive.name.clone(), Arc::new(archive));
    }

    pub fn get(&self, name: &str) -> Option<Arc<TaskArchive>> {
        self.archives.lock().get(name).cloned()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.archives.lock().contains_key(name)
    }

    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.archives.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Instantiate `class` from archive `jar`.
    pub fn instantiate(&self, jar: &str, class: &str) -> Result<Box<dyn Task>, ArchiveError> {
        let archive = self.get(jar).ok_or_else(|| ArchiveError::UnknownArchive(jar.to_string()))?;
        archive.instantiate(class).ok_or_else(|| ArchiveError::UnknownClass {
            archive: jar.to_string(),
            class: class.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::UserData;
    use crate::task::TaskContext;

    fn noop_factory() -> Box<dyn Task> {
        Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))
    }

    #[test]
    fn archive_manifest_and_instantiation() {
        let archive = TaskArchive::new("tctask.jar")
            .class("org.jhpc.cn2.trnsclsrtask.TCTask", noop_factory)
            .class("org.jhpc.cn2.trnsclsrtask.Helper", noop_factory);
        assert_eq!(
            archive.manifest(),
            vec!["org.jhpc.cn2.trnsclsrtask.Helper", "org.jhpc.cn2.trnsclsrtask.TCTask"]
        );
        assert!(archive.instantiate("org.jhpc.cn2.trnsclsrtask.TCTask").is_some());
        assert!(archive.instantiate("missing.Class").is_none());
    }

    #[test]
    fn registry_publish_and_lookup() {
        let reg = ArchiveRegistry::new();
        assert!(!reg.contains("a.jar"));
        reg.publish(TaskArchive::new("a.jar").class("A", noop_factory));
        reg.publish(TaskArchive::new("b.jar").class("B", noop_factory));
        assert!(reg.contains("a.jar"));
        assert_eq!(reg.names(), vec!["a.jar", "b.jar"]);
        assert!(reg.instantiate("a.jar", "A").is_ok());
        assert!(matches!(
            reg.instantiate("a.jar", "Z").err().unwrap(),
            ArchiveError::UnknownClass { .. }
        ));
        assert!(matches!(
            reg.instantiate("zzz.jar", "A").err().unwrap(),
            ArchiveError::UnknownArchive(_)
        ));
    }

    #[test]
    fn publish_replaces() {
        let reg = ArchiveRegistry::new();
        reg.publish(TaskArchive { size_bytes: 100, ..TaskArchive::new("a.jar") });
        reg.publish(TaskArchive { size_bytes: 200, ..TaskArchive::new("a.jar") });
        assert_eq!(reg.get("a.jar").unwrap().size_bytes, 200);
        assert_eq!(reg.names().len(), 1);
    }

    #[test]
    fn default_size_is_nonzero() {
        assert!(TaskArchive::new("x.jar").size_bytes > 0);
    }
}
