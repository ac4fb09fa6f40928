//! Task descriptions and results.
//!
//! A client "submit" request in Falkon carries an array of tasks, each with a
//! working directory, command, arguments, and environment variables; the
//! response carries per-task exit codes and optional STDOUT/STDERR contents
//! (paper Section 3.2). [`DataSpec`] additionally describes the synthetic
//! data staging performed by the Section 4.2 experiments.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Globally unique task identifier, assigned by the client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Where a task's input/output data lives (Section 4.2 experiments).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DataLocation {
    /// The GPFS shared filesystem (8 I/O nodes in the paper's testbed).
    SharedFs,
    /// The local disk of the compute node.
    LocalDisk,
}

/// Whether a task only reads its data or reads and writes it back.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DataAccess {
    /// Read `bytes` of input only.
    Read,
    /// Read `bytes` of input and write `bytes` of output.
    ReadWrite,
}

/// Synthetic data-staging requirements attached to a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DataSpec {
    /// Identity of the data object (files with the same id are the same
    /// data; lets caches and the data-aware dispatcher recognise reuse).
    pub object: u64,
    /// Bytes read (and, for [`DataAccess::ReadWrite`], also written).
    pub bytes: u64,
    /// Filesystem the data lives on.
    pub location: DataLocation,
    /// Read-only or read+write.
    pub access: DataAccess,
}

/// A shared task string, 16 bytes: either a thin pointer to an entry of
/// the static intern tables or a reference-counted heap string.
///
/// The microbenchmark workloads funnel millions of `sleep N /tmp` tasks
/// through encode→decode→clone→drop cycles, and a queued task holds three
/// of these. An interned [`IStr`] points at the `'static` place that holds
/// the table's `&'static str`, so cloning and dropping it is free, decode
/// touches no shared cache line, and the pointer fits in the word beside
/// the `Arc`'s niche. Strings outside the interned set are one `Arc<str>`
/// allocation.
#[derive(Clone)]
pub struct IStr(Repr);

#[derive(Clone)]
enum Repr {
    /// An entry of the intern tables.
    Static(&'static &'static str),
    /// An owned, reference-counted string.
    Shared(Arc<str>),
}

// The sizes in this file are pinned without `assert!` (the decode-path lint
// bans it here): an array of the wrong length, or a subtraction that goes
// below zero, does not compile.
const _: [(); 16] = [(); std::mem::size_of::<IStr>()];

impl IStr {
    /// The string contents.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
        }
    }

    /// Whether this string is backed by the static intern tables (clone and
    /// drop are free).
    pub fn is_interned(&self) -> bool {
        matches!(self.0, Repr::Static(_))
    }

    /// Whether two `IStr`s share the same backing memory (interned strings
    /// from the same table entry, or clones of one `Arc`).
    pub fn ptr_eq(&self, other: &IStr) -> bool {
        let a = self.as_str();
        let b = other.as_str();
        std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
    }

    /// How many `IStr`s share this one's heap string (`None` when interned,
    /// which is not counted): tells a move from a clone.
    pub fn strong_count(&self) -> Option<usize> {
        match &self.0 {
            Repr::Static(_) => None,
            Repr::Shared(s) => Some(Arc::strong_count(s)),
        }
    }
}

impl Deref for IStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Default for IStr {
    fn default() -> IStr {
        IStr(Repr::Static(&""))
    }
}

impl PartialEq for IStr {
    #[inline]
    fn eq(&self, other: &IStr) -> bool {
        // Identity first: the wait queue compares every arriving task with
        // the one before it, and in a sweep they share their strings.
        self.ptr_eq(other) || self.as_str() == other.as_str()
    }
}

impl Eq for IStr {}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        interned(s).unwrap_or_else(|| IStr(Repr::Shared(Arc::from(s))))
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        interned(&s).unwrap_or_else(|| IStr(Repr::Shared(Arc::from(s))))
    }
}

// The workspace's serde is the vendored no-op stand-in (see `vendor/serde`);
// these marker impls let `TaskSpec` keep its derives. A real serde would
// serialize an `IStr` as a plain string and re-intern on deserialize.
impl Serialize for IStr {}

impl<'de> Deserialize<'de> for IStr {}

/// A task's argument list, 24 bytes: nothing, one argument held inline, or
/// a boxed slice of two or more.
///
/// Every paper workload passes one argument per task (`sleep N`); a `Vec`
/// would charge every decoded task a heap allocation and every drop a free
/// just to hold one interned pointer, and inline room for a second argument
/// would be carried by every queued task for none of them to use.
/// Dereferences to `[IStr]`.
#[derive(Clone, Default)]
pub struct Args(ArgsRepr);

#[derive(Clone, Default)]
enum ArgsRepr {
    #[default]
    None,
    One(IStr),
    /// Two or more.
    Many(Box<[IStr]>),
}

impl Args {
    /// An empty argument list (allocates nothing).
    pub const fn new() -> Args {
        Args(ArgsRepr::None)
    }

    /// A single-argument list (allocates nothing).
    pub fn one(arg: impl Into<IStr>) -> Args {
        Args(ArgsRepr::One(arg.into()))
    }

    /// Append an argument. The first is held inline; every later one
    /// re-boxes the slice, so build a long list with `collect`.
    pub fn push(&mut self, arg: impl Into<IStr>) {
        let arg = arg.into();
        self.0 = match std::mem::take(&mut self.0) {
            ArgsRepr::None => ArgsRepr::One(arg),
            ArgsRepr::One(first) => ArgsRepr::Many(Box::new([first, arg])),
            ArgsRepr::Many(all) => {
                let mut all = all.into_vec();
                all.push(arg);
                ArgsRepr::Many(all.into_boxed_slice())
            }
        };
    }

    /// Remove all arguments.
    pub fn clear(&mut self) {
        self.0 = ArgsRepr::None;
    }
}

impl Deref for Args {
    type Target = [IStr];
    #[inline]
    fn deref(&self) -> &[IStr] {
        match &self.0 {
            ArgsRepr::None => &[],
            ArgsRepr::One(arg) => std::slice::from_ref(arg),
            ArgsRepr::Many(all) => all,
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: Into<IStr>> FromIterator<S> for Args {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Args {
        let mut iter = iter.into_iter().map(Into::into);
        let Some(first) = iter.next() else {
            return Args::new();
        };
        let Some(second) = iter.next() else {
            return Args(ArgsRepr::One(first));
        };
        let mut all = Vec::with_capacity(2 + iter.size_hint().0);
        all.push(first);
        all.push(second);
        all.extend(iter);
        Args(ArgsRepr::Many(all.into_boxed_slice()))
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a IStr;
    type IntoIter = std::slice::Iter<'a, IStr>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

// No-op marker impls matching the vendored serde stand-in; a real serde
// would serialize `Args` as a sequence of strings.
impl Serialize for Args {}

impl<'de> Deserialize<'de> for Args {}

/// A unit of work dispatched by Falkon: an executable invocation, 128
/// bytes in memory.
///
/// The dispatcher holds one of these per run of same-shaped tasks, shared
/// by the run's queued tasks (an 8-byte id each) and its tasks in flight
/// (an id and a handle each), and every hop of the enqueue→dispatch→complete
/// pipeline clones one, so the struct is kept small and shallow: string
/// fields are [`IStr`]s and the argument list is an [`Args`]. The canonical
/// `sleep` constructors and the decode path intern their strings, so
/// building, cloning, or decoding a microbenchmark spec allocates nothing
/// and bumps no refcounts at all.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique id.
    pub id: TaskId,
    /// Executable name (the microbenchmarks use `sleep`).
    pub command: IStr,
    /// Command-line arguments.
    pub args: Args,
    /// Environment variables.
    pub env: Vec<(IStr, IStr)>,
    /// Working directory on the executor.
    pub working_dir: IStr,
    /// Client-estimated runtime in microseconds, if known. The paper notes
    /// that dispatcher→executor bundling requires runtime estimates; absent
    /// ones, only client→dispatcher bundling is used.
    pub estimated_runtime_us: Option<u64>,
    /// Optional synthetic data staging (Section 4.2).
    pub data: Option<DataSpec>,
}

const _: usize = 128 - std::mem::size_of::<TaskSpec>();

/// The canonical command the benchmark constructors build. A `static`, like
/// the decimal table below: an interned [`IStr`] points at the place.
static SLEEP_COMMAND: &str = "sleep";

/// The constructors' canonical working directory.
static TMP_DIR: &str = "/tmp";

/// Interned decimal strings for small durations: the paper's microbenchmark
/// workloads use a handful of distinct `sleep` arguments ("0", "1", "4",
/// "8"…) across millions of tasks. The 64 strings are leaked exactly once
/// (a few hundred bytes for the process lifetime) so interned values are
/// `'static` and carry no refcount.
fn small_decimal(n: u64) -> Option<IStr> {
    static TABLE: OnceLock<[&'static str; 64]> = OnceLock::new();
    let table =
        TABLE.get_or_init(|| std::array::from_fn(|i| &*i.to_string().leak() as &'static str));
    Some(IStr(Repr::Static(table.get(n as usize)?)))
}

/// Decode-side interning: map a wire string back onto the static table the
/// constructors use, so decoding a `sleep N /tmp` bundle allocates nothing
/// and bumps no refcounts. Returns `None` for anything outside the interned
/// set (the caller allocates normally). Exactness matters: only canonical
/// decimal forms intern (`"07"` must stay `"07"`), so leading zeros are
/// rejected.
fn interned(s: &str) -> Option<IStr> {
    if s == SLEEP_COMMAND {
        return Some(IStr(Repr::Static(&SLEEP_COMMAND)));
    }
    if s == TMP_DIR {
        return Some(IStr(Repr::Static(&TMP_DIR)));
    }
    let b = s.as_bytes();
    let canonical_decimal = matches!(b.len(), 1 | 2)
        && b.iter().all(|c| c.is_ascii_digit())
        && (b.len() == 1 || b.first() != Some(&b'0'));
    if canonical_decimal {
        small_decimal(s.parse().ok()?)
    } else {
        None
    }
}

/// The decimal form of `n`, interned when small.
fn decimal(n: u64) -> IStr {
    small_decimal(n).unwrap_or_else(|| IStr(Repr::Shared(Arc::from(n.to_string()))))
}

impl TaskSpec {
    /// A canonical `sleep <secs>` task, the paper's microbenchmark workload.
    /// `sleep 0` measures pure dispatch overhead.
    pub fn sleep(id: u64, secs: u64) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            command: IStr(Repr::Static(&SLEEP_COMMAND)),
            args: Args::one(decimal(secs)),
            env: Vec::new(),
            working_dir: IStr(Repr::Static(&TMP_DIR)),
            estimated_runtime_us: Some(secs * 1_000_000),
            data: None,
        }
    }

    /// A sleep task with sub-second resolution (microseconds).
    pub fn sleep_us(id: u64, us: u64) -> TaskSpec {
        let arg = if us.is_multiple_of(1_000_000) {
            decimal(us / 1_000_000)
        } else {
            IStr(Repr::Shared(Arc::from(format!("{}", us as f64 / 1e6))))
        };
        TaskSpec {
            id: TaskId(id),
            command: IStr(Repr::Static(&SLEEP_COMMAND)),
            args: Args::one(arg),
            env: Vec::new(),
            working_dir: IStr(Repr::Static(&TMP_DIR)),
            estimated_runtime_us: Some(us),
            data: None,
        }
    }

    /// Attach a data-staging spec (builder style). The object id defaults
    /// to the task id (all objects distinct); use [`TaskSpec::with_object`]
    /// when tasks share data.
    pub fn with_data(mut self, bytes: u64, location: DataLocation, access: DataAccess) -> Self {
        self.data = Some(DataSpec {
            object: self.id.0,
            bytes,
            location,
            access,
        });
        self
    }

    /// Attach a data-staging spec for a shared, named object.
    pub fn with_object(
        mut self,
        object: u64,
        bytes: u64,
        location: DataLocation,
        access: DataAccess,
    ) -> Self {
        self.data = Some(DataSpec {
            object,
            bytes,
            location,
            access,
        });
        self
    }

    /// The declared runtime for simulation purposes (zero when unknown).
    pub fn runtime_us(&self) -> u64 {
        self.estimated_runtime_us.unwrap_or(0)
    }
}

/// The outcome of one executed task, 32 bytes in memory.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TaskResult {
    /// The task this result belongs to.
    pub id: TaskId,
    /// Process exit code; 0 means success.
    pub exit_code: i32,
    /// Captured output, boxed: no workload asks for any, so the 2 M results
    /// a run keeps pay one null pointer for it and not two `Option<String>`s.
    /// `None` when neither stream was captured.
    captured: Option<Box<Captured>>,
    /// Executor-measured total handling time (thread creation, WS pickup,
    /// exec, result delivery) in microseconds — the paper's "task overhead"
    /// metric of Figure 10 *includes* the run time; harnesses subtract it.
    pub executor_time_us: u64,
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct Captured {
    stdout: Option<String>,
    stderr: Option<String>,
}

const _: usize = 32 - std::mem::size_of::<TaskResult>();

impl TaskResult {
    /// A successful result with no captured output.
    pub fn success(id: TaskId) -> TaskResult {
        TaskResult::failure(id, 0)
    }

    /// A failed result with the given exit code.
    pub fn failure(id: TaskId, exit_code: i32) -> TaskResult {
        TaskResult {
            id,
            exit_code,
            captured: None,
            executor_time_us: 0,
        }
    }

    /// Attach captured standard output and standard error (builder style).
    pub fn with_output(mut self, stdout: Option<String>, stderr: Option<String>) -> TaskResult {
        self.captured =
            (stdout.is_some() || stderr.is_some()).then(|| Box::new(Captured { stdout, stderr }));
        self
    }

    /// Captured standard output, if requested.
    pub fn stdout(&self) -> Option<&str> {
        self.captured.as_ref()?.stdout.as_deref()
    }

    /// Captured standard error, if requested.
    pub fn stderr(&self) -> Option<&str> {
        self.captured.as_ref()?.stderr.as_deref()
    }

    /// Whether the task exited successfully.
    pub fn is_success(&self) -> bool {
        self.exit_code == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_task_shape() {
        let t = TaskSpec::sleep(7, 480);
        assert_eq!(t.id, TaskId(7));
        assert_eq!(&*t.command, "sleep");
        assert_eq!(&*t.args[0], "480");
        assert_eq!(t.runtime_us(), 480_000_000);
    }

    #[test]
    fn sleep_us_fractional() {
        let t = TaskSpec::sleep_us(1, 1_500_000);
        assert_eq!(&*t.args[0], "1.5");
        assert_eq!(t.runtime_us(), 1_500_000);
    }

    #[test]
    fn with_data_builder() {
        let t =
            TaskSpec::sleep(1, 0).with_data(1 << 20, DataLocation::SharedFs, DataAccess::ReadWrite);
        let d = t.data.unwrap();
        assert_eq!(d.bytes, 1 << 20);
        assert_eq!(d.location, DataLocation::SharedFs);
        assert_eq!(d.access, DataAccess::ReadWrite);
    }

    #[test]
    fn result_constructors() {
        assert!(TaskResult::success(TaskId(1)).is_success());
        let f = TaskResult::failure(TaskId(2), 3);
        assert!(!f.is_success());
        assert_eq!(f.exit_code, 3);
    }

    #[test]
    fn sleep_constructors_intern_strings() {
        let a = TaskSpec::sleep(1, 0);
        let b = TaskSpec::sleep(2, 0);
        assert!(a.command.is_interned() && a.command.ptr_eq(&b.command));
        assert!(a.working_dir.is_interned() && a.working_dir.ptr_eq(&b.working_dir));
        assert!(a.args[0].is_interned() && a.args[0].ptr_eq(&b.args[0]));
        // Whole-second `sleep_us` calls share the same interned digits.
        let c = TaskSpec::sleep_us(3, 2_000_000);
        assert_eq!(&*c.args[0], "2");
        assert!(c.args[0].ptr_eq(&TaskSpec::sleep(4, 2).args[0]));
    }

    #[test]
    fn istr_from_interns_and_falls_back() {
        let i = IStr::from("sleep");
        assert!(i.is_interned());
        let d = IStr::from("42");
        assert!(d.is_interned());
        // Non-canonical decimals and arbitrary strings allocate.
        assert!(!IStr::from("07").is_interned());
        let owned = IStr::from("custom-binary");
        assert!(!owned.is_interned());
        assert_eq!(&*owned, "custom-binary");
        // Content equality is representation-independent.
        assert_eq!(IStr::from("sleep"), IStr::from(String::from("sleep")));
    }

    #[test]
    fn args_inline_then_spill() {
        let mut args = Args::new();
        assert!(args.is_empty());
        for i in 0..5 {
            args.push(i.to_string());
            // Deref stays contiguous and ordered across the move to the box.
            let got: Vec<&str> = args.iter().map(|a| &**a).collect();
            let want: Vec<String> = (0..=i).map(|j| j.to_string()).collect();
            assert_eq!(got, want);
        }
        let two: Args = ["a", "b"].into_iter().collect();
        assert_eq!(two.len(), 2);
        let mut cleared = two.clone();
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(Args::one("x").first().map(|a| &**a), Some("x"));
        // Pushed and collected lists of the same entries are equal.
        assert_eq!(args, (0..5).map(|i| i.to_string()).collect::<Args>());
        assert_eq!(std::mem::size_of::<Args>(), 24);
    }

    #[test]
    fn result_output_accessors() {
        let plain = TaskResult::failure(TaskId(1), 2);
        assert_eq!((plain.stdout(), plain.stderr()), (None, None));
        let err = plain.clone().with_output(None, Some("boom".into()));
        assert_eq!((err.stdout(), err.stderr()), (None, Some("boom")));
        // Capturing nothing is the same value as never having asked.
        assert_eq!(err.with_output(None, None), plain);
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(42).to_string(), "42");
        assert_eq!(format!("{:?}", TaskId(42)), "task#42");
    }
}
