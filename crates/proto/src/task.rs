//! Task descriptions and results.
//!
//! A client "submit" request in Falkon carries an array of tasks, each with a
//! working directory, command, arguments, and environment variables; the
//! response carries per-task exit codes and optional STDOUT/STDERR contents
//! (paper Section 3.2). [`DataSpec`] additionally describes the synthetic
//! data staging performed by the Section 4.2 experiments.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Globally unique task identifier, assigned by the client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataLocation {
    /// The GPFS shared filesystem (8 I/O nodes in the paper's testbed).
    SharedFs,
    /// The local disk of the compute node.
    LocalDisk,
}

/// Whether a task only reads its data or reads and writes it back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataAccess {
    /// Read `bytes` of input only.
    Read,
    /// Read `bytes` of input and write `bytes` of output.
    ReadWrite,
}

/// Synthetic data-staging requirements attached to a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

/// A shared task string, 16 bytes: a thin pointer to an entry of the
/// static intern tables, or a span of a reference-counted `String`.
///
/// The microbenchmark workloads funnel millions of `sleep N /tmp` tasks
/// through encode→decode→clone→drop cycles, and a queued task holds three
/// of these. An interned [`IStr`] points at the `'static` place that holds
/// the table's `&'static str`, so cloning and dropping it is free, decode
/// touches no shared cache line, and the pointer fits in the word beside
/// the `Arc`'s niche. `From<String>` moves any other string into an `Arc`
/// whole; a decoded task's other strings are spans of one buffer, two
/// allocations however many, which lives while any of them does.
#[derive(Clone)]
pub struct IStr(Repr);

#[derive(Clone)]
enum Repr {
    /// An entry of the intern tables.
    Static(&'static &'static str),
    /// Bytes `offset..offset + len` of a shared string; both ends are char
    /// boundaries.
    Shared(Arc<String>, u32, u32),
}

// The sizes in this file are pinned without `assert!` (the decode-path lint
// bans it here): an array of the wrong length, or a subtraction that goes
// below zero, does not compile.
const _: [(); 16] = [(); std::mem::size_of::<IStr>()];

impl IStr {
    /// Bytes `start..end` of `buf`, or `None` unless both ends are char
    /// boundaries of it (and fit the span's `u32`s).
    pub(crate) fn span(buf: &Arc<String>, start: usize, end: usize) -> Option<IStr> {
        let len = u32::try_from(buf.get(start..end)?.len()).ok()?;
        let start = u32::try_from(start).ok()?;
        Some(IStr(Repr::Shared(Arc::clone(buf), start, len)))
    }

    /// An owned string that skips the intern tables, moved in whole.
    fn owned(s: String) -> IStr {
        // A hard check, like the encoder's: the wire caps a string at
        // 64 MiB, so a span's `u32`s only ever fail on a string no peer
        // could be sent.
        assert!(s.len() <= u32::MAX as usize, "task string exceeds 4 GiB");
        let len = s.len() as u32;
        IStr(Repr::Shared(Arc::new(s), 0, len))
    }

    /// The string contents.
    #[inline]
    pub(crate) fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(buf, offset, len) => {
                let start = *offset as usize;
                // Never `None`: `span` checked both ends.
                buf.get(start..start + *len as usize).unwrap_or_default()
            }
        }
    }

    /// The string's bytes, for the encoder: bounds-checked, but not
    /// re-checked for char boundaries as `as_str` is (`span` checked both).
    #[inline]
    pub(crate) fn wire_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s.as_bytes(),
            Repr::Shared(buf, at, len) => {
                let at = *at as usize;
                buf.as_bytes()
                    .get(at..at + *len as usize)
                    .unwrap_or_default()
            }
        }
    }

    /// Whether this string is backed by the static intern tables (clone and
    /// drop are free).
    pub fn is_interned(&self) -> bool {
        matches!(self.0, Repr::Static(_))
    }

    /// Whether two `IStr`s share the same backing memory (interned strings
    /// from the same table entry, or clones of one span).
    pub fn ptr_eq(&self, other: &IStr) -> bool {
        let a = self.as_str();
        let b = other.as_str();
        std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
    }

    /// How many `IStr`s share this one's heap string (`None` when interned,
    /// which is not counted): tells a move from a clone, and the strings
    /// of one decoded task all read the same count.
    pub fn strong_count(&self) -> Option<usize> {
        match &self.0 {
            Repr::Static(_) => None,
            Repr::Shared(buf, ..) => Some(Arc::strong_count(buf)),
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
        interned(s.as_bytes()).unwrap_or_else(|| IStr::owned(s.to_owned()))
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        interned(s.as_bytes()).unwrap_or_else(|| IStr::owned(s))
    }
}

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
    pub(crate) fn one(arg: impl Into<IStr>) -> Args {
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

/// A unit of work dispatched by Falkon: an executable invocation, 48 bytes
/// in memory — its id, its environment and a handle on its shape.
///
/// A parameter sweep's tasks differ in their id and nothing else, and a
/// client holds millions of them (Figure 8 submits 2 M), so what they share
/// is kept once: the command, arguments, working directory, runtime
/// estimate and data staging are a *shape*, immutable and shared, and a
/// task holds a 16-byte handle on it. The handle points at a static shape
/// for every canonical `sleep` task whose argument the intern tables hold
/// (0–999 s and 1–999 ms), built or decoded, so building, cloning or
/// decoding a microbenchmark spec allocates nothing and bumps no refcounts;
/// any other shape is one `Arc`, shared by the clones of the task. The
/// environment stays per task. A changed field is a new shape
/// (`with_command`, `with_args`…): nothing edits a shape another task
/// holds.
#[derive(Clone)]
pub struct TaskSpec {
    /// Unique id.
    pub id: TaskId,
    /// Environment variables.
    pub env: Vec<(IStr, IStr)>,
    shape: ShapeRef,
}

// The sizes in this file are pinned without `assert!` (see `IStr`).
const _: [(); 48] = [(); std::mem::size_of::<TaskSpec>()];

/// What a task runs, shared by the tasks of one sweep. Compared field by
/// field in this order: the cheap fields that tell sweeps apart first.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) data: Option<DataSpec>,
    pub(crate) estimated_runtime_us: Option<u64>,
    pub(crate) args: Args,
    pub(crate) command: IStr,
    pub(crate) working_dir: IStr,
}

/// A handle on a shape, 16 bytes: a static canonical `sleep` shape, or a
/// shared one.
#[derive(Clone)]
enum ShapeRef {
    Static(&'static Shape),
    Shared(Arc<Shape>),
}

impl Deref for ShapeRef {
    type Target = Shape;
    #[inline]
    fn deref(&self) -> &Shape {
        match self {
            ShapeRef::Static(shape) => shape,
            ShapeRef::Shared(shape) => shape,
        }
    }
}

impl ShapeRef {
    /// A handle on `shape`: the static one when it is a canonical `sleep`.
    fn new(shape: Shape) -> ShapeRef {
        match shape.canonical() {
            Some(canonical) => ShapeRef::Static(canonical),
            None => ShapeRef::Shared(Arc::new(shape)),
        }
    }

    /// Whether the two shapes are one: the same handle, or equal contents.
    #[inline]
    fn same(&self, other: &ShapeRef) -> bool {
        std::ptr::eq::<Shape>(&**self, &**other) || **self == **other
    }
}

impl Shape {
    /// The static shape equal to this one, when it is a canonical `sleep`.
    /// Told by the identity of its strings, not their bytes: a canonical
    /// string is interned however it was made (`From`, or the decoder).
    fn canonical(&self) -> Option<&'static Shape> {
        let us = self.estimated_runtime_us.filter(|_| self.data.is_none())?;
        let canonical = static_sleep(us)?;
        let [arg] = &*self.args else {
            return None;
        };
        let same = self.command.ptr_eq(&canonical.command)
            && self.working_dir.ptr_eq(&canonical.working_dir)
            && canonical.args.first().is_some_and(|a| a.ptr_eq(arg));
        same.then_some(canonical)
    }

    /// `sleep` for `us` microseconds in `/tmp`, its runtime estimated.
    fn sleep(us: u64) -> Shape {
        let arg = if us.is_multiple_of(1_000_000) {
            decimal(us / 1_000_000)
        } else {
            small_fraction(us).unwrap_or_else(|| IStr::owned(seconds(us)))
        };
        Shape {
            command: IStr(Repr::Static(&SLEEP_COMMAND)),
            args: Args::one(arg),
            working_dir: IStr(Repr::Static(&TMP_DIR)),
            estimated_runtime_us: Some(us),
            data: None,
        }
    }
}

/// The static shape of `sleep` for `us` microseconds, when the intern
/// tables hold its argument: whole seconds below 1,000 and whole
/// milliseconds below a second. A shape is leaked on first use, once per
/// duration (96 B each), so a process pays only for the durations it runs.
fn static_sleep(us: u64) -> Option<&'static Shape> {
    static SECONDS: [OnceLock<&Shape>; 1000] = [const { OnceLock::new() }; 1000];
    static MILLIS: [OnceLock<&Shape>; 999] = [const { OnceLock::new() }; 999];
    let slot = if us.is_multiple_of(1_000_000) {
        SECONDS.get(usize::try_from(us / 1_000_000).ok()?)?
    } else if us.is_multiple_of(1000) {
        MILLIS.get(usize::try_from(us / 1000).ok()?.checked_sub(1)?)?
    } else {
        return None;
    };
    Some(slot.get_or_init(|| Box::leak(Box::new(Shape::sleep(us)))))
}

/// The canonical command the benchmark constructors build. A `static`, like
/// the decimal table below: an interned [`IStr`] points at the place.
static SLEEP_COMMAND: &str = "sleep";

/// The constructors' canonical working directory.
static TMP_DIR: &str = "/tmp";

/// Interned decimal strings for small durations: the paper's workloads use
/// a handful of distinct `sleep` arguments ("0", "1", "4", "8"…, Figure 9's
/// "480") across millions of tasks, and a heap `IStr` of three bytes holds
/// 80 B of heap. The 1,000 strings are leaked exactly once (≈32 KiB for the
/// process lifetime) so interned values are `'static` and carry no refcount.
fn small_decimal(n: u64) -> Option<IStr> {
    static TABLE: OnceLock<[&'static str; 1000]> = OnceLock::new();
    let table =
        TABLE.get_or_init(|| std::array::from_fn(|i| &*i.to_string().leak() as &'static str));
    Some(IStr(Repr::Static(table.get(n as usize)?)))
}

/// Decode-side interning: map a wire string back onto the static table the
/// constructors use, so decoding a `sleep N /tmp` bundle allocates nothing
/// and bumps no refcounts. Returns `None` for anything outside the interned
/// set (the caller allocates normally). It reads bytes, not a `str`: every
/// interned string is ASCII, so a match is valid UTF-8 whatever the bytes
/// around it. Exactness matters: only canonical forms intern (`"07"` and
/// `"0.50"` stay as sent), so a spelling that is not a table's own is rejected.
pub(crate) fn interned(b: &[u8]) -> Option<IStr> {
    match b {
        b"" => Some(IStr::default()),
        b"sleep" => Some(IStr(Repr::Static(&SLEEP_COMMAND))),
        b"/tmp" => Some(IStr(Repr::Static(&TMP_DIR))),
        [d @ b'0'..=b'9'] => small_decimal(u64::from(d - b'0')),
        [t @ b'1'..=b'9', u @ b'0'..=b'9'] => {
            small_decimal(u64::from(t - b'0') * 10 + u64::from(u - b'0'))
        }
        [h @ b'1'..=b'9', t @ b'0'..=b'9', u @ b'0'..=b'9'] => small_decimal(
            u64::from(h - b'0') * 100 + u64::from(t - b'0') * 10 + u64::from(u - b'0'),
        ),
        [b'0', b'.', _, ..] if b.len() <= 5 => {
            let secs: f64 = std::str::from_utf8(b).ok()?.parse().ok()?;
            small_fraction((secs * 1e6).round() as u64).filter(|s| s.as_bytes() == b)
        }
        _ => None,
    }
}

/// Interned `sleep_us` arguments for the whole milliseconds below a second,
/// `"0.001"` to `"0.999"` as [`seconds`] formats them: Figure 6's 1 ms tasks
/// would otherwise hold two heap blocks each for `"0.001"`.
fn small_fraction(us: u64) -> Option<IStr> {
    static TABLE: OnceLock<[&'static str; 999]> = OnceLock::new();
    let ms = usize::try_from(us / 1000).ok()?.checked_sub(1)?;
    let table =
        TABLE.get_or_init(|| std::array::from_fn(|i| &*seconds(i as u64 * 1000 + 1000).leak()));
    let s = table.get(ms).filter(|_| us.is_multiple_of(1000))?;
    Some(IStr(Repr::Static(s)))
}

/// `us` microseconds as the decimal seconds `sleep` takes.
fn seconds(us: u64) -> String {
    format!("{}", us as f64 / 1e6)
}

/// The decimal form of `n`, interned when small.
fn decimal(n: u64) -> IStr {
    small_decimal(n).unwrap_or_else(|| IStr::owned(n.to_string()))
}

impl TaskSpec {
    /// A canonical `sleep <secs>` task, the paper's microbenchmark workload.
    /// `sleep 0` measures pure dispatch overhead.
    pub fn sleep(id: u64, secs: u64) -> TaskSpec {
        TaskSpec::sleep_us(id, secs * 1_000_000)
    }

    /// A sleep task with sub-second resolution (microseconds).
    pub fn sleep_us(id: u64, us: u64) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            env: Vec::new(),
            shape: static_sleep(us).map_or_else(
                || ShapeRef::Shared(Arc::new(Shape::sleep(us))),
                ShapeRef::Static,
            ),
        }
    }

    /// Task `id` of this task's shape and environment.
    #[inline]
    pub fn with_id(&self, id: TaskId) -> TaskSpec {
        TaskSpec {
            id,
            env: self.env.clone(),
            shape: self.shape.clone(),
        }
    }

    /// Whether the two differ in nothing but their id: one *shape* and one
    /// environment, which a parameter sweep's tasks share. The handles are
    /// compared before the contents, and the environment last; the
    /// destructuring makes a new field a compile error here rather than a
    /// silently merged run.
    #[inline]
    pub fn same_shape(&self, other: &TaskSpec) -> bool {
        let TaskSpec { id: _, env, shape } = self;
        shape.same(&other.shape) && *env == other.env
    }

    /// The shape, for the encoder to read in one step.
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Executable name (the microbenchmarks use `sleep`).
    pub fn command(&self) -> &IStr {
        &self.shape.command
    }

    /// Command-line arguments.
    pub fn args(&self) -> &Args {
        &self.shape.args
    }

    /// Working directory on the executor.
    pub fn working_dir(&self) -> &IStr {
        &self.shape.working_dir
    }

    /// Client-estimated runtime in microseconds, if known. The paper notes
    /// that dispatcher→executor bundling requires runtime estimates; absent
    /// ones, only client→dispatcher bundling is used.
    pub fn estimated_runtime_us(&self) -> Option<u64> {
        self.shape.estimated_runtime_us
    }

    /// Optional synthetic data staging (Section 4.2).
    pub fn data(&self) -> Option<DataSpec> {
        self.shape.data
    }

    /// This task with its shape edited by `edit`: a new shape, since the
    /// old one may be shared.
    fn reshape(mut self, edit: impl FnOnce(&mut Shape)) -> TaskSpec {
        let mut shape = Shape::clone(&self.shape);
        edit(&mut shape);
        self.shape = ShapeRef::new(shape);
        self
    }

    /// Run `command` instead (builder style).
    pub fn with_command(self, command: impl Into<IStr>) -> TaskSpec {
        let command = command.into();
        self.reshape(|s| s.command = command)
    }

    /// Pass `args` instead (builder style).
    pub fn with_args(self, args: Args) -> TaskSpec {
        self.reshape(|s| s.args = args)
    }

    /// Run in `dir` instead (builder style).
    pub fn with_working_dir(self, dir: impl Into<IStr>) -> TaskSpec {
        let dir = dir.into();
        self.reshape(|s| s.working_dir = dir)
    }

    /// Estimate the runtime as `us` microseconds, or not at all (builder
    /// style).
    pub fn with_estimate(self, us: Option<u64>) -> TaskSpec {
        self.reshape(|s| s.estimated_runtime_us = us)
    }

    /// Attach a data-staging spec (builder style). The object id defaults
    /// to the task id (all objects distinct); use [`TaskSpec::with_object`]
    /// when tasks share data.
    pub fn with_data(self, bytes: u64, location: DataLocation, access: DataAccess) -> Self {
        let object = self.id.0;
        self.with_object(object, bytes, location, access)
    }

    /// Attach a data-staging spec for a shared, named object.
    pub fn with_object(
        self,
        object: u64,
        bytes: u64,
        location: DataLocation,
        access: DataAccess,
    ) -> Self {
        self.reshape(|s| {
            s.data = Some(DataSpec {
                object,
                bytes,
                location,
                access,
            })
        })
    }

    /// The declared runtime for simulation purposes (zero when unknown).
    pub fn runtime_us(&self) -> u64 {
        self.shape.estimated_runtime_us.unwrap_or(0)
    }

    /// The task the decoder read. Its shape is the handle of the task
    /// decoded before it when the two are equal, so a decoded sweep holds
    /// one shape however many tasks it has, and static when canonical.
    pub(crate) fn decoded(
        id: TaskId,
        env: Vec<(IStr, IStr)>,
        shape: Shape,
        prev: Option<&TaskSpec>,
    ) -> TaskSpec {
        let shape = match (shape.canonical(), prev) {
            (Some(canonical), _) => ShapeRef::Static(canonical),
            (None, Some(prev)) if *prev.shape == shape => prev.shape.clone(),
            (None, _) => ShapeRef::Shared(Arc::new(shape)),
        };
        TaskSpec { id, env, shape }
    }
}

impl PartialEq for TaskSpec {
    /// Equal by contents: a static shape equals a shared one that holds
    /// the same fields.
    fn eq(&self, other: &TaskSpec) -> bool {
        self.id == other.id && self.same_shape(other)
    }
}

impl Eq for TaskSpec {}

impl fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSpec")
            .field("id", &self.id)
            .field("command", self.command())
            .field("args", self.args())
            .field("env", &self.env)
            .field("working_dir", self.working_dir())
            .field("estimated_runtime_us", &self.estimated_runtime_us())
            .field("data", &self.data())
            .finish()
    }
}

/// The outcome of one executed task, 32 bytes in memory.
#[derive(Clone, PartialEq, Eq, Debug)]
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
    pub(crate) fn stdout(&self) -> Option<&str> {
        self.captured.as_ref()?.stdout.as_deref()
    }

    /// Captured standard error, if requested.
    pub(crate) fn stderr(&self) -> Option<&str> {
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
        assert_eq!(&**t.command(), "sleep");
        assert_eq!(&*t.args()[0], "480");
        assert_eq!(t.runtime_us(), 480_000_000);
    }

    #[test]
    fn sleep_us_fractional() {
        let t = TaskSpec::sleep_us(1, 1_500_000);
        assert_eq!(&*t.args()[0], "1.5");
        assert_eq!(t.runtime_us(), 1_500_000);
        assert!(!t.args()[0].is_interned());
    }

    /// Every whole millisecond below a second interns as the plain decimal
    /// it always formatted to, and decodes back onto the same entry; any
    /// other spelling of it, and any other fraction, stays a heap string.
    #[test]
    fn whole_milliseconds_intern_their_canonical_decimal() {
        for ms in 1..1000u64 {
            let want = format!("0.{ms:03}").trim_end_matches('0').to_owned();
            let t = TaskSpec::sleep_us(ms, ms * 1000);
            assert_eq!(&*t.args()[0], want, "{ms} ms");
            assert!(t.args()[0].is_interned(), "{ms} ms");
            assert!(interned(want.as_bytes()).is_some_and(|s| s.ptr_eq(&t.args()[0])));
            assert!(interned(format!("0.{ms:03}0").as_bytes()).is_none());
        }
        for s in [
            "0.", "0.0", "0.000", "0.50", "0.0010", "00.5", "0.00a", "0.0001", "1.5",
        ] {
            assert!(interned(s.as_bytes()).is_none(), "{s:?} interned");
        }
        assert!(!TaskSpec::sleep_us(1, 1_500).args()[0].is_interned());
    }

    #[test]
    fn with_data_builder() {
        let t =
            TaskSpec::sleep(1, 0).with_data(1 << 20, DataLocation::SharedFs, DataAccess::ReadWrite);
        let d = t.data().unwrap();
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
        assert!(a.command().is_interned() && a.command().ptr_eq(b.command()));
        assert!(a.working_dir().is_interned() && a.working_dir().ptr_eq(b.working_dir()));
        assert!(a.args()[0].is_interned() && a.args()[0].ptr_eq(&b.args()[0]));
        // Whole-second `sleep_us` calls share the same interned digits.
        let c = TaskSpec::sleep_us(3, 2_000_000);
        assert_eq!(&*c.args()[0], "2");
        assert!(c.args()[0].ptr_eq(&TaskSpec::sleep(4, 2).args()[0]));
    }

    #[test]
    fn istr_from_interns_and_falls_back() {
        let i = IStr::from("sleep");
        assert!(i.is_interned());
        let d = IStr::from("42");
        assert!(d.is_interned());
        // Every canonical decimal below 1,000 interns, as the constructors'
        // do: Figure 9's `sleep 480` tasks share one string.
        assert!(IStr::from("480").is_interned() && IStr::from("999").is_interned());
        let a = TaskSpec::sleep(1, 480);
        assert!(
            a.args()[0].is_interned() && a.args()[0].ptr_eq(&TaskSpec::sleep(2, 480).args()[0])
        );
        // Non-canonical decimals, larger ones and arbitrary strings allocate.
        assert!(!IStr::from("07").is_interned());
        assert!(!IStr::from("0480").is_interned() && !IStr::from("1000").is_interned());
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

    /// Each canonical decimal in `range` maps to the table entry that
    /// spells it, from the wire as from the constructors.
    fn decimals_intern_as_themselves(range: std::ops::Range<u64>) {
        for n in range {
            let s = n.to_string();
            let i = interned(s.as_bytes()).unwrap_or_else(|| panic!("{s} not interned"));
            assert_eq!(&*i, s);
            assert!(i.ptr_eq(&TaskSpec::sleep(1, n).args()[0]), "{s}");
        }
    }

    #[test]
    fn single_digits_intern_as_themselves() {
        decimals_intern_as_themselves(0..10);
    }

    #[test]
    fn two_digit_decimals_intern_as_themselves() {
        decimals_intern_as_themselves(10..100);
    }

    #[test]
    fn three_digit_decimals_intern_as_themselves() {
        decimals_intern_as_themselves(100..1000);
    }

    /// `ptr_eq` is identity: clones of one string are identical; equal
    /// contents in two places, and different strings of one length, are not.
    #[test]
    fn ptr_eq_is_identity() {
        let a = IStr::from("custom-binary");
        assert!(a.ptr_eq(&a.clone()));
        assert!(!a.ptr_eq(&IStr::from("custom-binary")));
        assert!(!a.ptr_eq(&IStr::from("custom-binarz")));
    }

    /// Two spans of one buffer that start together are not identical
    /// unless they also end together.
    #[test]
    fn spans_that_start_together_are_identical_only_if_they_end_together() {
        let buf = Arc::new(String::from("abcdef"));
        let span = |end| IStr::span(&buf, 0, end).expect("in bounds");
        assert!(span(2).ptr_eq(&span(2)));
        assert!(!span(2).ptr_eq(&span(3)));
    }

    /// Equality is by contents, whatever holds them.
    #[test]
    fn istrs_are_equal_by_contents() {
        let a = IStr::from("custom-binary");
        assert_eq!(a, IStr::from("custom-binary"));
        assert_ne!(a, IStr::from("custom-binarz"));
        assert_ne!(IStr::from("sleep"), IStr::from("/tmp"));
        let buf = Arc::new(String::from("custom-binary!"));
        assert_eq!(IStr::span(&buf, 0, 13), Some(a));
    }

    /// A heap string counts the `IStr`s that hold it; an interned one is
    /// not counted.
    #[test]
    fn strong_count_counts_the_holders_of_a_heap_string() {
        let a = IStr::from("custom-binary");
        assert_eq!(a.strong_count(), Some(1));
        let b = a.clone();
        assert_eq!((a.strong_count(), b.strong_count()), (Some(2), Some(2)));
        assert_eq!(IStr::from("sleep").strong_count(), None);
    }

    /// Standard output captured alone is kept, as standard error alone is.
    #[test]
    fn captured_stdout_alone_is_kept() {
        let out = TaskResult::success(TaskId(1)).with_output(Some("hi".into()), None);
        assert_eq!((out.stdout(), out.stderr()), (Some("hi"), None));
    }

    /// Two specs are one shape only if every field but the id agrees.
    #[test]
    fn same_shape_tells_apart_every_field_but_the_id() {
        let base = TaskSpec::sleep(1, 0);
        assert!(base.same_shape(&TaskSpec::sleep(2, 0)));
        let differ: [fn(TaskSpec) -> TaskSpec; 6] = [
            |t| t.with_command("true"),
            |t| t.with_args(Args::one("1")),
            |t| TaskSpec {
                env: vec![("K".into(), "V".into())],
                ..t
            },
            |t| t.with_working_dir("/work"),
            |t| t.with_estimate(Some(7)),
            |t| t.with_object(1, 1, DataLocation::SharedFs, DataAccess::Read),
        ];
        for (field, change) in differ.iter().enumerate() {
            let other = change(TaskSpec::sleep(2, 0));
            assert!(!base.same_shape(&other), "field {field}");
            assert!(other.with_id(TaskId(1)).same_shape(&other));
        }
    }

    /// A canonical `sleep` is one static shape, built or rebuilt: equal
    /// contents, the same handle, and no allocation to clone.
    #[test]
    fn canonical_sleeps_share_a_static_shape() {
        for us in [0, 1_000, 999_000, 1_000_000, 999_000_000] {
            let a = TaskSpec::sleep_us(1, us);
            assert!(matches!(a.shape, ShapeRef::Static(_)), "{us} us");
            assert!(std::ptr::eq::<Shape>(
                &*a.shape,
                &*TaskSpec::sleep_us(2, us).shape
            ));
            // Edited back to the canonical fields, a shape is static again.
            let b = a.clone().with_estimate(None).with_estimate(Some(us));
            assert!(matches!(b.shape, ShapeRef::Static(_)), "{us} us rebuilt");
        }
        for us in [1, 1_500, 1_500_000, 1_000_000_000] {
            let a = TaskSpec::sleep_us(1, us);
            assert!(matches!(a.shape, ShapeRef::Shared(_)), "{us} us");
            assert_eq!(a, TaskSpec::sleep_us(1, us));
        }
        assert_eq!(TaskSpec::sleep(3, 2), TaskSpec::sleep_us(3, 2_000_000));
    }

    /// A static shape equals a shared one with the same contents, and a
    /// task's `Debug` names every field, shape fields included.
    #[test]
    fn equality_is_by_contents_and_debug_names_every_field() {
        let canonical = TaskSpec::sleep(5, 0);
        let shared = TaskSpec {
            shape: ShapeRef::Shared(Arc::new(Shape::sleep(0))),
            ..canonical.clone()
        };
        assert_eq!(shared, canonical);
        assert!(shared.same_shape(&canonical) && canonical.same_shape(&shared));
        assert_ne!(shared.with_estimate(Some(1)), canonical);
        assert_eq!(
            format!("{canonical:?}"),
            "TaskSpec { id: task#5, command: \"sleep\", args: [\"0\"], env: [], \
             working_dir: \"/tmp\", estimated_runtime_us: Some(0), data: None }"
        );
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(42).to_string(), "42");
        assert_eq!(format!("{:?}", TaskId(42)), "task#42");
    }
}
