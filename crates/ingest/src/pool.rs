//! One process-wide pool of parked OS threads for the work a round
//! fans out: the ingest engine's pooled participants (which run the
//! pods) and the fix trials.
//!
//! [`scope`] is shaped like `std::thread::scope`: jobs spawned in it may
//! borrow from the caller's stack, and it returns only after every job
//! it spawned has finished, also when its closure or a job panics. A
//! job's panic is re-raised from `scope`, after its siblings finished,
//! with that job's own payload (the first panic wins when several
//! happen).
//!
//! A job runs on an idle pooled thread; a thread is added only when
//! every pooled thread is busy. A thread goes back on the idle list
//! before its job reports done, so when a scope returns every thread
//! that ran its jobs is idle again, and the pool never holds more
//! threads than the peak number of jobs running at once. Threads never
//! exit: after warm-up a round creates none, where spawning and joining
//! a round's threads cost about as much as a short round's work.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

type Payload = Box<dyn Any + Send>;
type Task = Box<dyn FnOnce() + Send>;

/// One job handed to a pooled thread.
struct Job {
    task: Task,
    scope: Arc<ScopeState>,
}

/// The idle threads, each reached through the sender of its own channel.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Threads the pool has started.
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// Threads the pool has started; none ever exits.
pub fn threads() -> usize {
    STARTED.load(Ordering::SeqCst)
}

/// No lock here guards an invariant a panic could break mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct ScopeState {
    /// Jobs spawned and not yet done.
    running: Mutex<usize>,
    all_done: Condvar,
    /// The first panic of a job or of the scope's closure.
    panic: Mutex<Option<Payload>>,
}

impl ScopeState {
    fn record_panic(&self, payload: Payload) {
        lock(&self.panic).get_or_insert(payload);
    }

    fn job_done(&self) {
        let mut running = lock(&self.running);
        *running -= 1;
        if *running == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut running = lock(&self.running);
        while *running > 0 {
            running = (self.all_done.wait(running)).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A scope to spawn pooled jobs in; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    /// Invariant in both lifetimes, as `std::thread::Scope` is, so a
    /// job can borrow neither less than `'scope` nor from the closure.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// Runs `f` with a [`Scope`] whose jobs run on pooled threads, and
/// returns once `f` and every job spawned in the scope have finished.
///
/// # Panics
///
/// Re-raises the first panic of `f` or of a job, with its own payload,
/// after every job finished.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let scope = Scope {
        state: Arc::default(),
        scope: PhantomData,
        env: PhantomData,
    };
    let out = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    let out = out.map_err(|payload| scope.state.record_panic(payload));
    scope.state.wait();
    if let Some(payload) = lock(&scope.state.panic).take() {
        resume_unwind(payload);
    }
    out.unwrap_or_else(|()| unreachable!("a panic of the closure is recorded"))
}

impl<'scope> Scope<'scope, '_> {
    /// Runs `f` on an idle pooled thread, or on a new one when every
    /// pooled thread is busy.
    ///
    /// # Panics
    ///
    /// When the operating system refuses a new thread.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        *lock(&self.state.running) += 1;
        let job = Job {
            task: erase(Box::new(f)),
            scope: Arc::clone(&self.state),
        };
        let idle = lock(&IDLE).pop();
        // A pooled thread never drops its receiver, so a send fails only
        // if that thread died outside a job; then a new one takes over.
        let job = match idle {
            Some(tx) => match tx.send(job) {
                Ok(()) => return,
                Err(unsent) => unsent.0,
            },
            None => job,
        };
        let (tx, rx) = channel();
        let started = std::thread::Builder::new()
            .name("softborg-pool".into())
            .spawn(move || park(job, tx, rx));
        match started {
            Ok(_) => {
                STARTED.fetch_add(1, Ordering::SeqCst);
            }
            // The job was dropped unrun, on this thread.
            Err(e) => {
                self.state.job_done();
                panic!("the thread pool could not start a thread: {e}");
            }
        }
    }
}

/// A pooled thread's life: run a job, go back on the idle list, report
/// the job done, wait for the next one.
fn park(first: Job, me: Sender<Job>, jobs: Receiver<Job>) {
    let mut job = first;
    loop {
        let Job { task, scope } = job;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            scope.record_panic(payload);
        }
        lock(&IDLE).push(me.clone());
        scope.job_done();
        drop(scope);
        match jobs.recv() {
            Ok(next) => job = next,
            Err(_) => return,
        }
    }
}

/// Erases the borrow lifetime of a job so a pooled thread can hold it.
#[allow(unsafe_code)]
fn erase<'scope>(task: Box<dyn FnOnce() + Send + 'scope>) -> Task {
    // SAFETY: the two types differ only in the trait object's lifetime
    // bound, so they have one layout. The task runs and is dropped —
    // inside `catch_unwind` on its pooled thread, or unrun on the
    // spawning thread when no thread could start — before its scope's
    // `running` count is decremented for it, and `scope` waits for that
    // count to reach zero before it returns or unwinds. So the task is
    // gone before `'scope` ends, and it never outlives what it borrows.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) }
}
