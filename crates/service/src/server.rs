//! The bounded worker pool behind a running planner service.
//!
//! [`PlannerService::run`] spawns `workers` scoped threads draining one
//! job queue into a shared [`WarmCache`] and hands the closure a
//! [`ServiceClient`]. Submissions return immediately with a [`Pending`]
//! handle; the caller waits, polls, or cancels. A client built with
//! [`ServiceClient::with_wake`] is also told when each job is done, so its
//! caller can block on one event source instead of polling.
//!
//! The pool is unpoisonable by construction: every job runs under
//! [`catch_unwind`], a cancelled or deadline-expired ticket short-circuits
//! to [`Error::Cancelled`] *before* any planning happens, and a worker that
//! answered one request — however it ended — is immediately back on the
//! queue for the next.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use primepar_search::{SearchInterrupt, SearchStrategy};

use crate::cache::{ServiceCacheStats, WarmCache};
use crate::observe::{RequestTrace, ServiceObserver};
use crate::{
    Error, PlanRequest, PlanResponse, ReplanRequest, ReplanResponse, SimRequest, SimResponse,
};

/// Pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOptions {
    /// Worker threads draining the request queue (minimum 1).
    pub workers: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions { workers: 2 }
    }
}

/// Shared cancellation flag of one submitted request.
///
/// Cloning shares the flag; any clone can cancel. A request cancelled
/// before a worker picks it up is never planned. One cancelled mid-flight
/// still completes its planning work and answers [`Error::Cancelled`] —
/// except an [`SearchStrategy::Anytime`] plan, whose search polls this very
/// flag (via [`CancelToken::search_interrupt`]) between beam rounds and
/// answers with the best plan found so far plus its `optimality_gap`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// A [`SearchInterrupt`] sharing this token's flag: cancelling the token
    /// interrupts any anytime search it was attached to, with no extra
    /// signalling.
    pub fn search_interrupt(&self) -> SearchInterrupt {
        SearchInterrupt::from_flag(self.0.clone())
    }
}

/// Delivery constraints travelling with a job.
#[derive(Debug, Clone)]
struct Ticket {
    cancel: CancelToken,
    deadline: Option<Instant>,
}

impl Ticket {
    fn for_deadline(cancel: CancelToken, deadline_ms: Option<u64>) -> Ticket {
        Ticket {
            cancel,
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }
}

/// Called once per job after its verdict is sent; see
/// [`ServiceClient::with_wake`].
type Wake = Arc<dyn Fn() + Send + Sync>;

/// A job's reply channel plus its client's wake hook. Dropping it — after
/// [`ReplyTx::send`], or unsent because the job was dropped or its worker
/// died — closes the channel first and then wakes, so a woken caller always
/// finds the verdict or the disconnect.
struct ReplyTx<T> {
    tx: Option<Sender<Result<T, Error>>>,
    wake: Option<Wake>,
}

impl<T> ReplyTx<T> {
    fn send(mut self, verdict: Result<T, Error>) {
        if let Some(tx) = self.tx.take() {
            drop(tx.send(verdict));
        }
    }
}

impl<T> Drop for ReplyTx<T> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(wake) = &self.wake {
            wake();
        }
    }
}

enum Job {
    Plan {
        req: PlanRequest,
        ticket: Ticket,
        trace: Option<Arc<RequestTrace>>,
        reply: ReplyTx<PlanResponse>,
    },
    Sim {
        req: SimRequest,
        ticket: Ticket,
        trace: Option<Arc<RequestTrace>>,
        reply: ReplyTx<SimResponse>,
    },
    Replan {
        req: ReplanRequest,
        ticket: Ticket,
        trace: Option<Arc<RequestTrace>>,
        reply: ReplyTx<ReplanResponse>,
    },
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Pending<T> {
    rx: Receiver<Result<T, Error>>,
    cancel: CancelToken,
}

impl<T> Pending<T> {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The worker's verdict, or [`Error::Internal`] if the pool went away
    /// without answering.
    pub fn wait(self) -> Result<T, Error> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(Error::internal("service dropped the reply channel")))
    }

    /// The response if it has already arrived, `None` otherwise. A pool
    /// that went away without answering resolves to [`Error::Internal`], as
    /// in [`Pending::wait`].
    pub fn try_wait(&self) -> Option<Result<T, Error>> {
        match self.rx.try_recv() {
            Ok(verdict) => Some(verdict),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                Some(Err(Error::internal("service dropped the reply channel")))
            }
        }
    }

    /// Requests cancellation of this request.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of this request's cancellation token.
    pub fn token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// Submission handle the service lends to its driver closure.
///
/// Cheap to clone (it is a queue sender plus a cache reference); all clones
/// must be dropped for the service's workers to shut down, so do not smuggle
/// one out of the [`PlannerService::run`] closure.
pub struct ServiceClient<'c> {
    tx: Sender<Job>,
    cache: &'c WarmCache,
    observer: Option<&'c ServiceObserver>,
    wake: Option<Wake>,
}

impl std::fmt::Debug for ServiceClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("observed", &self.observer.is_some())
            .field("wakes", &self.wake.is_some())
            .finish_non_exhaustive()
    }
}

impl Clone for ServiceClient<'_> {
    fn clone(&self) -> Self {
        ServiceClient {
            tx: self.tx.clone(),
            cache: self.cache,
            observer: self.observer,
            wake: self.wake.clone(),
        }
    }
}

impl<'c> ServiceClient<'c> {
    /// A clone of this client whose jobs call `wake` once their verdict is
    /// sent, or once their reply is dropped unsent (the job was dropped or
    /// its worker died). A caller holding many [`Pending`] handles can then
    /// sleep until something changed instead of polling them on a timer.
    pub(crate) fn with_wake(&self, wake: impl Fn() + Send + Sync + 'static) -> ServiceClient<'c> {
        ServiceClient {
            wake: Some(Arc::new(wake)),
            ..self.clone()
        }
    }

    fn reply_channel<T>(&self) -> (ReplyTx<T>, Pending<T>) {
        let (tx, rx) = mpsc::channel();
        let reply = ReplyTx {
            tx: Some(tx),
            wake: self.wake.clone(),
        };
        (
            reply,
            Pending {
                rx,
                cancel: CancelToken::new(),
            },
        )
    }

    /// Answers a plan request on the calling thread when its plan is already
    /// resident in the memo — the serve loop's admission fast path. The
    /// answer passes the pickup checks a worker applies (cancel, deadline),
    /// counts as a memo hit, and is the pool's answer byte for byte apart
    /// from `elapsed_us`. Its `exec` span has no worker, so it lands on the
    /// serve loop's trace lane, and the observer counts it as started.
    ///
    /// `None` means the request needs the pool: it simulates, does not
    /// resolve, or its plan is not resident. This never plans.
    pub fn answer_resident(
        &self,
        req: &PlanRequest,
        trace: Option<&RequestTrace>,
    ) -> Option<Result<PlanResponse, Error>> {
        let resident = self.cache.resident_plan(req)?;
        let ticket = Ticket::for_deadline(CancelToken::new(), req.deadline_ms);
        if let Some(obs) = self.observer {
            obs.job_inline();
        }
        if let Some(trace) = trace {
            trace.begin_exec(None);
        }
        let panic_dump = self.observer.map(|obs| (obs, self.cache));
        let verdict = guarded_plan(req, &ticket, panic_dump, || {
            Ok(self.cache.answer_resident(req, resident, trace))
        });
        if let Some(trace) = trace {
            trace.end_exec();
        }
        Some(verdict)
    }

    /// Enqueues a plan request; returns immediately.
    pub fn submit_plan(&self, req: PlanRequest) -> Pending<PlanResponse> {
        self.submit_plan_traced(req, None)
    }

    /// [`ServiceClient::submit_plan`] carrying a request trace: the worker
    /// that picks the job up records its execution spans into `trace`.
    pub fn submit_plan_traced(
        &self,
        req: PlanRequest,
        trace: Option<Arc<RequestTrace>>,
    ) -> Pending<PlanResponse> {
        let (reply, pending) = self.reply_channel();
        let ticket = Ticket::for_deadline(pending.token(), req.deadline_ms);
        self.dispatch(Job::Plan {
            req,
            ticket,
            trace,
            reply,
        });
        pending
    }

    /// Plans synchronously on the pool.
    ///
    /// # Errors
    ///
    /// The worker's verdict for this request.
    pub fn plan(&self, req: PlanRequest) -> Result<PlanResponse, Error> {
        self.submit_plan(req).wait()
    }

    /// Enqueues a simulation request; returns immediately.
    pub fn submit_sim(&self, req: SimRequest) -> Pending<SimResponse> {
        self.submit_sim_traced(req, None)
    }

    /// [`ServiceClient::submit_sim`] carrying a request trace; see
    /// [`ServiceClient::submit_plan_traced`].
    pub fn submit_sim_traced(
        &self,
        req: SimRequest,
        trace: Option<Arc<RequestTrace>>,
    ) -> Pending<SimResponse> {
        let (reply, pending) = self.reply_channel();
        let ticket = Ticket::for_deadline(pending.token(), req.deadline_ms);
        self.dispatch(Job::Sim {
            req,
            ticket,
            trace,
            reply,
        });
        pending
    }

    /// Simulates synchronously on the pool.
    ///
    /// # Errors
    ///
    /// The worker's verdict for this request.
    pub fn sim(&self, req: SimRequest) -> Result<SimResponse, Error> {
        self.submit_sim(req).wait()
    }

    /// Enqueues a replan request; returns immediately.
    pub fn submit_replan(&self, req: ReplanRequest) -> Pending<ReplanResponse> {
        self.submit_replan_traced(req, None)
    }

    /// [`ServiceClient::submit_replan`] carrying a request trace; see
    /// [`ServiceClient::submit_plan_traced`].
    pub fn submit_replan_traced(
        &self,
        req: ReplanRequest,
        trace: Option<Arc<RequestTrace>>,
    ) -> Pending<ReplanResponse> {
        let (reply, pending) = self.reply_channel();
        let ticket = Ticket::for_deadline(pending.token(), req.deadline_ms);
        self.dispatch(Job::Replan {
            req,
            ticket,
            trace,
            reply,
        });
        pending
    }

    /// Decides a replan synchronously on the pool.
    ///
    /// # Errors
    ///
    /// The worker's verdict for this request.
    pub fn replan(&self, req: ReplanRequest) -> Result<ReplanResponse, Error> {
        self.submit_replan(req).wait()
    }

    /// Counters of the cache this service plans against.
    pub fn stats(&self) -> ServiceCacheStats {
        self.cache.stats()
    }

    fn dispatch(&self, job: Job) {
        // A send can only fail once every worker is gone; answer through the
        // job's own reply channel so the Pending handle still resolves.
        if let Err(failed) = self.tx.send(job) {
            const GONE: &str = "service workers are gone";
            match failed.0 {
                Job::Plan { reply, .. } => reply.send(Err(Error::internal(GONE))),
                Job::Sim { reply, .. } => reply.send(Err(Error::internal(GONE))),
                Job::Replan { reply, .. } => reply.send(Err(Error::internal(GONE))),
            }
        }
    }
}

/// A scoped worker pool over a [`WarmCache`].
pub struct PlannerService;

impl PlannerService {
    /// Runs `f` against a fresh pool with its own private cache.
    pub fn run<R>(opts: ServiceOptions, f: impl FnOnce(&ServiceClient<'_>) -> R) -> R {
        let cache = WarmCache::new();
        PlannerService::run_with_cache(opts, &cache, f)
    }

    /// Runs `f` against a pool planning into `cache` — the shape long-lived
    /// hosts use so warm state survives across connections.
    pub fn run_with_cache<R>(
        opts: ServiceOptions,
        cache: &WarmCache,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        PlannerService::run_observed(opts, cache, None, f)
    }

    /// [`PlannerService::run_with_cache`] reporting into a
    /// [`ServiceObserver`]: each worker gets a stable lane index, announces
    /// pickups/completions, records execution spans into job traces, and
    /// dumps the flight recorder should a job panic.
    pub fn run_observed<R>(
        opts: ServiceOptions,
        cache: &WarmCache,
        observer: Option<&ServiceObserver>,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Mutex::new(rx);
        let rx = &rx;
        thread::scope(|scope| {
            for idx in 0..opts.workers.max(1) {
                scope.spawn(move || worker_loop(idx, rx, cache, observer));
            }
            let client = ServiceClient {
                tx,
                cache,
                observer,
                wake: None,
            };
            // `f` borrows the client; dropping it afterwards closes the
            // queue, so the workers drain what is left and join at scope
            // exit.
            f(&client)
        })
    }
}

fn worker_loop(
    idx: usize,
    rx: &Mutex<Receiver<Job>>,
    cache: &WarmCache,
    observer: Option<&ServiceObserver>,
) {
    loop {
        // Lock only around the recv so a worker deep in a plan never blocks
        // its siblings' pickups.
        let job = match rx.lock().expect("job queue lock").recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: service is shutting down
        };
        let picked = Instant::now();
        if let Some(obs) = observer {
            obs.job_started(idx);
        }
        let panic_dump = observer.map(|obs| (obs, cache));
        match job {
            Job::Plan {
                req,
                ticket,
                trace,
                reply,
            } => {
                if let Some(trace) = &trace {
                    trace.begin_exec(Some(idx));
                }
                let interrupt = matches!(req.strategy, SearchStrategy::Anytime { .. })
                    .then(|| ticket.cancel.search_interrupt());
                let verdict = guarded_plan(&req, &ticket, panic_dump, || {
                    cache.execute_plan_interruptible(&req, trace.as_deref(), interrupt.as_ref())
                });
                if let Some(trace) = &trace {
                    trace.end_exec();
                }
                reply.send(verdict);
            }
            Job::Sim {
                req,
                ticket,
                trace,
                reply,
            } => {
                if let Some(trace) = &trace {
                    trace.begin_exec(Some(idx));
                }
                let verdict = guarded(&ticket, panic_dump, || {
                    cache.execute_sim_traced(&req, trace.as_deref())
                });
                if let Some(trace) = &trace {
                    trace.end_exec();
                }
                reply.send(verdict);
            }
            Job::Replan {
                req,
                ticket,
                trace,
                reply,
            } => {
                if let Some(trace) = &trace {
                    trace.begin_exec(Some(idx));
                }
                let verdict = guarded(&ticket, panic_dump, || {
                    cache.execute_replan_traced(&req, trace.as_deref())
                });
                if let Some(trace) = &trace {
                    trace.end_exec();
                }
                reply.send(verdict);
            }
        }
        if let Some(obs) = observer {
            obs.job_finished(idx, picked.elapsed().as_micros() as u64);
        }
    }
}

/// Runs one job under the pool's survival guarantees. `panic_dump` is the
/// observability hook of the panic path: the flight recorder is dumped
/// *before* the panic verdict goes back, so the artifact survives even if
/// the client hangs up on the error.
fn guarded<T>(
    ticket: &Ticket,
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    if ticket.cancel.is_cancelled() {
        return Err(Error::cancelled("request cancelled before pickup"));
    }
    if let Some(deadline) = ticket.deadline {
        if Instant::now() >= deadline {
            return Err(Error::cancelled("deadline expired before pickup"));
        }
    }
    match run_caught(panic_dump, job) {
        Ok(_) if ticket.cancel.is_cancelled() => {
            Err(Error::cancelled("request cancelled while in flight"))
        }
        other => other,
    }
}

/// The pickup guard a plan job runs under: [`guarded_anytime`] for an
/// anytime search, [`guarded`] for every other strategy.
fn guarded_plan<T>(
    req: &PlanRequest,
    ticket: &Ticket,
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    if matches!(req.strategy, SearchStrategy::Anytime { .. }) {
        guarded_anytime(ticket, panic_dump, job)
    } else {
        guarded(ticket, panic_dump, job)
    }
}

/// [`guarded`] for anytime plan jobs, which never answer `cancelled`:
/// delivery pressure — a fired cancel token, an already-expired pickup
/// deadline — becomes an interrupt on the job's [`SearchInterrupt`] (the
/// cancel token *is* the interrupt flag), so the search still runs at least
/// one width-1 round and answers with its best-so-far plan and gap.
fn guarded_anytime<T>(
    ticket: &Ticket,
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    if let Some(deadline) = ticket.deadline {
        if Instant::now() >= deadline {
            ticket.cancel.cancel();
        }
    }
    run_caught(panic_dump, job)
}

/// The pool's panic fence: runs `job` under `catch_unwind`, dumping the
/// flight recorder before the panic verdict goes back.
fn run_caught<T>(
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(result) => result,
        Err(payload) => {
            if let Some((obs, cache)) = panic_dump {
                obs.dump_on_panic(cache);
            }
            Err(Error::internal(format!(
                "worker panicked: {}",
                panic_message(payload.as_ref())
            )))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(id: &str) -> PlanRequest {
        PlanRequest::builder("opt-6.7b")
            .id(id)
            .devices(4)
            .batch(8)
            .seq(512)
            .layers(Some(2))
            .build()
    }

    #[test]
    fn pool_answers_and_shares_the_cache() {
        let (a, b, stats) = PlannerService::run(ServiceOptions::default(), |client| {
            let a = client.plan(tiny("a")).expect("plans");
            let b = client.plan(tiny("b")).expect("plans");
            (a, b, client.stats())
        });
        assert_eq!(a.plan_text, b.plan_text);
        assert!(b.cache.plan_cache_hit);
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1));
    }

    #[test]
    fn expired_deadline_cancels_without_poisoning_the_pool() {
        PlannerService::run(ServiceOptions { workers: 1 }, |client| {
            let doomed = client.plan(PlanRequest {
                deadline_ms: Some(0),
                ..tiny("doomed")
            });
            assert!(matches!(doomed, Err(Error::Cancelled(_))), "{doomed:?}");
            // The same (sole) worker still serves the next request.
            let after = client.plan(tiny("after")).expect("pool survived");
            assert!(!after.cache.plan_cache_hit, "doomed request never planned");
        });
    }

    #[test]
    fn explicit_cancel_skips_queued_work() {
        PlannerService::run(ServiceOptions { workers: 1 }, |client| {
            // Occupy the only worker, then cancel the request queued behind.
            let busy = client.submit_plan(tiny("busy"));
            let queued = client.submit_plan(tiny("queued"));
            queued.cancel();
            assert!(queued.token().is_cancelled());
            assert!(busy.wait().is_ok());
            let verdict = queued.wait();
            assert!(matches!(verdict, Err(Error::Cancelled(_))), "{verdict:?}");
            // Nothing poisoned: a fresh request still plans.
            assert!(client.plan(tiny("fresh")).is_ok());
        });
    }

    #[test]
    fn replan_requests_flow_through_the_pool() {
        PlannerService::run(ServiceOptions::default(), |client| {
            let resp = client
                .replan(ReplanRequest::of(tiny("r")).with_scenario("harsh", 5))
                .expect("decides");
            assert_eq!(resp.id, "r");
            assert_eq!(resp.decision, resp.outcome.decision);
            let stats = client.stats();
            assert_eq!(
                stats.replan_stay + stats.replan_patch + stats.replan_full,
                1,
                "{stats:?}"
            );
        });
    }

    #[test]
    fn guarded_maps_panics_to_internal() {
        let ticket = Ticket::for_deadline(CancelToken::new(), None);
        let verdict: Result<(), Error> = guarded(&ticket, None, || panic!("kaboom"));
        match verdict {
            Err(Error::Internal(msg)) => assert!(msg.contains("kaboom"), "{msg}"),
            other => panic!("expected internal error, got {other:?}"),
        }
        // The post-run cancel check wins over a successful result.
        let ticket = Ticket::for_deadline(CancelToken::new(), None);
        ticket.cancel.cancel();
        let verdict: Result<(), Error> = guarded(&ticket, None, || Ok(()));
        assert!(matches!(verdict, Err(Error::Cancelled(_))));
    }

    #[test]
    fn pending_try_wait_polls_without_blocking() {
        PlannerService::run(ServiceOptions::default(), |client| {
            let pending = client.submit_plan(tiny("poll"));
            loop {
                if let Some(verdict) = pending.try_wait() {
                    assert!(verdict.is_ok());
                    break;
                }
                thread::yield_now();
            }
        });
    }
}
