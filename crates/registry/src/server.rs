//! The single-model [`Server`]: a [`RoutedServer`] over a **one-entry
//! registry**, with every submission routed to [`SINGLE_MODEL_ID`].
//!
//! Same machinery as the routed server — bounded queue with
//! backpressure, deadline micro-batching into
//! [`Solver::query_batch`], in-window dedup, per-request reply
//! delivery, cancel-on-drop and drain-then-join shutdown — with the
//! model id pinned, so `submit` takes just a query. Counters, metrics
//! and the tracer are read through [`Server::routed`]. Serving several
//! networks from one process is the routed server's job; start from
//! `examples/multi_model.rs`.
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use fastbn_bayesnet::datasets;
//! use fastbn_inference::{Query, Solver};
//! use fastbn_registry::Server;
//!
//! let net = datasets::sprinkler();
//! let solver = Arc::new(Solver::new(&net));
//! let server = Server::builder(solver)
//!     .workers(2)
//!     .max_batch(4)
//!     .max_delay(Duration::from_micros(100))
//!     .build();
//!
//! let wet = net.var_id("WetGrass").unwrap();
//! let rain = net.var_id("Rain").unwrap();
//! let pending = server.submit(Query::new().observe(wet, 0)).unwrap();
//! let posteriors = pending.wait().unwrap().into_posteriors().unwrap();
//! // P(Rain | WetGrass = true) ≈ 0.708 (Russell & Norvig).
//! assert!((posteriors.marginal(rain)[0] - 0.7079).abs() < 1e-3);
//! ```

use std::sync::Arc;
use std::time::Duration;

use fastbn_inference::{Query, Solver};
use fastbn_telemetry::Tracer;

use crate::registry::Registry;
use crate::routed::{Pending, RoutedServer, RoutedServerBuilder, SubmitError};

/// The model id a single-model [`Server`] registers its solver under.
/// Visible in [`RoutedServer::model_stats`] rows and
/// [`SubmitError::model`].
pub const SINGLE_MODEL_ID: &str = "default";

/// Configures and starts a [`Server`]; the setters are
/// [`RoutedServerBuilder`]'s.
pub struct ServerBuilder {
    inner: RoutedServerBuilder,
}

impl ServerBuilder {
    /// See [`RoutedServerBuilder::workers`] (default 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.inner = self.inner.workers(workers);
        self
    }

    /// See [`RoutedServerBuilder::max_batch`] (default 16).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.inner = self.inner.max_batch(max_batch);
        self
    }

    /// See [`RoutedServerBuilder::max_delay`] (default 500µs).
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.inner = self.inner.max_delay(max_delay);
        self
    }

    /// See [`RoutedServerBuilder::queue_capacity`] (default
    /// `2 × workers × max_batch`).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.inner = self.inner.queue_capacity(capacity);
        self
    }

    /// See [`RoutedServerBuilder::tracer`] (default none).
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.inner = self.inner.tracer(tracer);
        self
    }

    /// Starts the workers and returns the running server.
    pub fn build(self) -> Server {
        Server {
            inner: self.inner.build(),
        }
    }
}

/// A micro-batching serving front end over one shared [`Solver`].
///
/// Results are **bit-identical** to running each query alone through a
/// [`Session`](fastbn_inference::Session) — batching and scheduling are
/// invisible to clients (asserted by `tests/serve.rs`).
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use fastbn_bayesnet::datasets;
/// use fastbn_inference::{EngineKind, Query, Solver};
/// use fastbn_registry::Server;
///
/// let net = datasets::asia();
/// let solver = Arc::new(
///     Solver::builder(&net).engine(EngineKind::Hybrid).threads(2).build(),
/// );
/// let server = Server::builder(Arc::clone(&solver))
///     .workers(2)
///     .max_batch(8)
///     .max_delay(Duration::from_micros(200))
///     .build();
///
/// // Clients submit concurrently and block only on their own result.
/// let xray = net.var_id("XRay").unwrap();
/// let pending: Vec<_> = (0..16)
///     .map(|i| server.submit(Query::new().observe(xray, i % 2)).unwrap())
///     .collect();
/// for p in pending {
///     let result = p.wait().unwrap();
///     assert!(result.posteriors().unwrap().prob_evidence > 0.0);
/// }
///
/// server.shutdown(); // drains accepted requests, joins the workers
/// assert!(server.submit(Query::new()).is_err());
/// assert_eq!(server.routed().stats().completed, 16);
/// ```
#[derive(Debug)]
pub struct Server {
    inner: RoutedServer,
}

impl Server {
    /// Starts a server with default settings (1 worker, micro-batches of
    /// up to 16 with a 500µs window). Use [`Server::builder`] to tune.
    pub fn new(solver: Arc<Solver>) -> Server {
        Server::builder(solver).build()
    }

    /// Starts configuring a server over `solver`.
    pub fn builder(solver: Arc<Solver>) -> ServerBuilder {
        let registry = Arc::new(Registry::builder().build());
        registry
            .insert(SINGLE_MODEL_ID, solver)
            .expect("a fresh unbounded registry always has room");
        ServerBuilder {
            inner: RoutedServer::builder(registry),
        }
    }

    /// Submits a query, **blocking while the queue is full**
    /// (backpressure). Fails only after [`Server::shutdown`].
    pub fn submit(&self, query: Query) -> Result<Pending, SubmitError> {
        self.inner.submit(SINGLE_MODEL_ID, query)
    }

    /// Submits without blocking; a full queue rejects with
    /// [`SubmitErrorKind::QueueFull`](crate::SubmitErrorKind::QueueFull)
    /// (the query handed back) instead of waiting.
    pub fn try_submit(&self, query: Query) -> Result<Pending, SubmitError> {
        self.inner.try_submit(SINGLE_MODEL_ID, query)
    }

    /// Stops accepting, drains every already-accepted request, and
    /// joins the workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// The routed server underneath: its stats, metrics, tracer and
    /// configuration.
    pub fn routed(&self) -> &RoutedServer {
        &self.inner
    }
}
