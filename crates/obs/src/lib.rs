//! `alpha-obs`: zero-dependency metrics and tracing primitives.
//!
//! The observability layer for the alpha-hash workspace, hand-rolled on
//! `std` alone in the same spirit as `crates/compat` — no registry
//! crates, no macros, no global state. Three pieces:
//!
//! - **Metrics** ([`metrics`], [`hist`]): relaxed-atomic [`Counter`]s
//!   and [`Gauge`]s, and striped lock-free log2-bucket [`Histogram`]s
//!   from which p50/p90/p99/max are derived at snapshot time. Recording
//!   is wait-free and safe inside any critical section.
//! - **Tracing** ([`trace`]): a [`Tracer`] facade handing out RAII
//!   timer [`Span`]s with static call-site names, routed to a pluggable
//!   [`Subscriber`] (default: a ring buffer of recent events). A
//!   runtime toggle disarms spans at one atomic load per call site.
//! - **Export** ([`export`]): a [`Registry`] of named instruments whose
//!   [`Report`] snapshot renders to Prometheus text format or JSON and
//!   offers typed accessors for programmatic reads.
//!
//! The instrumented component (see `alpha-store`'s `obs` module)
//! decides *what* to measure; this crate only provides the mechanics.
//!
//! [`Counter`]: metrics::Counter
//! [`Gauge`]: metrics::Gauge
//! [`Histogram`]: hist::Histogram
//! [`Tracer`]: trace::Tracer
//! [`Span`]: trace::Span
//! [`Subscriber`]: trace::Subscriber
//! [`Registry`]: export::Registry
//! [`Report`]: export::Report

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use export::{Desc, Registry, Report, Sample};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use trace::{Event, RingSubscriber, Span, Subscriber, Tracer};
