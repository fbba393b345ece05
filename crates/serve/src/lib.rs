//! `xsynth serve` — a long-lived synthesis daemon.
//!
//! The one-shot CLI pays process start-up and library loading on every
//! invocation. Interactive use — an editor plugin resynthesizing on
//! save, a design-space sweep — sends many small jobs, so this crate
//! keeps a worker pool alive behind TCP and/or unix-socket listeners.
//! Each job is one [`xsynth_core::try_synthesize`] call on its own BDD
//! manager; nothing is kept between jobs, so a resubmitted job gives the
//! same network and the same trace counters as its first run.
//!
//! The wire protocol is newline-delimited JSON (see [`proto`]), framed
//! with the same zero-dependency [`xsynth_trace::json`] parser the
//! benchmark telemetry uses, and versioned with a `protocol_version`
//! field both sides validate ([`PROTOCOL_VERSION`]). Shape or version
//! violations produce a typed error *reply* (CLI exit-code family 10,
//! [`xsynth_core::Error::Protocol`]) and leave the connection open.
//!
//! The daemon is overload-protected: queues are bounded per connection
//! and daemon-wide, request lines are byte-capped, slow-loris and idle
//! connections are reaped, queued jobs for dropped connections are
//! cancelled, and graceful drain answers or sheds everything queued
//! within a drain timeout. Sheds are typed
//! [`xsynth_core::Error::Overloaded`] replies (CLI exit-code family 11)
//! carrying a `retry_after_ms` hint, which [`RetryPolicy`] and
//! [`Client::synth_with_retry`] honor with decorrelated-jitter backoff.
//! The `health` wire op reports `ready` / `shedding` / `draining` for
//! probes.
//!
//! # Examples
//!
//! ```
//! use xsynth_serve::{Client, ServeOptions, Server};
//!
//! let server = Server::bind(ServeOptions {
//!     tcp: Some("127.0.0.1:0".into()),
//!     workers: 1,
//!     ..ServeOptions::default()
//! })
//! .expect("bind");
//! let addr = server.tcp_addr().expect("tcp bound").to_string();
//! let mut client = Client::connect_tcp(&addr).expect("connect");
//! let pong = client.ping().expect("ping");
//! assert_eq!(pong.get("status").and_then(|v| v.as_str()), Some("ok"));
//! client.shutdown().expect("shutdown ack");
//! server.wait();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod proto;
mod server;

pub use client::{is_overloaded, retry_after_hint, Client, RetryPolicy};
pub use proto::{JobFormat, JobRequest, Request, PROTOCOL_VERSION};
pub use server::{DrainHandle, ServeOptions, Server};
