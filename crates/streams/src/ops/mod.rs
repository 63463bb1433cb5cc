//! The standard operator library.
//!
//! Mirrors the InfoSphere toolbox pieces the paper's application uses:
//! the generator and the CSV line source — file, piped file, TCP or HTTP
//! (§III-A1) — the multithreaded load-balancing split (§III-A2), the `Throttle` pacing operator (§III-B),
//! functor (map/filter) utilities, and sinks (callback, collector, CSV
//! file with periodic snapshots).

pub mod functor;
pub mod http;
pub mod http_server;
pub mod net;
pub mod sink;
pub mod source;
pub mod split;
pub mod throttle;

pub use functor::{Filter, Map};
pub use http_server::{
    ConnHandler, HttpServer, RateLimitConfig, Request, ResponseBuf, ServerConfig, ServerStats,
};
pub use net::TcpSink;
pub use sink::{CallbackSink, CollectSink, CsvFileSink, NullSink};
pub use source::{CsvFileSource, GeneratorSource, LineSource, TcpSource};
pub use split::{Split, SplitStrategy};
pub use throttle::Throttle;
