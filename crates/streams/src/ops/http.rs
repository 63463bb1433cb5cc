//! The HTTP origin of a [`LineSource`](super::LineSource).
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." This is a dependency-free HTTP/1.1 GET
//! client over `std::net::TcpStream` whose response body is a plain
//! reader for the line source (same wire format as the file and TCP
//! origins). It handles `Content-Length`, `Transfer-Encoding: chunked` and
//! read-until-close bodies and one level of redirect.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed `http://host[:port]/path` URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpUrl {
    /// Hostname or IP.
    pub host: String,
    /// TCP port (default 80).
    pub port: u16,
    /// Path + query, always starting with `/`.
    pub path: String,
}

impl HttpUrl {
    /// Parses an `http://` URL. `https` is intentionally unsupported (no
    /// TLS stack in the dependency budget) and reports a clear error.
    pub fn parse(url: &str) -> Result<Self, String> {
        if let Some(rest) = url.strip_prefix("https://") {
            let _ = rest;
            return Err("https is not supported (no TLS); use http://".to_string());
        }
        let rest = url
            .strip_prefix("http://")
            .ok_or("URL must start with http://")?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err("empty host".to_string());
        }
        let (host, port) = if let Some(rest) = authority.strip_prefix('[') {
            // Bracketed IPv6 literal: `[addr]` or `[addr]:port`. A bare
            // rsplit on ':' would chop inside the address. The brackets
            // are kept in `host` so the dial string and the Host header
            // stay in the `[addr]:port` form the socket layer expects.
            let (addr, after) = rest.split_once(']').ok_or("unclosed '[' in host")?;
            if addr.is_empty() {
                return Err("empty host".to_string());
            }
            let port: u16 = match after.strip_prefix(':') {
                Some(p) => p.parse().map_err(|_| format!("bad port '{p}'"))?,
                None if after.is_empty() => 80,
                None => return Err(format!("junk after ']': '{after}'")),
            };
            (format!("[{addr}]"), port)
        } else {
            match authority.rsplit_once(':') {
                Some((h, p)) => {
                    let port: u16 = p.parse().map_err(|_| format!("bad port '{p}'"))?;
                    (h.to_string(), port)
                }
                None => (authority.to_string(), 80),
            }
        };
        if host.is_empty() {
            return Err("empty host".to_string());
        }
        Ok(HttpUrl {
            host,
            port,
            path: path.to_string(),
        })
    }
}

/// Issues a GET for `url`, following one redirect, and returns the
/// response body of a `200` as a reader that ends where the body ends.
pub(crate) fn get(url: &HttpUrl) -> io::Result<Box<dyn BufRead + Send>> {
    let mut url = url.clone();
    let mut redirects_left = 1u8;
    loop {
        let addr = format!("{}:{}", url.host, url.port);
        let mut stream = TcpStream::connect(&addr)
            .map_err(|e| io::Error::new(e.kind(), format!("cannot connect to {addr}: {e}")))?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let req = format!(
            "GET {} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nAccept: text/csv, */*\r\nUser-Agent: spca/0.1\r\n\r\n",
            url.path, url.host
        );
        stream.write_all(req.as_bytes())?;
        let mut reader = BufReader::new(stream);

        // Status line.
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);

        // Headers.
        let mut content_length: Option<u64> = None;
        let mut chunked = false;
        let mut location: Option<String> = None;
        loop {
            let mut h = String::new();
            if reader.read_line(&mut h)? == 0 {
                break;
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            let lower = h.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().ok();
            } else if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                chunked = true;
            } else if let Some(v) = h
                .strip_prefix("Location:")
                .or_else(|| h.strip_prefix("location:"))
            {
                location = Some(v.trim().to_string());
            }
        }

        match status {
            200 if chunked => {
                return Ok(Box::new(BufReader::new(Chunked {
                    inner: reader,
                    left: 0,
                    head: String::new(),
                    done: false,
                })))
            }
            200 => {
                return Ok(match content_length {
                    Some(len) => Box::new(reader.take(len)),
                    None => Box::new(reader),
                })
            }
            301 | 302 | 307 | 308 if redirects_left > 0 => {
                redirects_left -= 1;
                url = location
                    .as_deref()
                    .map(HttpUrl::parse)
                    .and_then(Result::ok)
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "redirect without usable Location",
                        )
                    })?;
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("HTTP status {other} from {addr}{}", url.path),
                ))
            }
        }
    }
}

/// A `Transfer-Encoding: chunked` body decoder: yields the chunk payloads
/// back to back and ends at the zero-size chunk (or a closed connection).
/// The chunk-size line is carried across a read timeout like a data line.
/// Carriage returns are dropped from the payload: in a CSV body they only
/// end lines, and a sender whose chunk sizes count the CR of a CRLF stays
/// readable.
struct Chunked<R> {
    inner: R,
    /// Payload bytes left in the current chunk.
    left: u64,
    /// The chunk-size line read so far.
    head: String,
    done: bool,
}

impl<R: BufRead> Read for Chunked<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            while self.left == 0 && !self.done {
                if self.inner.read_line(&mut self.head)? == 0 || !self.head.ends_with('\n') {
                    self.done = true;
                    break;
                }
                // A blank line is the CRLF that closes the previous chunk.
                let size = self.head.trim();
                if !size.is_empty() {
                    self.left = u64::from_str_radix(size, 16).unwrap_or(0);
                    self.done = self.left == 0;
                }
                self.head.clear();
            }
            if self.done || out.is_empty() {
                return Ok(0);
            }
            let cap = self.left.min(out.len() as u64) as usize;
            let n = self.inner.read(&mut out[..cap])?;
            self.done = n == 0;
            self.left -= n as u64;
            let mut kept = 0;
            for i in 0..n {
                if out[i] != b'\r' {
                    out[kept] = out[i];
                    kept += 1;
                }
            }
            if kept > 0 || self.done {
                return Ok(kept);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::CollectSink;
    use crate::ops::LineSource;
    use std::net::TcpListener;

    /// Minimal one-shot HTTP server for tests.
    fn serve_once(response: String) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                // Drain the request head.
                let mut buf = [0u8; 4096];
                use std::io::Read;
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(response.as_bytes());
            }
        });
        format!("http://{addr}/data.csv")
    }

    fn collect_from(url: &str) -> Vec<crate::tuple::DataTuple> {
        let mut g = GraphBuilder::new();
        let src = g.add_source("http", Box::new(LineSource::get(url).unwrap()));
        let (sink, store) = CollectSink::new();
        let s = g.add_op("collect", Box::new(sink));
        g.connect(src, 0, s, PortKind::Data);
        Engine::run(g);
        let out = store.lock().clone();
        out
    }

    #[test]
    fn url_parsing() {
        let u = HttpUrl::parse("http://example.com/a/b?x=1").unwrap();
        assert_eq!(u.host, "example.com");
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/a/b?x=1");
        let u2 = HttpUrl::parse("http://10.0.0.1:8080").unwrap();
        assert_eq!(u2.port, 8080);
        assert_eq!(u2.path, "/");
        assert!(HttpUrl::parse("https://secure").is_err());
        assert!(HttpUrl::parse("ftp://x").is_err());
        assert!(HttpUrl::parse("http://:80/").is_err());
    }

    #[test]
    fn url_parsing_ipv6() {
        // Regression: `rsplit_once(':')` used to mis-split a bracketed
        // literal with no port (`http://[::1]/x` -> "bad port '1]'").
        let u = HttpUrl::parse("http://[::1]/x").unwrap();
        assert_eq!(u.host, "[::1]");
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/x");

        let u = HttpUrl::parse("http://[::1]:9000/metrics").unwrap();
        assert_eq!(u.host, "[::1]");
        assert_eq!(u.port, 9000);
        assert_eq!(u.path, "/metrics");

        let u = HttpUrl::parse("http://[2001:db8::7]").unwrap();
        assert_eq!(u.host, "[2001:db8::7]");
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/");

        assert!(HttpUrl::parse("http://[::1").is_err());
        assert!(HttpUrl::parse("http://[]/x").is_err());
        assert!(HttpUrl::parse("http://[::1]x/").is_err());
        assert!(HttpUrl::parse("http://[::1]:bad/").is_err());
    }

    #[test]
    fn content_length_body() {
        let body = "1.0,2.0\n3.0,4.0\n";
        let url = serve_once(format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        let got = collect_from(&url);
        assert_eq!(got.len(), 2);
        assert_eq!(*got[1].values, vec![3.0, 4.0]);
    }

    #[test]
    fn chunked_body() {
        // Two chunks splitting a line mid-way.
        let url = serve_once(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
             6\r\n1.0,2.\r\n8\r\n0\n3.0,4\r\n4\r\n.0\n\r\n0\r\n\r\n"
                .to_string(),
        );
        let got = collect_from(&url);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(*got[0].values, vec![1.0, 2.0]);
        assert_eq!(*got[1].values, vec![3.0, 4.0]);
    }

    #[test]
    fn until_close_body() {
        let url = serve_once("HTTP/1.0 200 OK\r\n\r\n5.0,6.0\n# comment\n7.0,nan\n".to_string());
        let got = collect_from(&url);
        assert_eq!(got.len(), 2);
        assert!(got[1].mask.is_some());
    }

    #[test]
    fn error_status_terminates_cleanly() {
        let url = serve_once("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string());
        let got = collect_from(&url);
        assert!(got.is_empty());
    }

    #[test]
    fn unreachable_host_terminates_cleanly() {
        let got = collect_from("http://127.0.0.1:1/x.csv");
        assert!(got.is_empty());
    }
}
