//! A minimal blocking HTTP/1.1 client for tassd's API — what the
//! integration tests, the load bench, and the CI smoke job submit
//! campaigns with.
//!
//! Keep-alive with transparent reconnect: the client holds one TCP
//! connection and re-dials once when the server has closed it between
//! requests (idle timeout, daemon restart). It retries only when the
//! failed request rode a reused connection, no response byte had
//! arrived, and the read did not time out. So a request on a fresh
//! connection, or one that got part of a response or timed out, is
//! never sent twice. A request on a reused connection that the server
//! closes before answering is sent once more, though the server may
//! have acted on it (a daemon that queued a submit, then closed while
//! draining): such a POST can be replayed once. [`HttpClient::reconnects`]
//! exposes the re-dial count so the load bench can prove it measured
//! the server, not connection setup. One response buffer is reused
//! across requests, so polling in a loop allocates only the returned
//! body. Understands `Content-Length` framing and chunked transfer
//! encoding (the result-streaming endpoint); no redirects.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The `X-Api-Key` header tassd reads the tenant identity from.
pub const API_KEY_HEADER: &str = "X-Api-Key";

/// A blocking keep-alive client bound to one server address.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Reusable response buffer (cleared, not freed, per request).
    buf: Vec<u8>,
    dials: u64,
}

impl HttpClient {
    /// A client for `addr`. Dials lazily on the first request.
    pub fn connect(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            buf: Vec::with_capacity(4096),
            dials: 0,
        }
    }

    /// How many times the client had to re-dial after its first
    /// connection — `0` means every request so far rode one keep-alive
    /// connection.
    pub fn reconnects(&self) -> u64 {
        self.dials.saturating_sub(1)
    }

    /// `GET path`, optionally authenticated. Returns `(status, body)`.
    pub fn get(&mut self, path: &str, api_key: Option<&str>) -> io::Result<(u16, String)> {
        self.request("GET", path, api_key, None)
    }

    /// `POST path` with a JSON body. Returns `(status, body)`.
    pub fn post(
        &mut self,
        path: &str,
        api_key: Option<&str>,
        body: &str,
    ) -> io::Result<(u16, String)> {
        self.request("POST", path, api_key, Some(body))
    }

    /// `GET path` expecting a chunked streaming response: `on_chunk` is
    /// called with each decoded chunk as it arrives, and the full
    /// concatenated body comes back with the status. A non-chunked
    /// response (an error body, say) is returned whole without calling
    /// `on_chunk`. A stream the server aborts (connection closed before
    /// the terminal chunk) is an `UnexpectedEof` error, so truncation
    /// is never mistaken for completion.
    pub fn get_stream(
        &mut self,
        path: &str,
        api_key: Option<&str>,
        mut on_chunk: impl FnMut(&[u8]),
    ) -> io::Result<(u16, Vec<u8>)> {
        let reused = self.stream.is_some();
        match self.stream_once(path, api_key, &mut on_chunk) {
            Err(e) if self.stale(reused, &e) => self.stream_once(path, api_key, &mut on_chunk),
            resp => resp,
        }
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        api_key: Option<&str>,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.request_once(method, path, api_key, body) {
            Err(e) if self.stale(reused, &e) => self.request_once(method, path, api_key, body),
            resp => resp,
        }
    }

    /// Whether a failed request looks like a keep-alive peer that closed
    /// the cached connection, and may be retried once: a reused
    /// connection, no response byte (the buffer is cleared before each
    /// send), and no read timeout (the server may still be running it).
    fn stale(&self, reused: bool, e: &io::Error) -> bool {
        let timed_out = matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        reused && self.buf.is_empty() && !timed_out
    }

    fn connected(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.dials += 1;
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    fn send_request(
        &mut self,
        method: &str,
        path: &str,
        api_key: Option<&str>,
        body: &str,
    ) -> io::Result<()> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: tassd\r\n");
        if let Some(key) = api_key {
            head.push_str(&format!("{API_KEY_HEADER}: {key}\r\n"));
        }
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        ));
        let stream = self.connected()?;
        let sent = (stream.write_all(head.as_bytes()))
            .and_then(|()| stream.write_all(body.as_bytes()))
            .and_then(|()| stream.flush());
        if sent.is_err() {
            self.stream = None;
        }
        sent
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        api_key: Option<&str>,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.buf.clear();
        self.send_request(method, path, api_key, body.unwrap_or(""))?;
        let stream = self.stream.as_mut().expect("sent above");
        let result = (|| {
            let head = read_head(stream, &mut self.buf)?;
            if head.chunked {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected chunked response; use get_stream",
                ));
            }
            let body =
                read_sized_body(stream, &mut self.buf, head.body_start, head.content_length)?;
            String::from_utf8(body.to_vec())
                .map(|b| (head.status, b))
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))
        })();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn stream_once(
        &mut self,
        path: &str,
        api_key: Option<&str>,
        on_chunk: &mut impl FnMut(&[u8]),
    ) -> io::Result<(u16, Vec<u8>)> {
        self.buf.clear();
        self.send_request("GET", path, api_key, "")?;
        let stream = self.stream.as_mut().expect("sent above");
        let head = match read_head(stream, &mut self.buf) {
            Ok(head) => head,
            Err(e) => {
                self.stream = None;
                return Err(e);
            }
        };
        if !head.chunked {
            let body = match read_sized_body(
                stream,
                &mut self.buf,
                head.body_start,
                head.content_length,
            ) {
                Ok(body) => body.to_vec(),
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            };
            return Ok((head.status, body));
        }
        // decode chunks in place: `pos` walks the reused buffer as reads
        // append to it
        let mut body = Vec::with_capacity(4096);
        let mut pos = head.body_start;
        loop {
            let size = match read_chunk_size(stream, &mut self.buf, &mut pos) {
                Ok(size) => size,
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            };
            if size == 0 {
                // terminal chunk: consume the trailing CRLF
                if let Err(e) = read_exact_at(stream, &mut self.buf, pos + 2) {
                    self.stream = None;
                    return Err(e);
                }
                return Ok((head.status, body));
            }
            if let Err(e) = read_exact_at(stream, &mut self.buf, pos + size + 2) {
                self.stream = None;
                return Err(e);
            }
            let data = &self.buf[pos..pos + size];
            on_chunk(data);
            body.extend_from_slice(data);
            pos += size + 2;
        }
    }
}

/// The response head, parsed off the shared buffer.
struct Head {
    status: u16,
    content_length: usize,
    chunked: bool,
    /// Index of the first body byte in the buffer.
    body_start: usize,
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ))
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn read_head(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Head> {
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        read_more(stream, buf)?;
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut chunked = false;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    Ok(Head {
        status,
        content_length,
        chunked,
        body_start: head_end + 4,
    })
}

/// Grow the buffer until it holds at least `until` bytes.
fn read_exact_at(stream: &mut TcpStream, buf: &mut Vec<u8>, until: usize) -> io::Result<()> {
    while buf.len() < until {
        read_more(stream, buf)?;
    }
    Ok(())
}

fn read_sized_body<'b>(
    stream: &mut TcpStream,
    buf: &'b mut Vec<u8>,
    body_start: usize,
    content_length: usize,
) -> io::Result<&'b [u8]> {
    read_exact_at(stream, buf, body_start + content_length)?;
    Ok(&buf[body_start..body_start + content_length])
}

/// Parse the next `<hex-size>\r\n` chunk header at `*pos`, advancing
/// `*pos` past it (chunk extensions after `;` are ignored).
fn read_chunk_size(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    pos: &mut usize,
) -> io::Result<usize> {
    let line_end = loop {
        if let Some(rel) = buf[*pos..].windows(2).position(|w| w == b"\r\n") {
            break *pos + rel;
        }
        read_more(stream, buf)?;
    };
    let line = std::str::from_utf8(&buf[*pos..line_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 chunk header"))?;
    let digits = line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(digits, 16)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
    *pos = line_end + 2;
    Ok(size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::httpd::{HttpServer, HttpdConfig, Response, Router};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn a_post_closed_without_an_answer_is_sent_once() {
        // a peer that reads each request and closes without answering,
        // counting the POSTs it saw
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let peer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut posts = 0;
                while !stop.load(Ordering::Relaxed) {
                    let Ok((mut conn, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    conn.set_nonblocking(false).unwrap();
                    let mut req = Vec::new();
                    let mut chunk = [0u8; 1024];
                    while !req.ends_with(b"{}") {
                        match conn.read(&mut chunk) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => req.extend_from_slice(&chunk[..n]),
                        }
                    }
                    posts += usize::from(req.starts_with(b"POST "));
                }
                posts
            })
        };
        let mut client = HttpClient::connect(addr);
        let err = client.post("/v1/campaigns", Some("t"), "{}").unwrap_err();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(peer.join().unwrap(), 1, "the POST must not be replayed");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(client.reconnects(), 0);
    }

    #[test]
    fn a_stale_keep_alive_connection_is_redialled() {
        let router =
            Router::<()>::new().route("GET", "/ping", |_, _, _| Response::text(200, "pong"));
        let cfg = HttpdConfig {
            event_loops: 1,
            keep_alive: Duration::from_millis(150),
        };
        let server = HttpServer::bind_with("127.0.0.1:0", Arc::new(()), router, cfg).unwrap();
        let mut client = HttpClient::connect(server.addr());
        assert_eq!(client.get("/ping", None).unwrap().0, 200);
        // idle past the keep-alive window: the server reaps the socket
        std::thread::sleep(Duration::from_millis(600));
        let (status, body) = client.get("/ping", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "pong"));
        assert_eq!(client.reconnects(), 1);
        server.shutdown();
    }
}
