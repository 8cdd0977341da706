//! A minimal HTTP/1.1 layer over `std::net` — exactly the subset the
//! service needs: one request per connection, `Content-Length` bodies,
//! and deterministic response rendering.
//!
//! The build environment has no registry access (the constraint PR 1
//! established for JSON), so there is no hyper/axum here; the parser
//! accepts the request line, a bounded header block, and an optional
//! body, and rejects anything else with a typed [`HttpError`] the server
//! maps to a 4xx response.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on header block size; larger requests are rejected.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on request body size; larger requests are rejected.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, lower-cased headers, UTF-8 body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, upper-cased (`GET`, `POST`, ...).
    pub method: String,
    /// The request path, without query string.
    pub path: String,
    /// The query string after `?`, if any (kept verbatim).
    pub query: Option<String>,
    /// Headers as `(lowercase-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// The first value of `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Whether a query string enables the boolean parameter `name`.
///
/// `?name`, `?name=1`, and `?name=true` all enable it; `?name=0` and
/// `?name=false` (or its absence) do not. Values are matched verbatim —
/// the query grammar the service accepts has no percent-encoding.
#[must_use]
pub fn query_flag(query: Option<&str>, name: &str) -> bool {
    query.is_some_and(|query| {
        query.split('&').any(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, "1"));
            key == name && matches!(value, "1" | "true")
        })
    })
}

/// Why a request could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The socket closed or failed mid-request.
    Io(String),
    /// The request line or header block is malformed or oversized.
    BadRequest(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(msg) => write!(f, "i/o: {msg}"),
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::TooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
        }
    }
}

/// Reads and parses one HTTP/1.1 request from `stream`.
///
/// # Errors
///
/// Returns [`HttpError`] on socket failure, a malformed request line or
/// header, or an oversized header block / body.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    if line.is_empty() {
        return Err(HttpError::Io("connection closed before request".into()));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };

    let mut headers = Vec::new();
    let mut header_bytes = 0;
    loop {
        let mut h = String::new();
        reader
            .read_line(&mut h)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        header_bytes += h.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::BadRequest("header block too large".into()));
        }
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {h:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    let body = String::from_utf8(body)
        .map_err(|_| HttpError::BadRequest("body is not valid UTF-8".into()))?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// The status line's reason phrase.
    #[must_use]
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "",
        }
    }

    /// Serializes the response (status line, headers, blank line, body).
    #[must_use]
    pub fn render(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }

    /// Writes the response to `stream`. Write failures are swallowed —
    /// the client is gone and the server has nothing left to tell it.
    pub fn send(&self, stream: &mut TcpStream) {
        let _ = stream.write_all(&self.render());
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_owned();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn);
        client.join().expect("client");
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            "POST /v1/sim?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sim");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip("GET /v1/health HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            round_trip("NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            round_trip("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            round_trip("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn query_flags_parse() {
        assert!(query_flag(Some("cluster=1"), "cluster"));
        assert!(query_flag(Some("a=2&cluster=true"), "cluster"));
        assert!(query_flag(Some("cluster"), "cluster"));
        assert!(!query_flag(Some("cluster=0"), "cluster"));
        assert!(!query_flag(Some("clusters=1"), "cluster"));
        assert!(!query_flag(None, "cluster"));
    }

    #[test]
    fn response_renders_status_headers_and_body() {
        let bytes = Response::json(429, "{\"error\":\"full\"}".into())
            .with_header("retry-after", "1")
            .render();
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.contains("content-length: 16\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"full\"}"), "{text}");
    }
}
