//! Hand-rolled, bounded HTTP/1.1 protocol layer.
//!
//! The build container is offline, so the server speaks HTTP through this
//! module instead of a framework. The parser is written to be driven by an
//! untrusted byte stream:
//!
//! * **incremental** — [`parse_request`] is called on a growing buffer and
//!   returns [`Parse::Partial`] until a full request (head + declared body)
//!   is present; the caller never needs to guess how much to read;
//! * **bounded** — [`HttpLimits`] caps the head size, header count, and
//!   body size; exceeding any cap is a terminal [`ParseError`], never
//!   unbounded buffering;
//! * **total** — on arbitrary bytes the parser never panics and never
//!   claims to consume more bytes than it was given (property-tested in
//!   `tests/http_parse_prop.rs`).
//!
//! Only the slice of HTTP/1.1 the system needs is implemented: methods as
//! tokens, `Content-Length` bodies (no chunked transfer — a request with
//! `Transfer-Encoding` is rejected with `501`), CRLF line endings, and
//! `Connection: close`/`keep-alive` semantics.

use std::io::Write as _;

/// Caps the parser enforces on an incoming request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers, including the blank line.
    pub max_head_bytes: usize,
    /// Maximum declared body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits { max_head_bytes: 8 * 1024, max_body_bytes: 1 << 20, max_headers: 64 }
    }
}

/// A fully-parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (before any `?`).
    pub path: String,
    /// Raw query string (after `?`, without it), empty if none.
    pub query: String,
    /// Header fields in order of appearance, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Message body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// `true` unless the client asked for `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// First value of a `k=v` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k == key).then_some(v)
        })
    }
}

/// Terminal parse failure; maps to the response status the server sends
/// before closing the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header framing, or `Content-Length`.
    BadRequest(&'static str),
    /// Request line + headers exceed [`HttpLimits::max_head_bytes`].
    HeadTooLarge,
    /// Declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// Not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion,
    /// `Transfer-Encoding` present (chunked bodies are not implemented).
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// The HTTP status code this failure is reported as.
    pub fn status(self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::UnsupportedVersion => 505,
            ParseError::UnsupportedTransferEncoding => 501,
        }
    }

    /// Human-readable reason for the error body.
    pub fn describe(self) -> &'static str {
        match self {
            ParseError::BadRequest(msg) => msg,
            ParseError::HeadTooLarge => "request head exceeds the configured limit",
            ParseError::BodyTooLarge => "request body exceeds the configured limit",
            ParseError::UnsupportedVersion => "only HTTP/1.0 and HTTP/1.1 are supported",
            ParseError::UnsupportedTransferEncoding => {
                "transfer-encoding is not supported; use content-length"
            }
        }
    }
}

/// Outcome of one [`parse_request`] call over the buffered bytes so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// Not enough bytes yet (and no limit exceeded): read more.
    Partial,
    /// One full request, occupying the first `consumed` buffer bytes
    /// (anything after it is the start of a pipelined next request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed.
        consumed: usize,
    },
    /// The stream is not a request this parser accepts; the connection
    /// must be answered with [`ParseError::status`] and closed.
    Error(ParseError),
}

/// `true` for the token characters RFC 7230 allows in a method name.
fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z'
        | b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~')
}

/// Find `\r\n\r\n` in `buf`, returning the index *after* it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parse one request from the front of `buf`. See [`Parse`].
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> Parse {
    let head_end = match find_head_end(buf) {
        Some(end) if end > limits.max_head_bytes => return Parse::Error(ParseError::HeadTooLarge),
        Some(end) => end,
        None => {
            // No blank line yet: once the unterminated head outgrows the
            // cap it never can become valid — fail now, don't buffer on.
            if buf.len() > limits.max_head_bytes {
                return Parse::Error(ParseError::HeadTooLarge);
            }
            return Parse::Partial;
        }
    };
    let head = &buf[..head_end - 4];
    let head = match std::str::from_utf8(head) {
        Ok(s) => s,
        Err(_) => return Parse::Error(ParseError::BadRequest("request head is not UTF-8")),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    // Bare LF inside what looked like a line means the client mixed line
    // endings; reject rather than guess.
    if request_line.contains('\n') {
        return Parse::Error(ParseError::BadRequest("bare LF in request line"));
    }

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Parse::Error(ParseError::BadRequest("malformed request line")),
    };
    if !method.bytes().all(is_token_byte) {
        return Parse::Error(ParseError::BadRequest("method is not a token"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Parse::Error(ParseError::UnsupportedVersion);
    }
    if target.bytes().any(|b| b <= b' ' || b == 0x7f) {
        return Parse::Error(ParseError::BadRequest("control bytes in request target"));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<u64> = None;
    for line in lines {
        if line.contains('\n') {
            return Parse::Error(ParseError::BadRequest("bare LF in header field"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Error(ParseError::BadRequest("header field without a colon"));
        };
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            // Covers the smuggling-relevant "space before colon" shape too.
            return Parse::Error(ParseError::BadRequest("malformed header name"));
        }
        if headers.len() == limits.max_headers {
            return Parse::Error(ParseError::BadRequest("too many header fields"));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim_matches([' ', '\t']).to_string();
        if name == "content-length" {
            let Ok(n) = value.parse::<u64>() else {
                return Parse::Error(ParseError::BadRequest("content-length is not a number"));
            };
            // A repeated Content-Length must agree with itself, else the
            // request is ambiguous (classic smuggling vector).
            if content_length.is_some_and(|prev| prev != n) {
                return Parse::Error(ParseError::BadRequest("conflicting content-length values"));
            }
            content_length = Some(n);
        }
        if name == "transfer-encoding" {
            return Parse::Error(ParseError::UnsupportedTransferEncoding);
        }
        headers.push((name, value));
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > limits.max_body_bytes as u64 {
        return Parse::Error(ParseError::BodyTooLarge);
    }
    let total = head_end + body_len as usize;
    if buf.len() < total {
        return Parse::Partial;
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Parse::Complete {
        request: Request {
            method: method.to_string(),
            path,
            query,
            headers,
            body: buf[head_end..total].to_vec(),
        },
        consumed: total,
    }
}

// ---- responses -------------------------------------------------------------

/// An outgoing response; [`Response::encode`] frames it with
/// `Content-Length` and `Connection`.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length`/`Connection` are added by `encode`).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

/// Reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

impl Response {
    /// Plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// JSON response from pre-serialized text.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize status line, headers, framing headers, and body.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.encode_into(&mut out, keep_alive);
        out
    }

    /// [`Response::encode`], appended to `out` — a buffer the caller reuses
    /// across responses. Nothing is formatted into a temporary: names,
    /// values and the body are copied in place.
    pub fn encode_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        push_status_line(out, self.status);
        for (k, v) in &self.headers {
            push_header(out, k, v.as_bytes());
        }
        let mut framing = [0u8; FRAMING_MAX];
        out.extend_from_slice(framing_lines(self.body.len(), keep_alive, &mut framing));
        out.extend_from_slice(&self.body);
    }
}

/// `HTTP/1.1 <status> <reason>\r\n`.
fn push_status_line(out: &mut Vec<u8>, status: u16) {
    let _ = write!(out, "HTTP/1.1 {status} {}\r\n", reason_phrase(status));
}

/// `<name>: <value>\r\n`.
pub(crate) fn push_header(out: &mut Vec<u8>, name: &str, value: &[u8]) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

/// The widest [`framing_lines`] output.
const FRAMING_MAX: usize =
    "content-length: 18446744073709551615\r\nconnection: keep-alive\r\n\r\n".len();

/// The lines that close every head — `content-length`, `connection` and
/// the blank line — rendered into `buf`.
fn framing_lines(body_len: usize, keep_alive: bool, buf: &mut [u8; FRAMING_MAX]) -> &[u8] {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut rest = &mut buf[..];
    let _ = write!(rest, "content-length: {body_len}\r\nconnection: {connection}\r\n\r\n");
    let written = FRAMING_MAX - rest.len();
    &buf[..written]
}

/// A response written straight into a reused buffer, for a body whose
/// length is only known once it has been written.
///
/// [`InPlace::begin`] writes the status line and headers and leaves a gap
/// as wide as the widest framing lines; the caller appends the body; then
/// [`InPlace::finish`] writes the framing lines into the end of the gap,
/// right against the body, and slides the (short) head up to meet them.
/// The response is the one contiguous slice `out[start..]` — one
/// `write_all` — and the body is never copied.
#[derive(Debug)]
#[must_use = "an unfinished response has no framing"]
pub struct InPlace {
    head_len: usize,
    body_start: usize,
}

impl InPlace {
    /// Clear `out` and start a `status` response with `headers`; append
    /// the body to `out` next.
    pub fn begin(out: &mut Vec<u8>, status: u16, headers: &[(&str, &[u8])]) -> InPlace {
        out.clear();
        push_status_line(out, status);
        for (name, value) in headers {
            push_header(out, name, value);
        }
        let head_len = out.len();
        out.resize(head_len + FRAMING_MAX, 0);
        InPlace { head_len, body_start: out.len() }
    }

    /// Frame everything appended to `out` since [`InPlace::begin`] as the
    /// body; returns the offset the response starts at.
    pub fn finish(self, out: &mut [u8], keep_alive: bool) -> usize {
        let mut buf = [0u8; FRAMING_MAX];
        let framing = framing_lines(out.len() - self.body_start, keep_alive, &mut buf);
        let framing_start = self.body_start - framing.len();
        out[framing_start..self.body_start].copy_from_slice(framing);
        let start = framing_start - self.head_len;
        out.copy_within(..self.head_len, start);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Parse {
        parse_request(bytes, &HttpLimits::default())
    }

    #[test]
    fn simple_get_roundtrip() {
        let raw = b"GET /stats?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse(raw) {
            Parse::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.method, "GET");
                assert_eq!(request.path, "/stats");
                assert_eq!(request.query, "pretty=1");
                assert_eq!(request.query_param("pretty"), Some("1"));
                assert_eq!(request.header("host"), Some("x"));
                assert!(request.keep_alive());
                assert!(request.body.is_empty());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn post_with_body_and_pipelined_tail() {
        let raw = b"POST /query HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET /";
        match parse(raw) {
            Parse::Complete { request, consumed } => {
                assert_eq!(request.body, b"abcd");
                assert_eq!(consumed, raw.len() - "GET /".len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn partial_until_body_arrives() {
        let head = b"POST /query HTTP/1.1\r\ncontent-length: 4\r\n\r\n";
        assert_eq!(parse(&head[..head.len() - 1]), Parse::Partial);
        assert_eq!(parse(head), Parse::Partial);
        assert_eq!(parse(b"POST /query HTTP/1.1\r\ncontent-length: 4\r\n\r\nab"), Parse::Partial);
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let Parse::Complete { request, .. } = parse(raw) else { panic!("complete") };
        assert!(!request.keep_alive());
    }

    #[test]
    fn rejects_malformed_shapes() {
        for (raw, status) in [
            (&b"FOO BAR\r\n\r\n"[..], 400),                          // no version
            (b"GET / HTTP/2.0\r\n\r\n", 505),                        // version
            (b"GET / HTTP/1.1\r\nbad header\r\n\r\n", 400),          // no colon
            (b"GET / HTTP/1.1\r\nname : v\r\n\r\n", 400),            // space in name
            (b"GET / HTTP/1.1\r\ncontent-length: xyz\r\n\r\n", 400), // bad CL
            (b"GET / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501),
            (b"G\x00T / HTTP/1.1\r\n\r\n", 400), // NUL in method
        ] {
            match parse(raw) {
                Parse::Error(e) => assert_eq!(e.status(), status, "{raw:?}"),
                other => panic!("expected error for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn equal_duplicate_content_length_is_tolerated() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nhi";
        assert!(matches!(parse(raw), Parse::Complete { .. }));
    }

    #[test]
    fn head_limit_fires_with_and_without_blank_line() {
        let limits = HttpLimits { max_head_bytes: 64, ..HttpLimits::default() };
        // Unterminated oversized head.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 80));
        assert_eq!(parse_request(&raw, &limits), Parse::Error(ParseError::HeadTooLarge));
        // Terminated but oversized head.
        let raw = b"GET / HTTP/1.1\r\nx-pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n";
        assert_eq!(parse_request(raw, &limits), Parse::Error(ParseError::HeadTooLarge));
    }

    #[test]
    fn body_limit_fires_before_buffering_the_body() {
        let limits = HttpLimits { max_body_bytes: 8, ..HttpLimits::default() };
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n";
        assert_eq!(parse_request(raw, &limits), Parse::Error(ParseError::BodyTooLarge));
    }

    #[test]
    fn header_count_limit() {
        let limits = HttpLimits { max_headers: 2, ..HttpLimits::default() };
        let raw = b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert!(matches!(parse_request(raw, &limits), Parse::Error(ParseError::BadRequest(_))));
    }

    #[test]
    fn huge_declared_length_does_not_overflow() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 18446744073709551615\r\n\r\n";
        assert_eq!(parse(raw), Parse::Error(ParseError::BodyTooLarge));
    }

    #[test]
    fn in_place_response_equals_encoded_response() {
        let mut out = b"stale bytes from the previous response".to_vec();
        for (body, keep) in [(&b""[..], true), (&b"{\"answer\":[1,2]}"[..], false)] {
            let resp = Response::json(200, String::from_utf8(body.to_vec()).unwrap())
                .with_header("x-request-id", "r-1");
            let pending = InPlace::begin(
                &mut out,
                200,
                &[("content-type", b"application/json"), ("x-request-id", b"r-1")],
            );
            out.extend_from_slice(body);
            let start = pending.finish(&mut out, keep);
            assert_eq!(&out[start..], &resp.encode(keep)[..]);
        }
    }

    #[test]
    fn response_encoding_frames_correctly() {
        let resp = Response::text(503, "shed").with_header("retry-after", "1");
        let bytes = resp.encode(false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nshed"));
    }
}
