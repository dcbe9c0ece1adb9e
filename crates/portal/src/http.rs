//! Hand-rolled HTTP/1.1: an incremental request parser plus response and
//! chunked-transfer encoders.
//!
//! The build environment is offline, so there is no hyper to lean on; the
//! parser follows [`cn_wire::FrameDecoder`]'s design instead — feed raw
//! segments exactly as the socket delivers them, pull complete requests
//! out, keep the partial tail buffered. Any segmentation of the same byte
//! stream yields the same request sequence (a property test pins this),
//! and malformed input NEVER panics: every failure is a typed
//! [`HttpError`] carrying the status code the connection should answer
//! with before closing.

use std::fmt;

/// Upper bound on a request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on a request body (configurable per server).
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parse failure, carrying the HTTP status the server should answer
/// with. The parser is dead afterwards: HTTP/1.1 framing is lost once a
/// request is malformed, so the connection must close after the error
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    pub status: u16,
    pub detail: String,
}

impl HttpError {
    pub fn new(status: u16, detail: impl Into<String>) -> HttpError {
        HttpError { status, detail: detail.into() }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, status_text(self.status), self.detail)
    }
}

impl std::error::Error for HttpError {}

/// One complete request. Header names are lowercased at parse time;
/// values keep their bytes with surrounding whitespace trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub target: String,
    /// `false` for HTTP/1.0, `true` for HTTP/1.1.
    pub http11: bool,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Resolved keep-alive: 1.1 default on, 1.0 default off, `Connection`
    /// header wins either way.
    pub keep_alive: bool,
}

impl Request {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Body framing of the request being assembled.
enum BodyState {
    /// `Content-Length: n`, `n` bytes still owed.
    Sized(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked(ChunkedDecoder),
}

/// Head parsed, body incomplete.
struct PartialRequest {
    method: String,
    target: String,
    http11: bool,
    headers: Vec<(String, String)>,
    keep_alive: bool,
    body: BodyState,
    collected: Vec<u8>,
}

enum State {
    /// Scanning for the head terminator.
    Head,
    /// Collecting the body.
    Body(PartialRequest),
}

/// The incremental request parser: [`feed`](RequestParser::feed) raw
/// bytes, [`next_request`](RequestParser::next_request) complete requests.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    start: usize,
    /// CRLFCRLF scan resume point (never rescan settled head bytes).
    scan_from: usize,
    state: State,
    max_head: usize,
    max_body: usize,
    dead: bool,
}

impl RequestParser {
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser::with_limits(MAX_HEAD_BYTES, max_body)
    }

    pub fn with_limits(max_head: usize, max_body: usize) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            scan_from: 0,
            state: State::Head,
            max_head,
            max_body,
            dead: false,
        }
    }

    /// Append one received segment, exactly as the socket delivered it.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.scan_from = self.scan_from.saturating_sub(self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when a request is mid-parse (head or body incomplete) — the
    /// cue to arm a read-deadline timer, mirroring the frame decoder.
    pub fn has_partial(&self) -> bool {
        matches!(self.state, State::Body(_)) || self.pending_bytes() > 0
    }

    /// Pull the next complete request, if the buffered bytes hold one.
    /// `Ok(None)` means "need more bytes". Errors are sticky.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if self.dead {
            return Err(HttpError::new(400, "parser already failed"));
        }
        match self.advance() {
            Ok(req) => Ok(req),
            Err(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        if matches!(self.state, State::Head) {
            let haystack_len = self.buf.len() - self.start;
            let from = self.scan_from.saturating_sub(self.start).saturating_sub(3);
            let Some(end) = find_head_end(&self.buf[self.start..], from) else {
                if haystack_len > self.max_head {
                    return Err(HttpError::new(431, "request head too large"));
                }
                self.scan_from = self.buf.len();
                return Ok(None);
            };
            if end > self.max_head {
                return Err(HttpError::new(431, "request head too large"));
            }
            let partial = parse_head(&self.buf[self.start..self.start + end], self.max_body)?;
            self.start += end + 4;
            self.scan_from = self.start;
            if matches!(partial.body, BodyState::Sized(0)) {
                return Ok(Some(finish(partial)));
            }
            self.state = State::Body(partial);
        }
        if !self.fill_body()? {
            return Ok(None);
        }
        let State::Body(partial) = std::mem::replace(&mut self.state, State::Head) else {
            unreachable!("fill_body returned true outside Body state")
        };
        self.scan_from = self.start;
        Ok(Some(finish(partial)))
    }

    /// Move available buffered bytes into the in-flight body; true once
    /// the body is complete.
    fn fill_body(&mut self) -> Result<bool, HttpError> {
        let State::Body(partial) = &mut self.state else {
            return Ok(false);
        };
        match &mut partial.body {
            BodyState::Sized(owed) => {
                let take = (*owed).min(self.buf.len() - self.start);
                partial.collected.extend_from_slice(&self.buf[self.start..self.start + take]);
                *owed -= take;
                self.start += take;
                Ok(*owed == 0)
            }
            BodyState::Chunked(dec) => {
                let used = dec.advance(&self.buf[self.start..], &mut partial.collected)?;
                self.start += used;
                if partial.collected.len() > self.max_body {
                    return Err(HttpError::new(413, "request body too large"));
                }
                Ok(dec.is_done())
            }
        }
    }
}

fn finish(p: PartialRequest) -> Request {
    Request {
        method: p.method,
        target: p.target,
        http11: p.http11,
        headers: p.headers,
        body: p.collected,
        keep_alive: p.keep_alive,
    }
}

/// Find the `\r\n\r\n` head terminator at or after `from`; returns the
/// head length (terminator excluded).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    (from..=buf.len() - 4).find(|&i| &buf[i..i + 4] == b"\r\n\r\n")
}

fn is_token(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

fn parse_head(head: &[u8], max_body: usize) -> Result<PartialRequest, HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.contains(['\n', '\0']) {
        return Err(HttpError::new(400, "bare LF or NUL in request line"));
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, format!("malformed request line {request_line:?}"))),
    };
    if !is_token(method) {
        return Err(HttpError::new(400, format!("malformed method {method:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::new(505, format!("unsupported version {version:?}"))),
    };

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut connection: Option<String> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header line {line:?}")));
        };
        if !is_token(name) {
            return Err(HttpError::new(400, format!("malformed header name {name:?}")));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::new(400, format!("bad content-length {value:?}")))?;
                if let Some(prev) = content_length {
                    if prev != n {
                        return Err(HttpError::new(400, "conflicting content-length headers"));
                    }
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                if !value.eq_ignore_ascii_case("chunked") {
                    return Err(HttpError::new(
                        501,
                        format!("unsupported transfer-encoding {value:?}"),
                    ));
                }
                chunked = true;
            }
            "connection" => connection = Some(value.to_ascii_lowercase()),
            _ => {}
        }
        headers.push((name, value));
    }

    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };
    let body = if chunked {
        if content_length.is_some() {
            return Err(HttpError::new(400, "both content-length and chunked framing"));
        }
        BodyState::Chunked(ChunkedDecoder::new())
    } else {
        let n = content_length.unwrap_or(0);
        if n > max_body {
            return Err(HttpError::new(413, format!("body of {n} bytes exceeds the limit")));
        }
        BodyState::Sized(n)
    };
    Ok(PartialRequest {
        method: method.to_string(),
        target: target.to_string(),
        http11,
        headers,
        keep_alive,
        body,
        collected: Vec::new(),
    })
}

/// Incremental decoder for `Transfer-Encoding: chunked` payloads.
///
/// Like the request parser it tolerates arbitrary segmentation: call
/// [`advance`](ChunkedDecoder::advance) with whatever bytes are on hand;
/// it consumes what it can and reports how much it took.
pub struct ChunkedDecoder {
    state: ChunkState,
    /// Partial size/trailer line carried across segment boundaries.
    line: Vec<u8>,
}

enum ChunkState {
    SizeLine,
    Data(usize),
    DataCrlf(u8),
    Trailer,
    Done,
}

/// Longest accepted chunk-size (or trailer) line.
const MAX_CHUNK_LINE: usize = 256;

impl Default for ChunkedDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkedDecoder {
    pub fn new() -> ChunkedDecoder {
        ChunkedDecoder { state: ChunkState::SizeLine, line: Vec::new() }
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, ChunkState::Done)
    }

    /// Consume as much of `input` as the current state allows, appending
    /// decoded payload bytes to `out`. Returns the number of input bytes
    /// consumed; when it is less than `input.len()` the decoder is done.
    pub fn advance(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, HttpError> {
        let mut pos = 0;
        loop {
            match &mut self.state {
                ChunkState::SizeLine | ChunkState::Trailer => {
                    let Some(nl) = input[pos..].iter().position(|&b| b == b'\n') else {
                        self.line.extend_from_slice(&input[pos..]);
                        if self.line.len() > MAX_CHUNK_LINE {
                            return Err(HttpError::new(400, "chunk line too long"));
                        }
                        return Ok(input.len());
                    };
                    self.line.extend_from_slice(&input[pos..pos + nl]);
                    pos += nl + 1;
                    if self.line.len() > MAX_CHUNK_LINE {
                        return Err(HttpError::new(400, "chunk line too long"));
                    }
                    if self.line.last() == Some(&b'\r') {
                        self.line.pop();
                    }
                    let line = std::mem::take(&mut self.line);
                    if matches!(self.state, ChunkState::Trailer) {
                        if line.is_empty() {
                            self.state = ChunkState::Done;
                            return Ok(pos);
                        }
                        continue; // ignore trailer fields
                    }
                    let text = std::str::from_utf8(&line)
                        .map_err(|_| HttpError::new(400, "chunk size is not UTF-8"))?;
                    let size_str = text.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_str, 16)
                        .map_err(|_| HttpError::new(400, format!("bad chunk size {text:?}")))?;
                    self.state =
                        if size == 0 { ChunkState::Trailer } else { ChunkState::Data(size) };
                }
                ChunkState::Data(remaining) => {
                    let take = (*remaining).min(input.len() - pos);
                    out.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    *remaining -= take;
                    if *remaining > 0 {
                        return Ok(pos);
                    }
                    self.state = ChunkState::DataCrlf(2);
                }
                ChunkState::DataCrlf(left) => {
                    while *left > 0 && pos < input.len() {
                        let b = input[pos];
                        let expect = if *left == 2 { b'\r' } else { b'\n' };
                        if b != expect {
                            return Err(HttpError::new(400, "missing CRLF after chunk data"));
                        }
                        pos += 1;
                        *left -= 1;
                    }
                    if *left > 0 {
                        return Ok(pos);
                    }
                    self.state = ChunkState::SizeLine;
                }
                ChunkState::Done => return Ok(pos),
            }
        }
    }
}

/// Reason phrase for the handful of statuses the portal emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A buffered (non-streaming) response.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub extra_headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Serialize with `Content-Length` framing onto the connection's
    /// output buffer.
    pub fn write_to(&self, out: &mut Vec<u8>, keep_alive: bool) {
        write_head(out, self.status, self.content_type, keep_alive, &self.extra_headers, false);
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
    }
}

fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    keep_alive: bool,
    extra: &[(String, String)],
    chunked: bool,
) {
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", status, status_text(status)).as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n".as_slice()
    } else {
        b"Connection: close\r\n"
    });
    for (k, v) in extra {
        out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
    }
    if chunked {
        out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
    }
}

/// Start a chunked streaming response (head only; follow with
/// [`write_chunk`] calls and one [`finish_chunked`]).
pub fn begin_chunked(out: &mut Vec<u8>, status: u16, content_type: &'static str, keep_alive: bool) {
    write_head(out, status, content_type, keep_alive, &[], true);
}

/// Emit one data chunk (empty input is skipped — an empty chunk would
/// terminate the stream).
pub fn write_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Terminate a chunked stream.
pub fn finish_chunked(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(parser: &mut RequestParser) -> Vec<Request> {
        let mut got = Vec::new();
        while let Some(req) = parser.next_request().expect("parse") {
            got.push(req);
        }
        got
    }

    #[test]
    fn one_shot_post_with_body() {
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        p.feed(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
        let reqs = parse_all(&mut p);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "POST");
        assert_eq!(reqs[0].target, "/jobs");
        assert_eq!(reqs[0].body, b"hello");
        assert!(reqs[0].keep_alive);
        assert!(!p.has_partial());
    }

    #[test]
    fn byte_at_a_time_pipelined_pair() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        let mut got = Vec::new();
        for b in wire.iter() {
            p.feed(std::slice::from_ref(b));
            got.extend(parse_all(&mut p));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].target, "/a");
        assert_eq!(got[1].body, b"xyz");
    }

    #[test]
    fn chunked_request_body_reassembles() {
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        p.feed(b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        p.feed(b"4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n");
        let reqs = parse_all(&mut p);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, b"wikipedia");
    }

    #[test]
    fn http10_defaults_to_close() {
        let mut p = RequestParser::new(1024);
        p.feed(b"GET / HTTP/1.0\r\n\r\n");
        let reqs = parse_all(&mut p);
        assert!(!reqs[0].keep_alive);
        assert!(!reqs[0].http11);
    }

    #[test]
    fn connection_close_wins() {
        let mut p = RequestParser::new(1024);
        p.feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!parse_all(&mut p)[0].keep_alive);
    }

    #[test]
    fn malformed_request_line_is_400_and_sticky() {
        let mut p = RequestParser::new(1024);
        p.feed(b"NOT A REQUEST LINE AT ALL\r\n\r\n");
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(p.next_request().unwrap_err().status, 400);
    }

    #[test]
    fn bad_version_is_505() {
        let mut p = RequestParser::new(1024);
        p.feed(b"GET / HTTP/2.0\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err().status, 505);
    }

    #[test]
    fn oversized_body_is_413() {
        let mut p = RequestParser::new(8);
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
        assert_eq!(p.next_request().unwrap_err().status, 413);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut p = RequestParser::with_limits(64, 1024);
        p.feed(b"GET / HTTP/1.1\r\n");
        p.feed(&[b'a'; 128]);
        assert_eq!(p.next_request().unwrap_err().status, 431);
    }

    #[test]
    fn chunked_round_trip_via_encoder() {
        let mut wire = Vec::new();
        begin_chunked(&mut wire, 200, "text/plain", true);
        write_chunk(&mut wire, b"hello ");
        write_chunk(&mut wire, b"");
        write_chunk(&mut wire, b"world");
        finish_chunked(&mut wire);
        let body_at = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let mut dec = ChunkedDecoder::new();
        let mut out = Vec::new();
        let used = dec.advance(&wire[body_at..], &mut out).expect("decode");
        assert!(dec.is_done());
        assert_eq!(used, wire.len() - body_at);
        assert_eq!(out, b"hello world");
    }

    #[test]
    fn response_serialization_has_length_framing() {
        let mut out = Vec::new();
        Response::json(202, "{\"id\":\"j-1\"}").write_to(&mut out, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.ends_with("{\"id\":\"j-1\"}"), "{text}");
    }
}
