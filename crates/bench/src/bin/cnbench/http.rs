//! The load generator's HTTP/1.1 client: one keep-alive connection, one
//! request outstanding, its own response reader (the portal's decoder is
//! part of what is measured, so it does not check itself here).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Every request must be answered in full within this long; a slower one
/// counts as a failure and the connection is replaced.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Parse one response from the front of `buf`: `Ok(None)` while bytes are
/// still owed, else the response and how many bytes it took.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_len) = find(buf, b"\r\n\r\n").map(|p| p + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    let mut chunked = false;
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or_else(|| format!("bad header {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| format!("bad content-length {value:?}"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let rest = &buf[head_len..];
    if !chunked {
        return Ok((rest.len() >= content_length).then(|| {
            let body = rest[..content_length].to_vec();
            (Response { status, body }, head_len + content_length)
        }));
    }
    let mut body = Vec::new();
    let mut at = 0;
    loop {
        let Some(line_len) = find(&rest[at..], b"\r\n") else { return Ok(None) };
        let line = std::str::from_utf8(&rest[at..at + line_len]).map_err(|_| "bad chunk size")?;
        let hex = line.split(';').next().unwrap_or_default().trim();
        let size =
            usize::from_str_radix(hex, 16).map_err(|_| format!("bad chunk size {line:?}"))?;
        at += line_len + 2;
        if size == 0 {
            // Trailer lines, then the empty line that ends the message.
            loop {
                let Some(n) = find(&rest[at..], b"\r\n") else { return Ok(None) };
                at += n + 2;
                if n == 0 {
                    return Ok(Some((Response { status, body }, head_len + at)));
                }
            }
        }
        if rest.len() < at + size + 2 {
            return Ok(None);
        }
        if &rest[at + size..at + size + 2] != b"\r\n" {
            return Err("chunk data not followed by CRLF".to_string());
        }
        body.extend_from_slice(&rest[at..at + size]);
        at += size + 2;
    }
}

/// One keep-alive connection to the portal.
pub struct Client {
    port: u16,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(port: u16) -> Client {
        Client { port, stream: None, buf: Vec::new() }
    }

    /// Send one request and read its whole response. Any error (refused
    /// connection, timeout, malformed reply, early close) drops the
    /// connection so the next request starts on a fresh one.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
        let out = self.exchange(method, target, body);
        if out.is_err() {
            self.stream = None;
            self.buf.clear();
        }
        out
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        if self.stream.is_none() {
            let stream = TcpStream::connect(("127.0.0.1", self.port))
                .map_err(|e| format!("connect 127.0.0.1:{}: {e}", self.port))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_write_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nhost: cnbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        stream.write_all(&message).map_err(|e| format!("write {method} {target}: {e}"))?;

        let mut chunk = [0u8; 32 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                if !self.buf.is_empty() {
                    return Err(format!("{} stray byte(s) after the response", self.buf.len()));
                }
                return Ok(response);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("{method} {target}: no full response in {REQUEST_TIMEOUT:?}"));
            }
            stream.set_read_timeout(Some(left)).map_err(|e| e.to_string())?;
            match stream.read(&mut chunk) {
                Ok(0) => return Err(format!("{method} {target}: connection closed mid-response")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("{method} {target}: read: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZED: &[u8] = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
        Connection: keep-alive\r\nlocation: /jobs/j-7\r\nContent-Length: 30\r\n\r\n\
        {\"id\":\"j-7\",\"state\":\"queued\"}\n";

    const CHUNKED: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
        Transfer-Encoding: chunked\r\n\r\n\
        5\r\nhello\r\n1;ext=1\r\n \r\nB\r\nworld\r\n0\r\n!\r\n0\r\nx-trailer: 1\r\n\r\n";

    /// Every proper prefix must ask for more bytes; the whole message must
    /// parse to `want` and consume exactly its own length, also when the
    /// next response's first bytes already follow it.
    fn check_all_splits(message: &[u8], want: &Response) {
        for cut in 0..message.len() {
            assert_eq!(parse_response(&message[..cut]), Ok(None), "prefix of {cut} bytes");
        }
        assert_eq!(parse_response(message), Ok(Some((want.clone(), message.len()))));
        let mut two = message.to_vec();
        two.extend_from_slice(b"HTTP/1.1 2");
        assert_eq!(parse_response(&two), Ok(Some((want.clone(), message.len()))));
    }

    #[test]
    fn content_length_body_under_every_split() {
        let body = b"{\"id\":\"j-7\",\"state\":\"queued\"}\n".to_vec();
        check_all_splits(SIZED, &Response { status: 202, body });
    }

    #[test]
    fn chunked_body_under_every_split() {
        check_all_splits(
            CHUNKED,
            &Response { status: 200, body: b"hello world\r\n0\r\n!".to_vec() },
        );
    }

    #[test]
    fn empty_bodies_parse() {
        let sized = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        check_all_splits(sized, &Response { status: 404, body: Vec::new() });
        let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: CHUNKED\r\n\r\n0\r\n\r\n";
        check_all_splits(chunked, &Response { status: 200, body: Vec::new() });
    }

    #[test]
    fn malformed_replies_are_errors_not_hangs() {
        assert!(parse_response(b"SPDY/9 200\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nnocolon\r\n\r\n").is_err());
        let bad_size = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(parse_response(bad_size).is_err());
        let bad_end = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nabc\r\n";
        assert!(parse_response(bad_end).is_err());
    }

    #[test]
    fn client_reads_segmented_replies_and_reconnects_after_an_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            // First connection: a reply dribbled out byte by byte, then a
            // reply cut short by closing.
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = s.read(&mut sink).unwrap();
            for b in CHUNKED {
                s.write_all(&[*b]).unwrap();
            }
            let _ = s.read(&mut sink).unwrap();
            s.write_all(&SIZED[..SIZED.len() - 3]).unwrap();
            drop(s);
            // Second connection: a clean reply.
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut sink).unwrap();
            s.write_all(SIZED).unwrap();
        });
        let mut client = Client::new(port);
        assert_eq!(client.request("GET", "/a", b"").unwrap().body, b"hello world\r\n0\r\n!");
        assert!(client.request("GET", "/b", b"").unwrap_err().contains("closed mid-response"));
        assert_eq!(client.request("POST", "/c", b"x").unwrap().status, 202);
        server.join().unwrap();
    }
}
