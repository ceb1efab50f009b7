//! A minimal HTTP/1.1 keep-alive client: enough for the JSON endpoints of
//! `gbabs serve`, and independent of the program's own client so that a
//! change there cannot move the load generator.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
}

/// A response: status and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    /// The body parsed as JSON (`Null` when it is not JSON).
    pub fn json(&self) -> serde::Value {
        std::str::from_utf8(&self.body)
            .ok()
            .and_then(|t| serde_json::from_str(t).ok())
            .unwrap_or(serde::Value::Null)
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            request: Vec::with_capacity(1024),
        })
    }

    /// Sends one request (head and body in a single write) and reads the
    /// whole response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.writer.write_all(&self.request)?;

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::other("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}
