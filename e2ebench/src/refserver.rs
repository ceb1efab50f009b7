//! The reference server: the serving counterpart of the reference job
//! (`reference.rs`), for the `/predict` latency.
//!
//! A `/predict` round trip on the shared 2-vCPU host is mostly thread
//! hand-offs and a short computation, so its latency follows the host's CPU
//! steal: runs read a p50 of 0.64–0.71 ms at under 2% steal and 0.81–0.91 ms
//! at 13–17%.
//!
//! The reference server has the request path of `gbabs serve` — a
//! connection thread parses the request and queues the row, a batcher
//! thread wakes, lingers 300 µs for company, answers with a nearest-row
//! scan, and hands the answer back — but it is code of this benchmark, so a
//! change to the program never moves it. The serve workloads alternate
//! one-second slices against the program with half-second slices against
//! this server, and report each slice's latency over the next reference
//! slice's, at the reference's nominal latency.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The batcher's linger, as `gbabs serve` has it by default.
const LINGER: Duration = Duration::from_micros(300);
/// Rows and width of the scanned table: about the served model's balls.
const TABLE_ROWS: usize = 11_500;
const TABLE_WIDTH: usize = 16;

type Queue = Arc<(Mutex<VecDeque<(Vec<f64>, Sender<usize>)>>, Condvar)>;

/// A running reference server. Dropping it kills and reaps the process.
pub struct RefServer {
    child: Child,
    pub addr: SocketAddr,
}

impl RefServer {
    /// Starts `e2ebench --reference-server` and reads its address.
    pub fn start() -> Result<RefServer, String> {
        let exe = std::env::current_exe().map_err(|e| format!("reference server: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--reference-server")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("reference server: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line.trim().parse().ok();
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(RefServer { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("reference server printed {line:?}"))
            }
        }
    }
}

impl Drop for RefServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The server itself: prints its address, then serves until killed.
pub fn run() -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("{addr}");
    io::stdout().flush().map_err(|e| e.to_string())?;
    // A fixed table of pseudo-random rows (xorshift).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let table: Arc<Vec<f64>> = Arc::new(
        (0..TABLE_ROWS * TABLE_WIDTH)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect(),
    );
    let queue: Queue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
    let batcher = Arc::clone(&queue);
    std::thread::spawn(move || batch_loop(&batcher, &table));
    for stream in listener.incoming().flatten() {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let _ = connection(stream, &queue);
        });
    }
    Ok(())
}

/// Waits for a queued row, lingers, then answers everything queued.
fn batch_loop(queue: &Queue, table: &[f64]) {
    let (lock, arrived) = &**queue;
    loop {
        let batch: Vec<(Vec<f64>, Sender<usize>)> = {
            let mut q = lock.lock().expect("queue lock");
            while q.is_empty() {
                q = arrived.wait(q).expect("queue wait");
            }
            let (mut q, _) = arrived.wait_timeout(q, LINGER).expect("queue wait");
            q.drain(..).collect()
        };
        for (row, reply) in batch {
            let _ = reply.send(nearest(table, &row));
        }
    }
}

/// The table row nearest to `row` (squared Euclidean over the row's width).
fn nearest(table: &[f64], row: &[f64]) -> usize {
    let width = row.len().clamp(1, TABLE_WIDTH);
    let mut best = (f64::INFINITY, 0);
    for (i, t) in table.chunks_exact(TABLE_WIDTH).enumerate() {
        let d: f64 = t[..width]
            .iter()
            .zip(row)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        if d < best.0 {
            best = (d, i);
        }
    }
    best.1
}

/// Serves one keep-alive connection: `POST` bodies of the form
/// `{"rows":[[x, y, ...]]}`, answered with `{"predictions":[i]}`.
fn connection(stream: TcpStream, queue: &Queue) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let mut length = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        let text = String::from_utf8_lossy(&body);
        let row: Vec<f64> = text
            .split(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
            .filter_map(|f| f.parse().ok())
            .collect();
        let (tx, rx) = channel();
        {
            let (lock, arrived) = &**queue;
            lock.lock().expect("queue lock").push_back((row, tx));
            arrived.notify_one();
        }
        let answer = rx.recv().unwrap_or(0);
        let reply = format!("{{\"predictions\":[{answer}]}}");
        write!(
            writer,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{reply}",
            reply.len()
        )?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_finds_an_exact_row() {
        let table: Vec<f64> = (0..TABLE_WIDTH * 4).map(|v| v as f64).collect();
        let row = &table[2 * TABLE_WIDTH..3 * TABLE_WIDTH];
        assert_eq!(nearest(&table, row), 2);
    }
}
