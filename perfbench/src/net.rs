//! The system under test as child processes, and the clients that talk
//! to it: `streamfreq` nodes and front nodes run as separate processes
//! (so node memory is measurable and the generator stays apart from
//! them); requests go over the SFBP binary protocol or the text
//! protocol, exactly as `cluster-ingest` and `query-remote` speak them.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// SFBP request opcodes (see `crates/cli/src/serve.rs`).
pub mod op {
    pub const EST: u8 = 0x01;
    pub const TOPK: u8 = 0x02;
    pub const HH: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const CKPT: u8 = 0x05;
    pub const SNAP: u8 = 0x07;
    pub const REPL: u8 = 0x08;
    pub const INGEST: u8 = 0x0A;
}

pub type Res<T> = Result<T, String>;

/// How long any single exchange may take before it counts as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A `streamfreq` child process. Dropping it kills it and waits.
pub struct Proc {
    child: Option<Child>,
    pub addr: String,
    label: String,
}

impl Proc {
    /// Starts `streamfreq <args> --port-file <dir>/<label>.port` and
    /// waits until it is ready (see [`Proc::wait_ready`]).
    pub fn start(bin: &Path, args: &[String], dir: &Path, label: &str) -> Res<Proc> {
        let mut proc = Proc::spawn(bin, args, dir, label)?;
        proc.wait_ready(dir)?;
        Ok(proc)
    }

    /// Starts the process without waiting for it.
    pub fn spawn(bin: &Path, args: &[String], dir: &Path, label: &str) -> Res<Proc> {
        let port_file = dir.join(format!("{label}.port"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(dir.join(format!("{label}.log")))
            .map_err(|e| format!("{label}: log file: {e}"))?;
        let child = Command::new(bin)
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{label}: cannot start {}: {e}", bin.display()))?;
        Ok(Proc {
            child: Some(child),
            addr: String::new(),
            label: label.to_string(),
        })
    }

    /// Waits until the port file names the bound address and the process
    /// answers a text `STATS`.
    pub fn wait_ready(&mut self, dir: &Path) -> Res<()> {
        let label = self.label.clone();
        let port_file = dir.join(format!("{label}.port"));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.trim().contains(':') {
                    self.addr = text.trim().to_string();
                    break;
                }
            }
            self.check_alive()?;
            if Instant::now() > deadline {
                return Err(format!("{label}: never bound a port"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        loop {
            if text_stats(&self.addr).is_ok() {
                return Ok(());
            }
            self.check_alive()?;
            if Instant::now() > deadline {
                return Err(format!("{label}: never answered STATS"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn check_alive(&mut self) -> Res<()> {
        if let Some(child) = self.child.as_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("{}: exited early ({status})", self.label));
            }
        }
        Ok(())
    }

    pub fn port(&self) -> u16 {
        self.addr
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or(0)
    }

    /// Peak resident set size (`VmHWM`) in MiB, read while alive.
    pub fn peak_rss_mib(&self) -> f64 {
        let Some(child) = self.child.as_ref() else {
            return 0.0;
        };
        peak_rss_mib(&format!("/proc/{}/status", child.id()))
    }

    /// SIGKILL, then wait for the process to be reaped.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn peak_rss_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn connect(addr: &str) -> Res<TcpStream> {
    let sock: std::net::SocketAddr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
    let stream =
        TcpStream::connect_timeout(&sock, IO_TIMEOUT).map_err(|e| format!("{addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One text-protocol `STATS` round trip on a fresh connection, parsed
/// into its `key=value` pairs.
pub fn text_stats(addr: &str) -> Res<Vec<(String, String)>> {
    let mut stream = connect(addr)?;
    stream
        .write_all(b"STATS\n")
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("{addr}: {e}"))?;
    let body = line
        .trim()
        .strip_prefix("OK ")
        .ok_or_else(|| format!("{addr}: STATS answered `{}`", line.trim()))?;
    Ok(parse_kv(body))
}

/// Splits `a=1 b=2` into pairs.
pub fn parse_kv(body: &str) -> Vec<(String, String)> {
    body.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A numeric field of a parsed `STATS` body.
pub fn stat(pairs: &[(String, String)], key: &str) -> Res<u64> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("STATS lacks numeric `{key}`"))
}

/// A blocking-or-polled SFBP connection.
pub struct Sfbp {
    stream: TcpStream,
    rbuf: Vec<u8>,
    pub addr: String,
}

impl Sfbp {
    pub fn connect(addr: &str) -> Res<Sfbp> {
        let mut stream = connect(addr)?;
        stream
            .write_all(b"SFBP")
            .map_err(|e| format!("{addr}: {e}"))?;
        Ok(Sfbp {
            stream,
            rbuf: Vec::new(),
            addr: addr.to_string(),
        })
    }

    /// Writes one request frame.
    pub fn send(&mut self, opcode: u8, payload: &[u8]) -> Res<()> {
        let mut frame = Vec::with_capacity(payload.len() + 5);
        frame.extend_from_slice(&((payload.len() + 1) as u32).to_le_bytes());
        frame.push(opcode);
        frame.extend_from_slice(payload);
        write_all_polled(&mut self.stream, &frame).map_err(|e| format!("{}: {e}", self.addr))
    }

    /// Takes one complete response frame out of the read buffer.
    fn take_frame(&mut self) -> Option<(u8, Vec<u8>)> {
        let len = u32::from_le_bytes(self.rbuf.get(..4)?.try_into().ok()?) as usize;
        if len == 0 || self.rbuf.len() < 4 + len {
            return None;
        }
        let status = self.rbuf[4];
        let payload = self.rbuf[5..4 + len].to_vec();
        self.rbuf.drain(..4 + len);
        Some((status, payload))
    }

    /// Blocking receive of one response frame.
    pub fn recv(&mut self) -> Res<(u8, Vec<u8>)> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        let mut scratch = [0u8; 64 << 10];
        loop {
            if let Some(frame) = self.take_frame() {
                return Ok(frame);
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(format!("{}: connection closed", self.addr)),
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("{}: {e}", self.addr)),
            }
        }
    }

    /// Non-blocking poll: every response frame that has fully arrived.
    pub fn poll(&mut self, out: &mut Vec<(u8, Vec<u8>)>) -> Res<()> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        let mut scratch = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(format!("{}: connection closed", self.addr)),
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("{}: {e}", self.addr)),
            }
        }
        while let Some(frame) = self.take_frame() {
            out.push(frame);
        }
        Ok(())
    }

    /// One blocking exchange; an `ERR` status is an error.
    pub fn call(&mut self, opcode: u8, payload: &[u8]) -> Res<Vec<u8>> {
        self.send(opcode, payload)?;
        let (status, reply) = self.recv()?;
        if status != 0 {
            return Err(format!(
                "{}: node error: {}",
                self.addr,
                String::from_utf8_lossy(&reply)
            ));
        }
        Ok(reply)
    }

    pub fn stats(&mut self) -> Res<Vec<(String, String)>> {
        let body = self.call(op::STATS, &[])?;
        Ok(parse_kv(&String::from_utf8_lossy(&body)))
    }
}

/// `write_all` that also works on a non-blocking socket.
fn write_all_polled(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::Error::new(ErrorKind::WriteZero, "peer closed")),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(std::io::Error::new(ErrorKind::TimedOut, "write stalled"));
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A pipelined text-protocol connection (the front node speaks text
/// only). Replies are parsed in request order: `OK m` heads for TOPK and
/// HH announce `m` row lines.
pub struct TextConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    addr: String,
    /// Per pending request: does its reply carry rows?
    pending_rows: std::collections::VecDeque<bool>,
    /// A multi-row reply whose head has arrived: (head, rows still due).
    partial: Option<(String, usize)>,
}

impl TextConn {
    pub fn connect(addr: &str) -> Res<TextConn> {
        Ok(TextConn {
            stream: connect(addr)?,
            rbuf: Vec::new(),
            addr: addr.to_string(),
            pending_rows: Default::default(),
            partial: None,
        })
    }

    pub fn send(&mut self, line: &str, rows: bool) -> Res<()> {
        self.pending_rows.push_back(rows);
        write_all_polled(&mut self.stream, format!("{line}\n").as_bytes())
            .map_err(|e| format!("{}: {e}", self.addr))
    }

    fn take_line(&mut self) -> Option<String> {
        let nl = self.rbuf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.rbuf[..nl]).into_owned();
        self.rbuf.drain(..=nl);
        Some(line)
    }

    /// Complete replies (head lines) in order; rows are consumed.
    fn drain_replies(&mut self, out: &mut Vec<String>) {
        while let Some(line) = self.take_line() {
            if let Some((head, due)) = self.partial.as_mut() {
                *due -= 1;
                if *due == 0 {
                    out.push(std::mem::take(head));
                    self.partial = None;
                }
                continue;
            }
            let rows = self.pending_rows.pop_front().unwrap_or(false);
            let count = if rows && line.starts_with("OK ") {
                line[3..].trim().parse::<usize>().unwrap_or(0)
            } else {
                0
            };
            if count > 0 {
                self.partial = Some((line, count));
            } else {
                out.push(line);
            }
        }
    }

    pub fn poll(&mut self, out: &mut Vec<String>) -> Res<()> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        let mut scratch = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(format!("{}: connection closed", self.addr)),
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("{}: {e}", self.addr)),
            }
        }
        self.drain_replies(out);
        Ok(())
    }

    /// Like [`TextConn::poll`], but first waits up to `wait` for data to
    /// arrive.
    pub fn poll_for(&mut self, out: &mut Vec<String>, wait: Duration) -> Res<()> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(1))))
            .map_err(|e| e.to_string())?;
        let mut scratch = [0u8; 64 << 10];
        match self.stream.read(&mut scratch) {
            Ok(0) => return Err(format!("{}: connection closed", self.addr)),
            Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("{}: {e}", self.addr)),
        }
        self.poll(out)
    }

    /// One blocking exchange, returning the head line.
    pub fn call(&mut self, line: &str, rows: bool) -> Res<String> {
        self.send(line, rows)?;
        let deadline = Instant::now() + IO_TIMEOUT;
        let mut out = Vec::new();
        loop {
            self.poll(&mut out)?;
            if let Some(head) = out.pop() {
                return Ok(head);
            }
            if Instant::now() > deadline {
                return Err(format!("{}: `{line}` timed out", self.addr));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Parses an `OK <estimate> <lower> <upper>` text reply.
pub fn parse_est_line(line: &str) -> Option<(u64, u64, u64)> {
    let mut it = line.strip_prefix("OK ")?.split_whitespace();
    let mut next = || it.next()?.parse::<u64>().ok();
    Some((next()?, next()?, next()?))
}

/// Parses an SFBP EST payload into (estimate, lower, upper).
pub fn parse_est_payload(payload: &[u8]) -> Option<(u64, u64, u64)> {
    let raw: [u8; 24] = payload.try_into().ok()?;
    let f = |i: usize| u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().unwrap_or([0; 8]));
    Some((f(0), f(1), f(2)))
}

/// A fresh per-run working directory inside the checkout.
pub fn work_dir(root: &Path, workload: &str) -> Res<PathBuf> {
    let dir = root.join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
