//! Driving a real `dot-serve` process: spawn it on a state directory,
//! wait for its own `listening on` line, talk JSON lines over one TCP
//! connection, read its peak RSS, and stop it.

use dot_serve::framing::{parse_response, write_frame};
use dot_serve::protocol::{Request, RequestFrame, Response, ResponseFrame};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Worker threads the daemon runs with (the benchmark machine has two
/// cores; see the README).
pub const WORKERS: &str = "2";

pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's later stdout lines never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    pub client: Client,
}

impl Daemon {
    /// Spawn `serve` on `state_dir` and return it once the restored fleet
    /// answers `Stats`, with the seconds that took and that answer.
    pub fn start(serve: &Path, state_dir: &Path) -> io::Result<(Daemon, f64, Response)> {
        let started = Instant::now();
        let mut child = Command::new(serve)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                WORKERS,
                "--state-dir",
            ])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let status = child.wait()?;
                return Err(io::Error::other(format!(
                    "dot-serve exited before listening: {status}"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_owned();
            }
        };
        let mut client = match Client::connect(&addr) {
            Ok(client) => client,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let stats = client.call(&Request::Stats);
        let setup = started.elapsed().as_secs_f64();
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            client,
        };
        match stats {
            Ok(mut frames) if frames.len() == 1 => {
                Ok((daemon, setup, frames.pop().expect("one frame").response))
            }
            Ok(frames) => {
                daemon.kill();
                Err(io::Error::other(format!(
                    "Stats answered {} frames",
                    frames.len()
                )))
            }
            Err(e) => {
                daemon.kill();
                Err(e)
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line"))
    }

    /// Stop the daemon gracefully (it flushes every tenant to its state
    /// directory before it answers) and reap it.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let answer = self.client.call(&Request::Shutdown)?;
        let status = self.child.wait()?;
        match answer.as_slice() {
            [ResponseFrame {
                response: Response::ShuttingDown { .. },
                ..
            }] if status.success() => Ok(()),
            other => Err(io::Error::other(format!(
                "Shutdown answered {other:?}, dot-serve exited with {status}"
            ))),
        }
    }

    /// `kill -9` the daemon and reap it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One connection, one request in flight.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            // Control traffic ids stay clear of the stream's 1, 2, ...
            next_id: 1 << 32,
        })
    }

    /// Encode a request line (done before any timed section).
    pub fn encode(id: u64, request: &Request) -> String {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &RequestFrame {
                id,
                request: request.clone(),
            },
        )
        .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("frames are UTF-8")
    }

    /// Send one pre-encoded request line and read raw response lines up to
    /// and including the terminal frame (every frame but an `Event` ends a
    /// request). Returns the lines and the seconds from the first byte
    /// sent to the terminal frame read.
    pub fn exchange(&mut self, line: &str, out: &mut Vec<String>) -> io::Result<f64> {
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        loop {
            let mut frame = String::new();
            if self.reader.read_line(&mut frame)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            let terminal = !frame.contains("\"response\":{\"Event\"");
            out.push(frame);
            if terminal {
                return Ok(start.elapsed().as_secs_f64());
            }
        }
    }

    /// Send a request and parse its frames (untimed control traffic).
    pub fn call(&mut self, request: &Request) -> io::Result<Vec<ResponseFrame>> {
        let id = self.next_id;
        self.next_id += 1;
        let mut lines = Vec::new();
        self.exchange(&Client::encode(id, request), &mut lines)?;
        lines
            .iter()
            .map(|l| parse_response(l.trim()).map_err(io::Error::other))
            .collect()
    }
}
