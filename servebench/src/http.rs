//! The server process and the load generators that drive it over
//! loopback HTTP/1.1.

use crate::gen::{Req, Workload};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xmem::server::HttpClient;

/// How long a server may take to print its address and answer `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(15);
/// Open loop: how often a connection with answers outstanding polls for
/// them (the resolution of its latency measurement).
const POLL: Duration = Duration::from_micros(100);

/// A running `xmem-cli listen` child process.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Launches `xmem-cli listen` with its default flags, on an ephemeral
    /// loopback port, and waits until `/healthz` answers `200`. The
    /// per-request log (on by default) goes to `/dev/null`.
    pub fn launch(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["listen", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before printing its address".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix("listening on http://") {
                break rest
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad listen address `{rest}`: {e}"))?;
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let started = Instant::now();
        loop {
            let healthy = HttpClient::connect(addr)
                .and_then(|mut c| c.get("/healthz"))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if healthy {
                return Ok(server);
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Scrapes `/metrics` into `series → value` (labels kept verbatim).
    pub fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let response = HttpClient::connect(self.addr)
            .and_then(|mut c| c.get("/metrics"))
            .map_err(|e| format!("/metrics: {e}"))?;
        let mut out = HashMap::new();
        for line in response.text().lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(series.to_string(), v);
                }
            }
        }
        Ok(out)
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Drains the server over the wire and waits for it to exit (killing
    /// it if the drain does not finish in time).
    pub fn shutdown(mut self) {
        let _ = HttpClient::connect(self.addr).and_then(|mut c| c.post_json("/v1/shutdown", "{}"));
        let started = Instant::now();
        while started.elapsed() < EXIT_TIMEOUT {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub req: Req,
    /// Stream (client) and index the request was generated from.
    pub stream: usize,
    pub index: usize,
    /// Seconds since the phase started: when it was due (open loop) or
    /// could have been sent (closed loop: the previous answer arrived),
    /// when it was written, and when its answer was read.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    pub body: Vec<u8>,
    /// The request's first job appears here for the first time.
    pub first_seen: bool,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency in ms, from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Round trip in ms, from when the request was written.
    pub fn round_trip_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
}

/// Marks the first request that names each job (shared by the clients of
/// one server, in send order).
#[derive(Default)]
pub struct FirstSeen(Mutex<HashSet<String>>);

impl FirstSeen {
    pub fn mark(&self, req: &Req) -> bool {
        match req.jobs.first() {
            Some(job) => self
                .0
                .lock()
                .expect("first-seen set poisoned")
                .insert(format!("{job:?}")),
            None => false,
        }
    }
}

/// Incremental HTTP/1.1 response framing for pipelined reads.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
}

impl Framer {
    fn next(&mut self) -> Result<Option<(u16, Vec<u8>)>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let status = head
            .get(9..12)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in `{head}`"))?;
        let length = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or("response without content-length")?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some((status, body)))
    }
}

/// Sends `schedule` (request, due offset in seconds) as an open loop over
/// `conns` pipelined keep-alive connections, one thread each: request `i`
/// goes out on connection `i % conns` at its due time whether or not
/// earlier answers have arrived. Returns outcomes in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[(usize, f64, Req)],
    conns: usize,
    grace: Duration,
) -> Vec<Outcome> {
    let t0 = Instant::now();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; schedule.len()];
    let per_conn: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..schedule.len()).step_by(conns).collect();
                scope.spawn(move || drive_connection(addr, schedule, &mine, t0, grace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect()
    });
    for (position, outcome) in per_conn.into_iter().flatten() {
        outcomes[position] = Some(outcome);
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every scheduled request has an outcome"))
        .collect()
}

fn drive_connection(
    addr: SocketAddr,
    schedule: &[(usize, f64, Req)],
    mine: &[usize],
    t0: Instant,
    grace: Duration,
) -> Vec<(usize, Outcome)> {
    let last_due = mine.last().map_or(0.0, |&i| schedule[i].1);
    let hard_stop = last_due + grace.as_secs_f64();
    let mut outcomes: Vec<Outcome> = mine
        .iter()
        .map(|&i| {
            let (index, due, req) = &schedule[i];
            Outcome {
                req: req.clone(),
                stream: 0,
                index: *index,
                due: *due,
                sent: f64::NAN,
                done: f64::NAN,
                status: 0,
                body: Vec::new(),
                first_seen: false,
            }
        })
        .collect();
    let positioned = |outcomes: Vec<Outcome>| mine.iter().copied().zip(outcomes).collect();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return positioned(outcomes);
    };
    // Non-blocking, with sleeps between polls: a socket read timeout
    // wakes at scheduler-tick granularity (milliseconds), which would
    // make the generator itself late.
    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
        return positioned(outcomes);
    }
    let wire: Vec<Vec<u8>> = mine.iter().map(|&i| schedule[i].2.wire_bytes()).collect();
    let mut framer = Framer::default();
    let (mut next_send, mut next_done) = (0, 0);
    let mut buf = vec![0u8; 64 * 1024];
    while next_done < mine.len() {
        let now = t0.elapsed().as_secs_f64();
        while next_send < mine.len() && outcomes[next_send].due <= now {
            if write_fully(&mut stream, &wire[next_send]).is_err() {
                return positioned(outcomes);
            }
            outcomes[next_send].sent = t0.elapsed().as_secs_f64();
            next_send += 1;
        }
        if now > hard_stop {
            break;
        }
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return positioned(outcomes),
                Ok(n) => framer.buf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return positioned(outcomes),
            }
        }
        let done = t0.elapsed().as_secs_f64();
        loop {
            match framer.next() {
                Ok(Some((status, body))) if next_done < next_send => {
                    let outcome = &mut outcomes[next_done];
                    outcome.status = status;
                    outcome.body = body;
                    outcome.done = done;
                    next_done += 1;
                }
                Ok(None) => break,
                // An answer nobody asked for, or unparseable bytes: the
                // connection is unusable.
                _ => return positioned(outcomes),
            }
        }
        if next_done == mine.len() {
            break;
        }
        let mut wait = if next_send < mine.len() {
            outcomes[next_send].due - t0.elapsed().as_secs_f64()
        } else {
            hard_stop - now
        };
        if next_done < next_send {
            wait = wait.min(POLL.as_secs_f64());
        }
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
    positioned(outcomes)
}

/// `write_all` for a non-blocking socket: waits out a full send buffer.
fn write_fully(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs `clients` closed-loop clients (one thread and one keep-alive
/// connection each) until `deadline`: each sends its stream's next
/// request only after the previous answer arrived.
pub fn closed_loop(
    addr: SocketAddr,
    workload: &Workload,
    clients: usize,
    duration: Duration,
    first_seen: &FirstSeen,
) -> Vec<Outcome> {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let gen = |i: usize| workload.request(c, i);
                    run_client(
                        addr,
                        c,
                        gen,
                        t0,
                        |t| t >= duration.as_secs_f64(),
                        first_seen,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let mut all: Vec<Outcome> = per_client.into_iter().flatten().collect();
    all.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    all
}

/// Sends a fixed list of requests closed-loop over `clients` connections
/// (request `i` on client `i % clients`): set-up warm-up and the census.
pub fn closed_list(
    addr: SocketAddr,
    reqs: &[Req],
    clients: usize,
    first_seen: &FirstSeen,
) -> Vec<Outcome> {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mine: Vec<&Req> = reqs.iter().skip(c).step_by(clients).collect();
                scope.spawn(move || {
                    let count = mine.len();
                    let gen = |i: usize| mine[i].clone();
                    let mut sent = 0usize;
                    run_client(
                        addr,
                        c,
                        gen,
                        t0,
                        move |_| {
                            sent += 1;
                            sent > count
                        },
                        first_seen,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-list client thread panicked"))
            .collect()
    });
    let mut all: Vec<Outcome> = per_client.into_iter().flatten().collect();
    all.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    all
}

fn run_client(
    addr: SocketAddr,
    stream_id: usize,
    gen: impl Fn(usize) -> Req,
    t0: Instant,
    mut stop: impl FnMut(f64) -> bool,
    first_seen: &FirstSeen,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    let mut client = HttpClient::connect(addr).ok();
    let mut ready = t0.elapsed().as_secs_f64();
    for index in 0.. {
        if stop(ready) {
            break;
        }
        let req = gen(index);
        let first = first_seen.mark(&req);
        let sent = t0.elapsed().as_secs_f64();
        let answer = client.as_mut().map(|c| {
            c.request(
                req.method(),
                req.route.path(),
                &[("content-type", "application/json")],
                req.body.as_bytes(),
            )
        });
        let done = t0.elapsed().as_secs_f64();
        let (status, body) = match answer {
            Some(Ok(r)) => (r.status, r.body),
            _ => {
                // Reconnect for the next request; this one failed.
                client = HttpClient::connect(addr).ok();
                (0, Vec::new())
            }
        };
        outcomes.push(Outcome {
            req,
            stream: stream_id,
            index,
            due: ready,
            sent,
            done,
            status,
            body,
            first_seen: first,
        });
        ready = t0.elapsed().as_secs_f64();
    }
    outcomes
}
