//! The load side: starts `serve_agent`, offers a workload's requests over
//! one loopback TCP connection and times each one from the client.
//!
//! `serve_agent` speaks single-line JSON: a `{"scenario": …}` line on
//! stdin, `{"event":"ready","port":N}` on stdout once warm, then
//! `{"id","stream","seed"}` requests over TCP answered by
//! `{"id","status","sum"}`; `shutdown` on stdin makes it print its final
//! `stats` line and exit.

use crate::workload::{Load, SplitMix, Workload};
use bench::harness::ScenarioConfig;
use runtime::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long any one protocol step may take before the run is abandoned.
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

/// Reply silence after which an open-loop run counts its missing replies
/// as lost.
const OPEN_LOOP_SILENCE: Duration = Duration::from_secs(5);

/// A running `serve_agent` process.
pub struct Agent {
    child: Child,
    stdin: ChildStdin,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Loopback data-plane port.
    pub port: u16,
    /// Spawn → `ready` line.
    pub setup: Duration,
}

/// The server's final counters, from its `stats` line.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerReport {
    /// Peak resident set (`VmHWM`) in KiB.
    pub rss_kb: f64,
    /// Requests resolved.
    pub completed: u64,
    /// Engine calls.
    pub batches: u64,
    /// Requests that expired before dispatch.
    pub expired: u64,
    /// Sum of submit → response times of served requests, µs.
    pub total_micros: u64,
}

impl ServerReport {
    /// Mean server-side submit → response time in ms.
    pub fn mean_ms(&self) -> f64 {
        self.total_micros as f64 / 1e3 / (self.completed - self.expired).max(1) as f64
    }

    /// Requests served per engine call.
    pub fn mean_batch(&self) -> f64 {
        (self.completed - self.expired) as f64 / self.batches.max(1) as f64
    }
}

impl Agent {
    /// Spawns the server for `config` and waits for its `ready` line.
    pub fn start(server: &Path, config: &ScenarioConfig) -> Result<Agent, String> {
        let started = Instant::now();
        let mut child = Command::new(server)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", server.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let stdin = child.stdin.take().expect("piped stdin");
        let mut agent = Agent {
            child,
            stdin,
            lines,
            reader: Some(reader),
            port: 0,
            setup: Duration::ZERO,
        };
        let config_line = Json::obj([("scenario", config.to_json())]).to_string_compact();
        agent.send_control(&config_line)?;
        let ready = agent.event("ready")?;
        agent.setup = started.elapsed();
        agent.port = ready
            .get("port")
            .and_then(Json::as_u64)
            .and_then(|p| u16::try_from(p).ok())
            .ok_or("ready line without a port")?;
        Ok(agent)
    }

    fn send_control(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("writing to serve_agent: {e}"))
    }

    /// Waits for the next stdout line with the given `event`.
    fn event(&mut self, name: &str) -> Result<Json, String> {
        loop {
            let line = self
                .lines
                .recv_timeout(STEP_TIMEOUT)
                .map_err(|_| format!("serve_agent sent no `{name}` line"))?;
            let Ok(value) = Json::parse(line.trim()) else {
                continue;
            };
            match value.get("event").and_then(Json::as_str) {
                Some(event) if event == name => return Ok(value),
                Some("error") => return Err(format!("serve_agent: {line}")),
                _ => continue,
            }
        }
    }

    /// Asks for the final stats, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<ServerReport, String> {
        self.send_control("shutdown")?;
        let stats = self.event("stats")?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve_agent: {e}"))?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(format!("serve_agent exited with {status}"));
        }
        let server = stats
            .get("router")
            .and_then(|r| r.get("server"))
            .ok_or("stats line without router.server")?;
        let count = |field: &str| server.get(field).and_then(Json::as_u64).unwrap_or(0);
        Ok(ServerReport {
            rss_kb: stats
                .get("rss_kb")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            completed: count("completed"),
            batches: count("batches"),
            expired: count("deadline_expired"),
            total_micros: server
                .get("latency")
                .and_then(|l| l.get("total_micros"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
        })
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        // After `shutdown` this finds the child already reaped; on an error
        // path it makes sure no server outlives the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One request the client offered.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Stream index.
    pub stream: usize,
    /// Frame-pool slot.
    pub slot: usize,
    /// Whether it falls in the measured window (not warm-up).
    pub measured: bool,
    /// When it was due (open loop) or sent (closed loop), since the epoch.
    pub due: Duration,
    /// How late the sender was against `due`.
    pub late: Duration,
}

/// One reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Arrival since the epoch.
    pub at: Duration,
    /// Whether `status` was `ok`.
    pub ok: bool,
    /// The image checksum of an `ok` reply.
    pub sum: String,
}

/// Everything a load phase observed.
#[derive(Debug, Default)]
pub struct LoadLog {
    /// Requests by id.
    pub sent: Vec<Sent>,
    /// Replies by id (`None` = lost).
    pub replies: Vec<Option<Reply>>,
}

impl LoadLog {
    /// Client-side latency of request `id` in ms, if it was answered.
    pub fn latency_ms(&self, id: usize) -> Option<f64> {
        self.replies[id]
            .as_ref()
            .map(|r| (r.at.saturating_sub(self.sent[id].due)).as_secs_f64() * 1e3)
    }

    /// Ids of the measured-window requests.
    pub fn measured(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sent.len()).filter(|&id| self.sent[id].measured)
    }
}

/// Offers `workload` to the server on `port`: `warmup` un-measured, then
/// `window` measured. Request choices come from `seed`.
pub fn run_load(
    workload: &Workload,
    port: u16,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Result<LoadLog, String> {
    let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connecting: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(STEP_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let slots = workload.slots(seed);
    let mut rng = SplitMix(seed);
    let mut choose = move |id: usize| {
        let stream = id % slots.len();
        let slot = slots[stream][(rng.next() % slots[stream].len() as u64) as usize];
        (stream, slot)
    };
    match workload.load {
        Load::Closed => closed_loop(stream, &mut choose, warmup, window),
        Load::Open { rate_hz } => open_loop(stream, &mut choose, rate_hz, warmup, window),
    }
}

fn request_line(id: usize, stream: usize, slot: usize) -> String {
    format!("{{\"id\":{id},\"stream\":{stream},\"seed\":{slot}}}\n")
}

fn parse_reply(line: &str) -> Result<(usize, bool, String), String> {
    let value = Json::parse(line.trim()).map_err(|e| format!("bad reply `{line}`: {e}"))?;
    let id = value
        .get("id")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("reply without id: {line}"))?;
    let ok = value.get("status").and_then(Json::as_str) == Some("ok");
    let sum = value
        .get("sum")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Ok((id, ok, sum))
}

fn closed_loop(
    stream: TcpStream,
    choose: &mut impl FnMut(usize) -> (usize, usize),
    warmup: Duration,
    window: Duration,
) -> Result<LoadLog, String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let epoch = Instant::now();
    let mut log = LoadLog::default();
    let mut line = String::new();
    loop {
        let now = epoch.elapsed();
        if now >= warmup + window {
            break;
        }
        let id = log.sent.len();
        let (stream_index, slot) = choose(id);
        let due = epoch.elapsed();
        writer
            .write_all(request_line(id, stream_index, slot).as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        log.sent.push(Sent {
            stream: stream_index,
            slot,
            measured: now >= warmup,
            due,
            late: Duration::ZERO,
        });
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("reading reply: {e}"))?
            == 0
        {
            log.replies.push(None);
            break;
        }
        let at = epoch.elapsed();
        let (reply_id, ok, sum) = parse_reply(&line)?;
        if reply_id != id {
            return Err(format!(
                "closed loop: reply for {reply_id} while waiting for {id}"
            ));
        }
        log.replies.push(Some(Reply { at, ok, sum }));
    }
    log.replies.resize(log.sent.len(), None);
    Ok(log)
}

fn open_loop(
    stream: TcpStream,
    choose: &mut (impl FnMut(usize) -> (usize, usize) + Send),
    rate_hz: f64,
    warmup: Duration,
    window: Duration,
) -> Result<LoadLog, String> {
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let count = ((warmup + window).as_secs_f64() * rate_hz).ceil() as usize;
    // Replies trail their requests by milliseconds; a silence this long
    // means the rest are lost.
    stream
        .set_read_timeout(Some(OPEN_LOOP_SILENCE))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let epoch = Instant::now();
    let mut replies: Vec<Option<Reply>> = vec![None; count];
    let sent = std::thread::scope(|scope| -> Result<Vec<Sent>, String> {
        let sender = scope.spawn(move || -> Result<Vec<Sent>, String> {
            let mut sent = Vec::with_capacity(count);
            for id in 0..count {
                let due = period * id as u32;
                sleep_until(epoch, due);
                let (stream_index, slot) = choose(id);
                writer
                    .write_all(request_line(id, stream_index, slot).as_bytes())
                    .map_err(|e| format!("sending: {e}"))?;
                let late = epoch.elapsed().saturating_sub(due);
                sent.push(Sent {
                    stream: stream_index,
                    slot,
                    measured: due >= warmup,
                    due,
                    late,
                });
            }
            Ok(sent)
        });
        let mut line = String::new();
        let mut received = 0;
        while received < count {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // closed or idle past the timeout: the rest are lost
                Ok(_) => {}
            }
            let at = epoch.elapsed();
            let (id, ok, sum) = parse_reply(&line)?;
            let slot = replies
                .get_mut(id)
                .ok_or_else(|| format!("reply for unknown id {id}"))?;
            if slot.replace(Reply { at, ok, sum }).is_some() {
                return Err(format!("duplicate reply for id {id}"));
            }
            received += 1;
        }
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?
    })?;
    replies.truncate(sent.len());
    Ok(LoadLog { sent, replies })
}

/// Sleeps until `epoch + due`, spinning for the last stretch so the send
/// lands on the clock rather than on the scheduler's wake-up granularity.
fn sleep_until(epoch: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = epoch.elapsed();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
