//! Open-loop HTTP load: one sender and one receiver thread on one
//! keep-alive connection.
//!
//! The sender writes request `i` at its due time `start + i / rate`
//! whether or not earlier requests were answered (the server reads
//! pipelined requests in order), so a stall in the server delays every
//! later answer and shows in their latency. Each latency is measured
//! from the request's due time, not from when it was written; how late
//! the sender itself wrote is reported separately.

use crate::trace::Tracer;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long the receiver waits for the next answer before it counts
/// every request still outstanding as unanswered.
const DRAIN: Duration = Duration::from_secs(2);

/// One open-loop load window.
pub struct Plan<'a> {
    pub addr: SocketAddr,
    pub rate_hz: f64,
    pub count: usize,
    /// Raw HTTP/1.1 requests; request `i` sends `requests[i % len]`.
    pub requests: &'a [Vec<u8>],
    /// Predictions request slot `i % len` must receive, checked on every
    /// `check_every`-th answer; `None` when the served model changes
    /// during the window.
    pub expected: Option<&'a [Vec<Option<f64>>]>,
    pub check_every: usize,
}

/// What the receiver saw for one request, in ns since schedule start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub recv_ns: u64,
    pub ok: bool,
}

/// Outcome of one window.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    pub attempted: u64,
    /// Requests unsent, unanswered at drain, or answered with a status
    /// other than 200.
    pub failed: u64,
    /// Sampled answers whose predictions differ from the expected ones.
    pub mismatches: u64,
    /// Due time to answer, for every request answered with 200.
    pub latency_us: Vec<f64>,
    /// Write time minus due time, for every request sent.
    pub late_ms: Vec<f64>,
}

impl LoadStats {
    pub fn merge(&mut self, other: LoadStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.latency_us.extend(other.latency_us);
        self.late_ms.extend(other.late_ms);
    }
}

/// Due time of request `i`, in ns since the schedule start.
pub fn due_ns(i: usize, period_ns: u64) -> u64 {
    i as u64 * period_ns
}

/// Due-time accounting: `sent_ns[i]` is when request `i` was written
/// (requests past the end were never sent), `answers[i]` what came
/// back. Every planned request is attempted.
pub fn summarize(period_ns: u64, sent_ns: &[u64], answers: &[Option<Answer>]) -> LoadStats {
    let mut stats = LoadStats {
        attempted: answers.len() as u64,
        ..LoadStats::default()
    };
    for (i, answer) in answers.iter().enumerate() {
        let due = due_ns(i, period_ns);
        match sent_ns.get(i) {
            Some(&sent) => stats.late_ms.push(sent.saturating_sub(due) as f64 * 1e-6),
            None => {
                stats.failed += 1;
                continue;
            }
        }
        match answer {
            Some(a) if a.ok => stats
                .latency_us
                .push(a.recv_ns.saturating_sub(due) as f64 * 1e-3),
            _ => stats.failed += 1,
        }
    }
    stats
}

/// A `POST /predict` request for `ids` under `method`.
pub fn predict_request(method: &str, ids: &[i64]) -> Vec<u8> {
    let list: Vec<String> = ids.iter().map(i64::to_string).collect();
    let body = format!("{{\"method\":\"{method}\",\"ids\":[{}]}}", list.join(","));
    format!(
        "POST /predict HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `predictions` array of a `/predict` answer (`null` → `None`).
pub fn parse_predictions(body: &[u8]) -> Option<Vec<Option<f64>>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"predictions\":[")? + "\"predictions\":[".len();
    let list = &text[start..start + text[start..].find(']')?];
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split(',')
        .map(|v| match v.trim() {
            "null" => Some(None),
            v => v.parse().ok().map(Some),
        })
        .collect()
}

/// Bitwise equality of two prediction lists.
pub fn same_predictions(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// Read one HTTP/1.1 response: status code and body.
pub fn read_response(r: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut len = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, body))
}

/// One request on its own connection, answered synchronously.
pub fn request_once(addr: SocketAddr, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(DRAIN))?;
    conn.write_all(request)?;
    read_response(&mut BufReader::new(conn))
}

/// Sleep until `due`. The sender never spins: on two cores a spinning
/// sender takes the time the server and the receiver need, and the
/// timer's overshoot shows up honestly as lateness.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Run one load window while `during` runs on the calling thread;
/// both the window and `during` finish before this returns. Answered
/// requests are recorded as `http.predict` spans from write to answer.
pub fn run<T>(
    plan: &Plan,
    tracer: &Tracer,
    during: impl FnOnce() -> T,
) -> io::Result<(LoadStats, T)> {
    assert!(plan.rate_hz > 0.0 && !plan.requests.is_empty() && plan.check_every > 0);
    let conn = TcpStream::connect(plan.addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(DRAIN))?;
    let mut writer = conn.try_clone()?;
    let period_ns = (1e9 / plan.rate_hz) as u64;
    let n = plan.count;
    // Write times, shared so the receiver can time each request's span
    // from its write (0 = not yet written).
    let sent_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let sent_at = &sent_at;
        let sender = s.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            for (i, slot) in sent_at.iter().enumerate() {
                wait_until(start + Duration::from_nanos(due_ns(i, period_ns)));
                let at = ns_between(start, Instant::now());
                slot.store(at.max(1), Ordering::SeqCst);
                if writer
                    .write_all(&plan.requests[i % plan.requests.len()])
                    .is_err()
                {
                    break;
                }
                sent.push(at);
            }
            sent
        });
        let receiver = s.spawn(move || {
            let mut reader = BufReader::new(conn);
            let mut answers: Vec<Option<Answer>> = vec![None; n];
            let mut mismatches = 0u64;
            for (i, slot) in answers.iter_mut().enumerate() {
                let Ok((status, body)) = read_response(&mut reader) else {
                    // Nobody reads the answers from here on, so a server
                    // that stopped reading would block the sender's
                    // writes for good: end them, and every request not
                    // yet answered fails.
                    reader.get_ref().shutdown(Shutdown::Both).ok();
                    break;
                };
                let now = Instant::now();
                let ok = status == 200;
                if let (true, Some(expected)) = (ok && i % plan.check_every == 0, plan.expected) {
                    let want = &expected[i % expected.len()];
                    if !parse_predictions(&body).is_some_and(|got| same_predictions(&got, want)) {
                        mismatches += 1;
                    }
                }
                *slot = Some(Answer {
                    recv_ns: ns_between(start, now),
                    ok,
                });
                let sent = sent_at[i].load(Ordering::SeqCst);
                let sent = if sent == 0 {
                    due_ns(i, period_ns)
                } else {
                    sent
                };
                tracer.record("http.predict", start + Duration::from_nanos(sent), now);
            }
            (answers, mismatches)
        });
        let out = during();
        let sent = sender.join().expect("load sender panicked");
        let (answers, mismatches) = receiver.join().expect("load receiver panicked");
        let mut stats = summarize(period_ns, &sent, &answers);
        stats.mismatches = mismatches;
        Ok((stats, out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn latency_counts_from_due_time_and_lateness_from_write() {
        // Period 1 ms. Request 1 was written 0.3 ms late and answered
        // 0.5 ms after its write: its latency includes the late write.
        let sent = [0, 1_300_000, 2_000_000];
        let answers = [
            Some(Answer {
                recv_ns: 100_000,
                ok: true,
            }),
            Some(Answer {
                recv_ns: 1_800_000,
                ok: true,
            }),
            Some(Answer {
                recv_ns: 2_050_000,
                ok: false,
            }),
        ];
        let s = summarize(1_000_000, &sent, &answers);
        assert_eq!(s.attempted, 3);
        assert_eq!(s.failed, 1, "a non-200 answer fails");
        assert_eq!(s.latency_us, vec![100.0, 800.0]);
        assert_eq!(s.late_ms, vec![0.0, 0.3, 0.0]);
    }

    #[test]
    fn unsent_and_unanswered_requests_fail() {
        let s = summarize(
            1_000,
            &[0, 1_000],
            &[
                Some(Answer {
                    recv_ns: 10,
                    ok: true,
                }),
                None,
                None,
            ],
        );
        assert_eq!(s.attempted, 3);
        assert_eq!(s.failed, 2);
        assert_eq!(s.late_ms.len(), 2);
        assert_eq!(s.latency_us, vec![0.01]);
    }

    #[test]
    fn predictions_parse_and_compare_bitwise() {
        let body = br#"{"method":"basic","predictions":[1.5,null,-0.1],"count":3}"#;
        let got = parse_predictions(body).unwrap();
        assert!(same_predictions(&got, &[Some(1.5), None, Some(-0.1)]));
        assert!(!same_predictions(
            &got,
            &[Some(1.5), None, Some(-0.1000000000000001)]
        ));
        assert_eq!(parse_predictions(b"{\"error\":\"x\"}"), None);
    }

    /// A pipelining test server on loopback: it reads and answers the
    /// first `answered` requests in order, then neither reads nor
    /// answers until `release` fires, and closes the connection.
    fn test_server(
        answered: usize,
        release: std::sync::mpsc::Receiver<()>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut out = conn.try_clone().unwrap();
            let mut reader = BufReader::new(conn);
            for _ in 0..answered {
                // Read one request head plus its body, answer in order.
                let mut len = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).unwrap();
                let answer = br#"{"method":"basic","predictions":[2.0],"count":1}"#;
                write!(
                    out,
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
                    answer.len()
                )
                .unwrap();
                out.write_all(answer).unwrap();
            }
            release.recv().ok();
        });
        (addr, server)
    }

    #[test]
    fn open_loop_window_against_a_pipelining_server() {
        let n = 40;
        let (done, release) = std::sync::mpsc::channel();
        let (addr, server) = test_server(n, release);
        let requests = [predict_request("basic", &[7])];
        let expected = [vec![Some(2.0)]];
        let plan = Plan {
            addr,
            rate_hz: 2000.0,
            count: n,
            requests: &requests,
            expected: Some(&expected),
            check_every: 1,
        };
        let tracer = Tracer::on("test".into());
        let (stats, ran) = run(&plan, &tracer, || true).unwrap();
        done.send(()).unwrap();
        server.join().unwrap();
        assert!(ran);
        assert_eq!(
            (stats.attempted, stats.failed, stats.mismatches),
            (n as u64, 0, 0)
        );
        assert_eq!(stats.latency_us.len(), n);
        assert_eq!(tracer.spans().len(), n);
    }

    #[test]
    fn a_server_that_stops_answering_fails_the_rest_without_hanging() {
        // Requests large enough that, unread, they fill the socket
        // buffers and block the sender's writes.
        let (n, answered) = (200, 5);
        let (done, release) = std::sync::mpsc::channel();
        let (addr, server) = test_server(answered, release);
        let requests = [predict_request("basic", &vec![7; 64 << 10])];
        let plan = Plan {
            addr,
            rate_hz: 2000.0,
            count: n,
            requests: &requests,
            expected: None,
            check_every: 1,
        };
        let t = Instant::now();
        let (stats, ()) = run(&plan, &Tracer::off(), || ()).unwrap();
        assert!(t.elapsed() < DRAIN * 5, "the window took {:?}", t.elapsed());
        done.send(()).unwrap();
        server.join().unwrap();
        assert_eq!(stats.attempted, n as u64);
        assert_eq!(stats.failed, (n - answered) as u64);
        assert_eq!(stats.latency_us.len(), answered);
    }
}
