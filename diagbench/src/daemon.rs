//! Driving an in-process `snorlaxd` over loopback: start until `health`
//! answers `ok`, open-loop request runs, drain and stop.
//!
//! The open-loop generator uses two threads and one connection: a
//! sender writes each pre-encoded `Diagnose` frame at its due time
//! whether or not earlier replies came back (the daemon admits
//! pipelined requests and replies in order), and the calling thread
//! reads the replies. Every request is timed from its due time, so a
//! stall that delays later requests shows in their latency.

use lazy_ir::Module;
use lazy_snorlax::daemon::{encode_diagnose_request, encode_frame, read_frame};
use lazy_snorlax::{serve, DaemonConfig, DaemonStats, FrameKind, RemoteClient};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::heap;
use crate::inputs::Report;

/// A failed request's latency for percentile purposes: the daemon's
/// request deadline, so it misses any latency limit.
pub const FAILED_LATENCY_MS: f64 = 30_000.0;

/// How long a reply may take before the generator gives up on the
/// connection.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The `Diagnose` frame for one report, as a client would send it.
pub fn diagnose_frame(r: &Report) -> Vec<u8> {
    encode_frame(
        FrameKind::Diagnose,
        &encode_diagnose_request(&r.failure, &r.failing, &r.successful),
    )
}

/// Runs `f` against a default-configured daemon serving `module` on an
/// ephemeral loopback port. Returns `f`'s result, the daemon's own
/// counters once drained, and the set-up time: from binding the
/// listener until `health` answers `ok`.
///
/// # Panics
///
/// If the daemon cannot be started, probed or stopped.
pub fn with_daemon<T>(
    module: &Module,
    f: impl FnOnce(SocketAddr) -> T,
) -> (T, DaemonStats, Duration) {
    let cfg = DaemonConfig::default();
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve(&listener, module, &cfg));
        let mut control = loop {
            if let Ok(mut c) = RemoteClient::connect(addr) {
                if c.health().is_ok_and(|line| line.starts_with("ok")) {
                    break c;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let setup = t0.elapsed();
        let out = f(addr);
        control.shutdown().expect("daemon drains on shutdown");
        let stats = daemon
            .join()
            .expect("daemon thread")
            .expect("daemon serve loop");
        (out, stats, setup)
    })
}

/// One request's fate.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// When the request was due.
    pub due: Instant,
    /// When its frame was fully written (`None`: never sent).
    pub sent: Option<Instant>,
    /// When its reply was read, with the reply (`None`: lost).
    pub reply: Option<(Instant, FrameKind, Vec<u8>)>,
    /// Peak live heap between the previous reply and this one, MiB.
    pub heap_peak_mib: f64,
}

impl Exchange {
    /// Latency from due time to the reply, ms, if the reply is a report.
    pub fn report_latency_ms(&self) -> Option<f64> {
        match &self.reply {
            Some((at, FrameKind::Report, _)) => {
                Some(at.saturating_duration_since(self.due).as_secs_f64() * 1e3)
            }
            _ => None,
        }
    }

    /// How late the generator sent the request, ms.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// Sends `frames` over one connection at `rate` per second, whatever
/// the replies do, and reads every reply. Transport failures end the
/// run; the requests not answered by then keep `reply: None`.
///
/// # Panics
///
/// If the connection cannot be opened.
pub fn open_loop(addr: SocketAddr, frames: &[&[u8]], rate: f64) -> Vec<Exchange> {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone connection");
    let mut reader = stream;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let due: Vec<Instant> = (0..frames.len())
        .map(|i| start + interval.saturating_mul(u32::try_from(i).unwrap_or(u32::MAX)))
        .collect();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(frames.len());
            for (frame, &at) in frames.iter().zip(&due) {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                if writer.write_all(frame).is_err() {
                    break;
                }
                sent.push(Instant::now());
            }
            sent
        });
        let mut replies = Vec::with_capacity(frames.len());
        heap::take_peak_mib();
        while replies.len() < frames.len() {
            match read_frame(&mut reader) {
                Ok((kind, body)) => {
                    replies.push((Instant::now(), kind, body, heap::take_peak_mib()));
                }
                Err(_) => break,
            }
        }
        // A lost reply stream leaves the sender nothing to wait for.
        let _ = reader.shutdown(std::net::Shutdown::Both);
        let sent = sender.join().expect("sender thread");
        let mut sent = sent.into_iter();
        let mut replies = replies.into_iter();
        due.iter()
            .map(|&due| {
                let r = replies.next();
                Exchange {
                    due,
                    sent: sent.next(),
                    heap_peak_mib: r.as_ref().map_or(0.0, |r| r.3),
                    reply: r.map(|(at, kind, body, _)| (at, kind, body)),
                }
            })
            .collect()
    })
}
