//! TCP front-end: serves the [`protocol`] line protocol
//! over a listener, one thread per connection, all of them funneling into
//! one [`ServiceHandle`].
//!
//! The server borrows the service — it never owns it. `SHUTDOWN` stops the
//! accept loop (and acknowledges the client); the caller then shuts the
//! service itself down, so embedded users can also run the server as one of
//! several front-ends.
//!
//! Each connection is its own fault domain: a client that stalls
//! ([`CLIENT_READ_TIMEOUT`] / [`CLIENT_WRITE_TIMEOUT`]), sends an overlong
//! line ([`MAX_LINE_BYTES`]), or breaks its socket loses only that
//! connection — the service and every other client keep running.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{self, Request};
use crate::service::{JobStatus, ServiceHandle, WaitError};

/// How long a connection thread waits for the next request line before
/// dropping the connection. Generous — clients are interactive — but finite,
/// so an abandoned socket cannot pin a thread forever.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a blocked response write may stall before the connection is
/// dropped. A client that stops draining its socket only loses its own
/// connection.
pub const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on one request line. Anything longer is a protocol abuse (or
/// a runaway client); the server answers `ERR` and drops the connection
/// rather than buffering without bound.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// `WAIT` gives up after this long. Far beyond any legitimate wave, so a
/// wedged job cannot pin connection threads forever; the client gets an
/// `ERR` and can retry.
const WAIT_TIMEOUT: Duration = Duration::from_secs(600);

/// Serves the line protocol on `listener` until a client sends `SHUTDOWN`.
/// Blocks the calling thread; connection handlers run on their own threads.
///
/// # Errors
///
/// Propagates accept-loop I/O errors. Per-connection I/O errors only end
/// that connection.
pub fn serve(listener: TcpListener, handle: &ServiceHandle) -> std::io::Result<()> {
    let stopping = Arc::new(AtomicBool::new(false));
    let local = listener.local_addr()?;
    for conn in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let handle = handle.clone();
        let stopping = Arc::clone(&stopping);
        std::thread::Builder::new()
            .name("mithrilog-conn".into())
            .spawn(move || {
                if handle_connection(stream, &handle, &stopping) {
                    // SHUTDOWN: wake the accept loop with a no-op connection
                    // so it observes the flag and exits.
                    let _ = TcpStream::connect(local);
                }
            })
            .expect("failed to spawn a connection thread");
    }
    Ok(())
}

/// Handles one connection; returns `true` when the client asked the whole
/// server to shut down.
fn handle_connection(stream: TcpStream, handle: &ServiceHandle, stopping: &AtomicBool) -> bool {
    // A stalled or hostile client loses its own connection, nothing more.
    if stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).is_err()
        || stream
            .set_write_timeout(Some(CLIENT_WRITE_TIMEOUT))
            .is_err()
    {
        return false;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // Bound the line buffer: a client streaming an endless "line" gets
        // an ERR and a dropped connection instead of unbounded memory.
        let read = match reader.by_ref().take(MAX_LINE_BYTES).read_line(&mut line) {
            Ok(0) | Err(_) => return false, // EOF, timeout, or broken pipe
            Ok(n) => n,
        };
        if read as u64 >= MAX_LINE_BYTES && !line.ends_with('\n') {
            let _ = writer.write_all(
                protocol::render_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes"))
                    .as_bytes(),
            );
            return false;
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_request(&line) {
            Err(reason) => protocol::render_error(&reason),
            Ok(Request::Submit {
                query,
                priority,
                budget,
                range,
                deadline,
                tenant,
                explain,
            }) => match protocol::submit_to_request(&query, budget, range, deadline) {
                Err(reason) => protocol::render_error(&reason),
                Ok(request) if explain => {
                    protocol::render_submit(&handle.submit_explain(request, priority))
                }
                Ok(request) => protocol::render_submit(&handle.submit_tagged(
                    request,
                    priority,
                    tenant.as_deref(),
                )),
            },
            Ok(Request::Poll(id)) => protocol::render_status(handle.poll(id).as_ref()),
            // Block until the job settles (bounded so a wedged job cannot
            // pin this thread forever), then render the state it settled
            // into from what the wait handed over (or `unknown job` for an
            // id never issued), without a second copy of the output.
            Ok(Request::Wait(id)) => match handle.wait_timeout(id, WAIT_TIMEOUT) {
                Ok(output) => protocol::render_status(Some(&JobStatus::Done(output))),
                Err(WaitError::Failed(reason)) => {
                    protocol::render_status(Some(&JobStatus::Failed(reason)))
                }
                Err(WaitError::Cancelled) => protocol::render_status(Some(&JobStatus::Cancelled)),
                Err(WaitError::Unknown) => protocol::render_status(None),
                Err(WaitError::TimedOut) => {
                    protocol::render_error("wait timed out; job still queued or running")
                }
            },
            Ok(Request::Cancel(id)) => protocol::render_cancel(handle.cancel(id)),
            Ok(Request::Scrub) => protocol::render_submit(&handle.submit_scrub()),
            Ok(Request::Stats) => protocol::render_stats(
                &handle.stats(),
                &handle.tenant_stats(),
                &handle.shard_stats(),
            ),
            Ok(Request::Quit) => {
                let _ = writer.write_all(protocol::render_bye().as_bytes());
                return false;
            }
            Ok(Request::Shutdown) => {
                stopping.store(true, Ordering::SeqCst);
                let _ = writer.write_all(protocol::render_bye().as_bytes());
                return true;
            }
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Priority, Service, ServiceConfig};
    use mithrilog::{MithriLog, SystemConfig};

    /// Reads one dot-terminated response.
    fn read_response(reader: &mut BufReader<TcpStream>) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end_matches('\n').to_string();
            if line == protocol::TERMINATOR {
                return lines;
            }
            lines.push(line);
        }
    }

    #[test]
    fn tcp_roundtrip_submit_wait_stats_shutdown() {
        let mut system = MithriLog::new(SystemConfig::for_tests());
        system
            .ingest(b"RAS KERNEL FATAL data storage interrupt\nRAS KERNEL INFO ok\n")
            .unwrap();
        let service = Service::spawn(system, ServiceConfig::default());
        let handle = service.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, &handle).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer.write_all(b"SUBMIT pri=high q=FATAL\n").unwrap();
        let response = read_response(&mut reader);
        assert_eq!(response, vec!["OK id=0"]);

        writer.write_all(b"WAIT 0\n").unwrap();
        let response = read_response(&mut reader);
        assert!(
            response[0].starts_with("OK done kind=query lines=1"),
            "{response:?}"
        );
        assert_eq!(response[1], "L RAS KERNEL FATAL data storage interrupt");

        writer.write_all(b"POLL 99\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["ERR unknown job"]);

        writer.write_all(b"CANCEL 0\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK too-late"]);

        writer.write_all(b"STATS\n").unwrap();
        let stats = read_response(&mut reader);
        assert_eq!(stats[0], "OK stats");
        assert!(stats.contains(&"completed=1".to_string()), "{stats:?}");

        writer.write_all(b"NOT-A-VERB\n").unwrap();
        assert!(read_response(&mut reader)[0].starts_with("ERR "));

        writer.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK bye"]);
        server.join().unwrap();
        service.shutdown();

        // Further submissions are refused by the closed service.
        let service_handle_closed = Service::spawn(
            MithriLog::new(SystemConfig::for_tests()),
            ServiceConfig::default(),
        );
        let h = service_handle_closed.handle();
        service_handle_closed.shutdown();
        assert!(h.submit_str("x", Priority::Normal).is_err());
    }

    #[test]
    fn wait_replies_are_byte_identical_to_rendering_a_poll() {
        let mut system = MithriLog::new(SystemConfig::for_tests());
        system
            .ingest(b"RAS KERNEL FATAL data storage interrupt\nRAS KERNEL INFO ok\n")
            .unwrap();
        let service = Service::spawn(system, ServiceConfig::default());
        let handle = service.handle();
        let done = handle.submit_str("FATAL", Priority::High).unwrap();
        handle.wait(done).unwrap();
        // A query that already finished cannot be cancelled: submit until a
        // cancel lands while one is still queued or running.
        let doomed = (0..32)
            .map(|_| handle.submit_str("FATAL", Priority::Low).unwrap())
            .find(|&id| handle.cancel(id))
            .expect("a submission is cancelled before it finishes");
        let unknown = 9999;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_handle = handle.clone();
        let server = std::thread::spawn(move || serve(listener, &server_handle).unwrap());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for (id, first) in [
            (done, "OK done kind=query lines=1 "),
            (doomed, "OK cancelled\n"),
            (unknown, "ERR unknown job\n"),
        ] {
            writer.write_all(format!("WAIT {id}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            while !reply.ends_with(&format!("\n{}\n", protocol::TERMINATOR)) {
                reader.read_line(&mut reply).unwrap();
            }
            assert!(reply.starts_with(first), "{reply:?}");
            assert_eq!(reply, protocol::render_status(handle.poll(id).as_ref()));
        }
        writer.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK bye"]);
        server.join().unwrap();
        service.shutdown();
    }

    #[test]
    fn sharded_backend_serves_tenants_over_tcp() {
        use mithrilog_shard::{RouteMode, ShardOptions, ShardedLog};
        let mut sharded = ShardedLog::new(
            SystemConfig::for_tests(),
            ShardOptions {
                shards: 2,
                mode: RouteMode::LineHash,
                salt: 0x5eed,
            },
        );
        let corpus: String = (0..32)
            .map(|i| format!("node-{i:04} RAS KERNEL FATAL data storage interrupt\n"))
            .collect();
        sharded.ingest(corpus.as_bytes()).unwrap();
        let service = Service::spawn(sharded, ServiceConfig::default());
        let handle = service.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, &handle).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer.write_all(b"SUBMIT tenant=acme q=FATAL\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK id=0"]);
        writer.write_all(b"WAIT 0\n").unwrap();
        let done = read_response(&mut reader);
        assert!(
            done[0].starts_with("OK done kind=query lines=32"),
            "{done:?}"
        );

        writer.write_all(b"STATS\n").unwrap();
        let stats = read_response(&mut reader);
        assert!(stats.contains(&"shards=2".to_string()), "{stats:?}");
        assert!(
            stats.iter().any(|l| l.starts_with("shard.0.lines=")),
            "{stats:?}"
        );
        assert!(
            stats.iter().any(|l| l.starts_with("shard.1.lines=")),
            "{stats:?}"
        );
        assert!(
            stats.contains(&"tenant.acme.completed=1".to_string()),
            "{stats:?}"
        );
        assert!(
            stats.contains(&"tenant.acme.lines_returned=32".to_string()),
            "{stats:?}"
        );

        writer.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK bye"]);
        server.join().unwrap();
        service.shutdown();
    }

    #[test]
    fn typoed_requests_fail_loudly_and_the_connection_survives() {
        let mut system = MithriLog::new(SystemConfig::for_tests());
        system
            .ingest(b"RAS KERNEL FATAL data storage interrupt\nRAS KERNEL INFO ok\n")
            .unwrap();
        let service = Service::spawn(system, ServiceConfig::default());
        let handle = service.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, &handle).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // The fat-fingered deadline key must never silently submit the
        // query without its deadline.
        writer.write_all(b"SUBMIT dedline=2500 q=FATAL\n").unwrap();
        let response = read_response(&mut reader);
        assert!(response[0].starts_with("ERR "), "{response:?}");
        assert!(response[0].contains("unknown field"), "{response:?}");
        assert!(response[0].contains("dedline"), "{response:?}");

        // Argument-less verbs reject trailing text instead of guessing.
        for line in ["SCRUB now\n", "STATS -v\n", "SHUTDOWN 5\n"] {
            writer.write_all(line.as_bytes()).unwrap();
            let response = read_response(&mut reader);
            assert!(response[0].starts_with("ERR "), "{line:?}: {response:?}");
            assert!(
                response[0].contains("takes no arguments"),
                "{line:?}: {response:?}"
            );
        }

        // A parse error costs nothing but the request: the same connection
        // still serves well-formed traffic, and no job was ever admitted.
        writer.write_all(b"SUBMIT deadline=2500 q=FATAL\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK id=0"]);
        writer.write_all(b"STATS\n").unwrap();
        let stats = read_response(&mut reader);
        assert!(stats.contains(&"submitted=1".to_string()), "{stats:?}");

        writer.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK bye"]);
        server.join().unwrap();
        service.shutdown();
    }

    #[test]
    fn hostile_connections_lose_only_themselves() {
        let mut system = MithriLog::new(SystemConfig::for_tests());
        system
            .ingest(b"RAS KERNEL FATAL data storage interrupt\nRAS KERNEL INFO ok\n")
            .unwrap();
        let service = Service::spawn(system, ServiceConfig::default());
        let handle = service.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, &handle).unwrap());

        // A client streaming an endless line gets an ERR and is dropped —
        // the server does not buffer without bound.
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let payload = vec![b'x'; MAX_LINE_BYTES as usize + 1024];
            let _ = writer.write_all(&payload); // may fail once dropped
            let _ = writer.flush();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {} // connection reset before we could read
                Ok(_) => assert!(line.starts_with("ERR "), "{line:?}"),
            }
        }

        // A well-behaved connection still works afterwards: the service
        // survived, and the new verbs round-trip.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"SUBMIT deadline=0 q=FATAL\n").unwrap();
        let response = read_response(&mut reader);
        assert_eq!(response, vec!["OK id=0"]);
        writer.write_all(b"WAIT 0\n").unwrap();
        let done = read_response(&mut reader);
        // A zero deadline clips the whole plan: well-formed, degraded, empty.
        assert!(done[0].contains("degraded=true"), "{done:?}");
        assert!(done[0].contains("lines=0"), "{done:?}");
        writer.write_all(b"SCRUB\n").unwrap();
        let response = read_response(&mut reader);
        assert_eq!(response, vec!["OK id=1"]);
        writer.write_all(b"WAIT 1\n").unwrap();
        let scrubbed = read_response(&mut reader);
        assert!(
            scrubbed[0].starts_with("OK done kind=scrub"),
            "{scrubbed:?}"
        );
        writer.write_all(b"STATS\n").unwrap();
        let stats = read_response(&mut reader);
        assert!(
            stats.iter().any(|l| l.starts_with("pages_scrubbed=")),
            "{stats:?}"
        );
        writer.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_response(&mut reader), vec!["OK bye"]);
        server.join().unwrap();
        service.shutdown();
    }
}
