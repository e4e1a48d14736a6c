//! Deterministic chaos / fault-injection suite for the event-driven
//! front end (ISSUE satellite).
//!
//! Every scenario runs against a real [`Server`] under a watchdog, and
//! every scenario ends by checking the books from
//! [`Server::shutdown`]: `accepted == completed + shed`
//! (no accepted job is ever left unanswered, even when its client is
//! long gone), and the engine's own `submitted == answered + shed`.
//!
//! Faults injected: slow-loris byte drips, half-closed sockets,
//! mid-job disconnects, oversized frames, and a seeded flaky-client
//! driver mixing all of them (unix-only: the sharded poll loop is).
#![cfg(unix)]

use fp_netlist::generator::ProblemGenerator;
use fp_serve::{JobRequest, JobResponse, ServeConfig, Server, ShutdownReport};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread, panicking if it outlives the watchdog —
/// a stuck drain or a lost response fails instead of hanging the suite.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("chaos scenario did not settle before the watchdog")
}

/// Single shard keeps counter assertions exact; tiny node budget keeps
/// each solve fast.
fn chaos_config() -> ServeConfig {
    ServeConfig::default().with_shards(1).with_node_limit(500)
}

fn request_line(id: u64, modules: usize, seed: u64) -> String {
    let nl = ProblemGenerator::new(modules, seed).generate();
    JobRequest::new(id, &nl).with_cache(false).encode()
}

fn read_response(stream: &TcpStream) -> JobResponse {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    JobResponse::decode(line.trim_end()).expect("decode response")
}

/// Checks the post-drain invariants every scenario must uphold.
fn assert_books_balance(report: &ShutdownReport) {
    let acc = &report.accounting;
    assert_eq!(
        acc.accepted,
        acc.completed + acc.shed,
        "front end leaked accepted jobs: {acc:?}"
    );
    let eng = &report.engine;
    assert_eq!(
        eng.submitted,
        eng.answered + eng.shed,
        "engine leaked submitted jobs: {eng:?}"
    );
}

/// A slow-loris client drips a valid request a few bytes at a time
/// across many poll rounds; the frame decoder must reassemble it and
/// answer. A second loris drips half a line and vanishes; nothing may
/// be accepted for it and nothing may leak.
#[test]
fn slow_loris_partial_frames_are_reassembled_then_dropped_midline_is_not_leaked() {
    let report = with_watchdog(|| {
        let server = Server::bind("127.0.0.1:0", chaos_config().with_workers(1)).unwrap();
        let addr = server.local_addr();

        let mut whole = TcpStream::connect(addr).unwrap();
        let line = request_line(7, 3, 11) + "\n";
        for chunk in line.as_bytes().chunks(5) {
            whole.write_all(chunk).unwrap();
            whole.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let resp = read_response(&whole);
        assert!(resp.ok, "dripped request failed: {}", resp.error);
        assert_eq!(resp.id, 7);
        drop(whole);

        let mut half = TcpStream::connect(addr).unwrap();
        let partial = &line.as_bytes()[..line.len() / 2];
        for chunk in partial.chunks(5) {
            half.write_all(chunk).unwrap();
            half.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(half); // mid-line disconnect: never became a request

        server.shutdown()
    });
    assert_books_balance(&report);
    assert_eq!(report.accounting.conns, 2);
    assert_eq!(
        report.accounting.accepted, 1,
        "half a line is not a request"
    );
    assert_eq!(report.accounting.completed, 1);
    assert_eq!(report.accounting.malformed, 0);
}

/// A client that sends its request and immediately half-closes the
/// write side (shutdown(SHUT_WR)) must still receive its answer — EOF
/// on read is "no more requests", not "hang up".
#[test]
fn half_closed_socket_still_receives_its_response() {
    let report = with_watchdog(|| {
        let server = Server::bind("127.0.0.1:0", chaos_config().with_workers(1)).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        writeln!(stream, "{}", request_line(3, 3, 5)).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();

        let resp = read_response(&stream);
        assert!(
            resp.ok,
            "half-closed client lost its answer: {}",
            resp.error
        );
        assert_eq!(resp.id, 3);
        // After the answer the server closes its side too: clean EOF.
        let mut rest = Vec::new();
        let n = (&stream).read_to_end(&mut rest).unwrap();
        assert_eq!(n, 0, "unexpected trailing bytes: {rest:?}");

        server.shutdown()
    });
    assert_books_balance(&report);
    assert_eq!(report.accounting.accepted, 1);
    assert_eq!(report.accounting.completed, 1);
}

/// A client that disconnects while its job is still being solved: the
/// job must still complete internally (the books count it answered),
/// and the dead connection must not wedge the drain.
#[test]
fn mid_job_disconnect_is_answered_into_the_void() {
    let report = with_watchdog(|| {
        // One worker, and a blocker occupying it, guarantees the
        // doomed job is still queued when its client vanishes.
        let server = Server::bind("127.0.0.1:0", chaos_config().with_workers(1)).unwrap();
        let addr = server.local_addr();

        let mut blocker = TcpStream::connect(addr).unwrap();
        writeln!(blocker, "{}", request_line(1, 6, 99)).unwrap();

        let mut doomed = TcpStream::connect(addr).unwrap();
        writeln!(doomed, "{}", request_line(2, 4, 13)).unwrap();
        // Give the shard a moment to decode the line before the
        // disconnect (the bytes are already in the socket either way).
        std::thread::sleep(Duration::from_millis(50));
        drop(doomed);

        let resp = read_response(&blocker);
        assert!(resp.ok);
        drop(blocker);

        server.shutdown()
    });
    assert_books_balance(&report);
    assert_eq!(report.accounting.accepted, 2);
    assert_eq!(
        report.accounting.completed, 2,
        "the disconnected client's job must still be answered"
    );
    assert_eq!(report.engine.submitted, 2);
}

/// A frame longer than `max_line_bytes` with no newline gets one typed
/// failure naming the limit, then the connection is closed; the line is
/// counted malformed, not accepted.
#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    const MAX_LINE: usize = 4096;
    let report = with_watchdog(|| {
        let config = chaos_config().with_workers(1).with_max_line_bytes(MAX_LINE);
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&vec![b'x'; MAX_LINE + 1024]).unwrap();
        stream.flush().unwrap();

        let resp = read_response(&stream);
        assert!(!resp.ok);
        assert!(
            resp.error.contains(&format!("{MAX_LINE} bytes")),
            "error must name the frame limit: {}",
            resp.error
        );
        // The server hangs up after the rejection instead of buffering
        // an unbounded garbage stream.
        let mut rest = Vec::new();
        let n = (&stream).read_to_end(&mut rest).unwrap();
        assert_eq!(n, 0);

        server.shutdown()
    });
    assert_books_balance(&report);
    assert_eq!(report.accounting.accepted, 0);
    assert_eq!(report.accounting.malformed, 1);
}

/// A request that fills most of the default 1 MiB frame must not stall
/// its shard: the shard reads the line in one pass, so the request's
/// `bad netlist` answer and a one-module job sent behind it on another
/// connection both come back within seconds. A reader quadratic in the
/// line's length would hold the poll thread, and every connection of the
/// shard, for tens of seconds.
#[test]
fn a_request_at_the_frame_limit_does_not_stall_its_shard() {
    const LIMIT: Duration = Duration::from_secs(5);
    let (report, big_after, small_after) = with_watchdog(|| {
        let server = Server::bind("127.0.0.1:0", chaos_config().with_workers(1)).unwrap();
        let addr = server.local_addr();
        // About 1,000,000 bytes of netlist text whose first line is not a
        // directive, so the netlist parser refuses it at once.
        let deck = "module m rigid 1 1 rot\n".repeat(43_000);
        let mut big = JobRequest::new(1, &ProblemGenerator::new(1, 1).generate()).with_cache(false);
        big.netlist = format!("bogus line\n{deck}");
        let big = big.encode() + "\n";
        assert!(
            big.len() > 1_000_000 && big.len() < 1 << 20,
            "{}",
            big.len()
        );

        let started = std::time::Instant::now();
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(big.as_bytes()).unwrap();
        let mut second = TcpStream::connect(addr).unwrap();
        writeln!(second, "{}", request_line(2, 1, 5)).unwrap();

        let resp = read_response(&first);
        let big_after = started.elapsed();
        assert!(
            !resp.ok && resp.error.contains("bad netlist"),
            "{}",
            resp.error
        );
        assert_eq!(resp.id, 1);
        let resp = read_response(&second);
        let small_after = started.elapsed();
        assert!(resp.ok, "the one-module job failed: {}", resp.error);
        assert_eq!(resp.id, 2);
        (server.shutdown(), big_after, small_after)
    });
    assert!(big_after < LIMIT, "the large request took {big_after:?}");
    assert!(
        small_after < LIMIT,
        "the job behind it took {small_after:?}"
    );
    assert_books_balance(&report);
    assert_eq!(report.accounting.accepted, 2);
    assert_eq!(report.accounting.completed, 2);
    assert_eq!(report.accounting.malformed, 0);
}

/// The seeded flaky-client driver: a reproducible mix of well-behaved,
/// malformed, truncated, fire-and-forget, and half-closing clients.
/// However the dice land, the books must balance and shutdown must
/// drain cleanly under the watchdog.
#[test]
fn seeded_flaky_client_swarm_keeps_the_books_balanced() {
    let (report, expect_accepted, expect_malformed, conns) = with_watchdog(|| {
        let server = Server::bind("127.0.0.1:0", chaos_config().with_workers(2)).unwrap();
        let addr = server.local_addr();
        let mut rng = StdRng::seed_from_u64(0xC4A05);

        let conns = 24u64;
        let mut expect_accepted = 0u64;
        let mut expect_malformed = 0u64;
        for i in 0..conns {
            let mut stream = TcpStream::connect(addr).unwrap();
            match rng.gen_range(0..5) {
                0 => {
                    // Well-behaved request/response.
                    writeln!(stream, "{}", request_line(i, 3, i)).unwrap();
                    expect_accepted += 1;
                    let resp = read_response(&stream);
                    assert_eq!(resp.id, i);
                }
                1 => {
                    // Malformed line: answered in place, not accepted.
                    writeln!(stream, "job this is not").unwrap();
                    expect_malformed += 1;
                    let resp = read_response(&stream);
                    assert!(!resp.ok);
                    assert!(resp.error.contains("bad request"));
                }
                2 => {
                    // Truncated line, then vanish: never a request.
                    let line = request_line(i, 3, i);
                    let cut = rng.gen_range(1..line.len());
                    stream.write_all(&line.as_bytes()[..cut]).unwrap();
                }
                3 => {
                    // Fire and forget: full request, never reads, gone.
                    // The bytes are on the wire, so it is accepted and
                    // must be answered into the void.
                    writeln!(stream, "{}", request_line(i, 3, i)).unwrap();
                    expect_accepted += 1;
                }
                _ => {
                    // Half-close, then collect the answer.
                    writeln!(stream, "{}", request_line(i, 3, i)).unwrap();
                    stream.shutdown(Shutdown::Write).unwrap();
                    expect_accepted += 1;
                    let resp = read_response(&stream);
                    assert_eq!(resp.id, i);
                }
            }
        }

        // The acceptor->shard handoff is asynchronous and a draining
        // shard refuses adoption, so shutting down right after the last
        // client action can race the final connections out of the books.
        // With one shard the inbox is FIFO: a full roundtrip on a
        // connection opened *after* the swarm guarantees every earlier
        // connection was adopted and every earlier line decoded first.
        let mut sentinel = TcpStream::connect(addr).unwrap();
        writeln!(sentinel, "{}", request_line(9000, 3, 7)).unwrap();
        expect_accepted += 1;
        let resp = read_response(&sentinel);
        assert_eq!(resp.id, 9000);
        drop(sentinel);

        (
            server.shutdown(),
            expect_accepted,
            expect_malformed,
            conns + 1,
        )
    });
    assert_books_balance(&report);
    assert_eq!(report.accounting.conns, conns);
    assert_eq!(report.accounting.accepted, expect_accepted);
    assert_eq!(report.accounting.malformed, expect_malformed);
    assert_eq!(
        report.accounting.completed + report.accounting.shed,
        expect_accepted,
        "every accepted job answered, present client or not"
    );
}
