//! Load-shed regression test (ISSUE satellite): open-loop arrivals at
//! roughly 2× service capacity against a deliberately small admission
//! budget must produce typed `retry_after_ms` sheds — not timeouts, not
//! hangs — while the jobs that ARE admitted finish within a sane p99.
#![cfg(unix)]

use fp_netlist::generator::ProblemGenerator;
use fp_serve::{JobRequest, JobResponse, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(120);
/// Generous per-job completion budget for the admitted jobs: with the
/// admission bound at 4 unanswered jobs and ms-scale solves, even a
/// slow single-core CI box sits far inside this.
const P99_BUDGET: Duration = Duration::from_secs(10);

fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("load-shed scenario did not settle before the watchdog")
}

fn request_line(id: u64, seed: u64) -> String {
    let nl = ProblemGenerator::new(4, seed).generate();
    JobRequest::new(id, &nl).with_cache(false).encode()
}

#[test]
fn open_loop_overload_sheds_with_typed_backoff_and_bounded_p99() {
    let (responses, latencies, report) = with_watchdog(|| {
        // Tiny admission budget: 1 worker, queue of 2, at most 4
        // unanswered jobs per shard. Overload has to shed, not queue.
        let config = ServeConfig::default()
            .with_shards(1)
            .with_workers(1)
            .with_queue_capacity(2)
            .with_per_shard_pending(4)
            .with_node_limit(500)
            .with_cache_capacity(0);
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        // Calibrate: how long does one solve of this shape take here?
        let service = {
            let mut warm = TcpStream::connect(addr).unwrap();
            let t0 = Instant::now();
            writeln!(warm, "{}", request_line(9999, 1)).unwrap();
            let mut line = String::new();
            BufReader::new(&warm).read_line(&mut line).unwrap();
            assert!(JobResponse::decode(line.trim_end()).unwrap().ok);
            t0.elapsed()
        };

        // Open loop at ~2× capacity: send every service/2, never wait
        // for a response before the next send. A reader thread collects
        // answers (sheds come back out of order, long before solves).
        let n = 40u64;
        let stream = TcpStream::connect(addr).unwrap();
        let reader = {
            let stream = stream.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut reader = BufReader::new(stream);
                while got.len() < n as usize {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        break;
                    }
                    got.push((
                        JobResponse::decode(line.trim_end()).expect("decode"),
                        Instant::now(),
                    ));
                }
                got
            })
        };
        let gap = (service / 2).max(Duration::from_micros(200));
        let mut sent = HashMap::new();
        let mut stream = stream;
        for id in 0..n {
            writeln!(stream, "{}", request_line(id, id)).unwrap();
            sent.insert(id, Instant::now());
            std::thread::sleep(gap);
        }
        let got = reader.join().unwrap();
        assert_eq!(got.len(), n as usize, "every open-loop job answered");
        let latencies: Vec<Duration> = got
            .iter()
            .filter(|(r, _)| r.ok)
            .map(|(r, at)| at.duration_since(sent[&r.id]))
            .collect();
        (got, latencies, server.shutdown())
    });

    // Every response is either a real answer or a typed shed; overload
    // never surfaces as a timeout or a silent drop.
    let mut ok = 0u64;
    let mut shed = 0u64;
    for (resp, _) in &responses {
        if resp.ok {
            ok += 1;
        } else {
            assert!(resp.is_shed(), "unexpected failure: {}", resp.error);
            assert!(
                (1..=30_000).contains(&resp.retry_after_ms),
                "shed must carry a sane typed backoff, got {}ms",
                resp.retry_after_ms
            );
            shed += 1;
        }
    }
    assert!(shed >= 1, "2x overload with queue=2 must shed something");
    assert!(ok >= 1, "admission must still let some jobs through");

    // p99 (here: max, n < 100) of the admitted jobs stays in budget —
    // shedding keeps queueing delay bounded instead of unbounded.
    let worst = latencies.iter().max().copied().unwrap_or_default();
    assert!(
        worst <= P99_BUDGET,
        "p99 of accepted jobs blew the budget: {worst:?}"
    );

    let acc = report.accounting;
    assert_eq!(acc.accepted, acc.completed + acc.shed);
    assert_eq!(acc.accepted, 41, "warmup + 40 open-loop requests");
    assert_eq!(acc.shed, shed);
}
