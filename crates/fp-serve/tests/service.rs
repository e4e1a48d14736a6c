//! Service-level concurrency tests: response accounting under many
//! producers, deadline degradation, cache semantics, clean shutdown, and
//! the TCP front end. Every potentially-blocking scenario runs under a
//! watchdog (the idiom of fp-milp's `limits` suite) so a stuck queue or a
//! lost response fails the test instead of hanging the suite.

use fp_core::{Floorplan, FloorplanConfig, Floorplanner};
use fp_milp::SolveOptions;
use fp_netlist::generator::ProblemGenerator;
use fp_netlist::{Module, Net, Netlist};
use fp_obs::{Collector, Event, Tracer};
use fp_serve::{
    Engine, JobRequest, JobResponse, ServeConfig, Server, MAX_MODULES, MAX_NET_MEMBERS,
};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread, panicking if it outlives the watchdog.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("service did not settle before the watchdog")
}

fn tiny_config() -> ServeConfig {
    // Small node budget keeps each job fast; the instances below are tiny.
    ServeConfig::default().with_node_limit(500)
}

#[test]
fn many_producers_zero_lost_or_duplicated_responses() {
    let (all, expected) = with_watchdog(|| {
        let engine = Engine::start(tiny_config().with_workers(3).with_cache_capacity(0));
        let producers = 4usize;
        let jobs_each = 8usize;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let client = engine.client();
                std::thread::spawn(move || {
                    // Interleave a couple of distinct instances per producer
                    // so different jobs take different amounts of work.
                    let receivers: Vec<_> = (0..jobs_each)
                        .map(|j| {
                            let id = (p * jobs_each + j) as u64;
                            let nl = ProblemGenerator::new(3 + (j % 3), 7 + p as u64).generate();
                            client.submit(JobRequest::new(id, &nl))
                        })
                        .collect();
                    receivers
                        .into_iter()
                        .map(|rx| rx.recv().expect("response lost"))
                        .collect::<Vec<JobResponse>>()
                })
            })
            .collect();
        let all: Vec<JobResponse> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("producer panicked"))
            .collect();
        engine.shutdown();
        (all, producers * jobs_each)
    });

    assert_eq!(all.len(), expected, "every job answered exactly once");
    let ids: HashSet<u64> = all.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), expected, "no duplicated or misrouted ids");
    for resp in &all {
        assert!(resp.ok, "job {} failed: {}", resp.id, resp.error);
        assert!(!resp.placement.is_empty());
    }
}

#[test]
fn expired_deadline_returns_degraded_greedy_placement() {
    let resp = with_watchdog(|| {
        let engine = Engine::start(tiny_config().with_workers(1).with_cache_capacity(0));
        let nl = ProblemGenerator::new(8, 3).generate();
        // A 1 ms budget is gone before the first MILP can finish, so the
        // ladder must fall through to the greedy skyline placement.
        let resp = engine
            .client()
            .call(JobRequest::new(1, &nl).with_deadline_ms(1));
        engine.shutdown();
        resp
    });
    assert!(resp.ok, "degradation must not be an error: {}", resp.error);
    assert!(resp.degraded, "a blown deadline must be flagged");
    let rects = resp.placement_entries().expect("placement parses");
    assert_eq!(rects.len(), 8, "every module is placed");
    // The greedy placement is still a real placement: on-chip and disjoint.
    for r in &rects {
        assert!(r.x >= -1e-9 && r.y >= -1e-9);
        assert!(r.x + r.w <= resp.chip_width + 1e-9);
    }
    for (i, a) in rects.iter().enumerate() {
        for b in rects.iter().skip(i + 1) {
            let overlap_w = (a.x + a.w).min(b.x + b.w) - a.x.max(b.x);
            let overlap_h = (a.y + a.h).min(b.y + b.h) - a.y.max(b.y);
            assert!(
                overlap_w <= 1e-6 || overlap_h <= 1e-6,
                "{} and {} overlap",
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn huge_deadline_does_not_kill_workers() {
    let responses = with_watchdog(|| {
        let server = Server::bind(
            "127.0.0.1:0",
            tiny_config().with_workers(1).with_cache_capacity(0),
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let nl = ProblemGenerator::new(3, 5).generate();

        // `1e30` ms parses as a number and saturates to u64::MAX; it used
        // to overflow `Instant + Duration` and panic the (sole) worker,
        // after which every later job queued forever. Now it must be
        // served as an ordinary no-deadline job, and the worker must
        // still be alive for the follow-up.
        let evil = JobRequest::new(1, &nl)
            .encode()
            .replace("\"deadline_ms\":0", "\"deadline_ms\":1e30");
        assert!(evil.contains("1e30"), "evil line built as intended");
        writeln!(stream, "{evil}").unwrap();
        writeln!(stream, "{}", JobRequest::new(2, &nl).encode()).unwrap();
        let responses: Vec<JobResponse> = (0..2)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read line");
                JobResponse::decode(line.trim_end()).expect("decode response")
            })
            .collect();
        server.shutdown();
        responses
    });
    assert_eq!(responses.len(), 2);
    for resp in &responses {
        assert!(resp.ok, "job {}: {}", resp.id, resp.error);
        assert!(!resp.placement.is_empty());
    }
}

/// TCP twin of `prop_singleflight`'s in-process fan-out test. A blocker
/// holds the single worker, so the first of K identical jobs, each sent
/// over its own connection, stays queued while the rest arrive and join
/// its flight: K−1 answers come back coalesced, whatever the host's speed.
#[test]
fn tcp_duplicates_join_a_queued_leader() {
    const K: usize = 6;
    let collector = Collector::new();
    let tracer = Tracer::new(collector.clone());
    let (responses, coalesced_events) = with_watchdog(move || {
        let config = ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(0)
            .with_tracer(tracer);
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
        let addr = server.local_addr();
        let send = |req: JobRequest| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "{}", req.encode()).expect("send");
            BufReader::new(stream)
        };
        let answer = |mut reader: BufReader<TcpStream>| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read line");
            JobResponse::decode(line.trim_end()).expect("decode response")
        };

        // The worker takes the blocker up (its cache lookup misses) and
        // spends far longer on ami33 than the duplicates take to arrive.
        let blocker = send(JobRequest::new(1000, &fp_netlist::ami33()));
        while collector.count_of(|e| matches!(e, Event::CacheMiss { .. })) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let nl = ProblemGenerator::new(5, 7).generate();
        let readers: Vec<_> = (0..K)
            .map(|i| send(JobRequest::new(i as u64, &nl)))
            .collect();
        assert!(answer(blocker).ok);
        let responses: Vec<JobResponse> = readers.into_iter().map(answer).collect();
        server.shutdown();
        (
            responses,
            collector.count_of(|e| matches!(e, Event::Coalesced { .. })),
        )
    });

    for resp in &responses {
        assert!(resp.ok, "job {}: {}", resp.id, resp.error);
    }
    let coalesced = responses.iter().filter(|r| r.coalesced).count();
    assert_eq!(coalesced, K - 1, "one leader and K-1 coalesced followers");
    assert_eq!(coalesced_events, K - 1, "one Coalesced event per follower");
}

#[test]
fn cache_answers_second_identical_job() {
    let collector = Collector::new();
    let tracer = Tracer::new(collector.clone());
    let (first, second, stats, solver, strengthen) = with_watchdog(move || {
        let engine = Engine::start(tiny_config().with_workers(2).with_tracer(tracer.clone()));
        let client = engine.client();
        let nl = ProblemGenerator::new(5, 21).generate();
        let first = client.call(JobRequest::new(1, &nl));
        let after_first = engine.strengthening_stats();
        let second = client.call(JobRequest::new(2, &nl));
        let stats = engine.cache_stats();
        let solver = engine.solver_stats();
        let strengthen = (after_first, engine.strengthening_stats());
        engine.shutdown();
        (first, second, stats, solver, strengthen)
    });

    assert!(first.ok && second.ok);
    assert!(!first.cached, "first sight of an instance cannot hit");
    assert!(second.cached, "identical repeat must be served from cache");
    assert_eq!(second.id, 2, "cached answers carry the new job id");
    assert_eq!(first.placement, second.placement);
    assert_eq!(first.area, second.area);
    assert_eq!(stats, (1, 1));
    let counts = (
        collector.count_of(|e| matches!(e, Event::CacheMiss { .. })),
        collector.count_of(|e| matches!(e, Event::CacheHit { .. })),
    );
    assert_eq!(counts, (1, 1), "trace events mirror the counters");
    // Exactly one job actually solved (the second came from the cache),
    // and every solve roots at a cold node.
    let (warm, cold) = solver;
    assert!(
        cold >= 1,
        "the uncached job must have run at least one cold (root) node, got ({warm}, {cold})"
    );
    // Strengthening counters accumulate only on real solves: the cached
    // second job must not move them.
    let (after_first, after_second) = strengthen;
    assert_eq!(
        after_first, after_second,
        "a cache hit must not touch the strengthening counters"
    );
}

/// The placement text of `floorplan` as the engine encodes it.
fn placement_text(floorplan: &Floorplan, netlist: &Netlist) -> String {
    floorplan
        .iter()
        .map(|m| {
            let r = m.rect;
            let name = netlist.module(m.id).name();
            format!(
                "{name} {} {} {} {} {}",
                r.x,
                r.y,
                r.w,
                r.h,
                u8::from(m.rotated)
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// One instance, one answer: the engine seeds nothing across jobs, so a
/// repeated uncached request gets the same placement, and its answer is
/// the flow's own at the engine's step options. The decks are ones whose
/// answers depend on where each augmentation step's root LP starts.
#[test]
fn engine_answers_each_instance_as_the_flow_does() {
    // Only node limits may end a search, so every answer repeats.
    let time_limit = Duration::from_secs(24 * 3600);
    let config = ServeConfig {
        time_limit,
        ..ServeConfig::default()
    }
    .with_workers(1)
    .with_cache_capacity(0);
    assert_eq!(config.improve_rounds, 1);
    let options = SolveOptions::default()
        .with_node_limit(config.node_limit)
        .with_time_limit(time_limit);
    let decks = [(15, 7), (35, 5)];
    let (first, second, served) = with_watchdog(move || {
        let engine = Engine::start(config);
        let client = engine.client();
        let call = |netlist: &Netlist| client.call(JobRequest::new(1, netlist).with_cache(false));
        let repeated = ProblemGenerator::new(20, 4).generate();
        let (first, second) = (call(&repeated), call(&repeated));
        let served: Vec<JobResponse> = decks
            .iter()
            .map(|&(n, seed)| call(&ProblemGenerator::new(n, seed).generate()))
            .collect();
        engine.shutdown();
        (first, second, served)
    });
    for resp in served.iter().chain([&first, &second]) {
        assert!(resp.ok && !resp.degraded, "{resp:?}");
    }
    assert_eq!(
        second.placement, first.placement,
        "a repeat moved the answer"
    );
    assert_eq!(second.area.to_bits(), first.area.to_bits());

    for (&(n, seed), served) in decks.iter().zip(&served) {
        let netlist = ProblemGenerator::new(n, seed).generate();
        let flow = Floorplanner::with_config(
            &netlist,
            FloorplanConfig::default().with_step_options(options.clone()),
        )
        .with_improvement(1, None)
        .run()
        .expect("the flow succeeds");
        assert_eq!(
            served.placement,
            placement_text(&flow.floorplan, &netlist),
            "{n}:{seed}: the engine's placement vs the flow's"
        );
        assert_eq!(served.area.to_bits(), flow.floorplan.chip_area().to_bits());
    }
}

#[test]
fn shutdown_drains_all_inflight_jobs() {
    let responses = with_watchdog(|| {
        let engine = Engine::start(tiny_config().with_workers(2).with_cache_capacity(0));
        let client = engine.client();
        let receivers: Vec<_> = (0..10)
            .map(|i| {
                let nl = ProblemGenerator::new(3 + (i % 2) as usize, 40 + i).generate();
                client.submit(JobRequest::new(i, &nl))
            })
            .collect();
        // Shut down immediately: the queue closes but everything already
        // accepted must still be answered before the workers exit.
        engine.shutdown();
        receivers
            .into_iter()
            .map(|rx| rx.recv().expect("in-flight job dropped on shutdown"))
            .collect::<Vec<_>>()
    });
    assert_eq!(responses.len(), 10);
    for resp in &responses {
        assert!(resp.ok, "job {}: {}", resp.id, resp.error);
    }
}

#[test]
fn submit_after_shutdown_fails_cleanly() {
    let resp = with_watchdog(|| {
        let engine = Engine::start(tiny_config().with_workers(1));
        let client = engine.client();
        engine.shutdown();
        let nl = ProblemGenerator::new(3, 1).generate();
        client.call(JobRequest::new(77, &nl))
    });
    assert!(!resp.ok);
    assert_eq!(resp.id, 77);
    assert!(resp.error.contains("shut down"));
}

/// A module whose area, or the summed module area, overflows f64 is a bad
/// netlist: the job fails at parse time with the offending line, before
/// any cache lookup or solve.
#[test]
fn overflowing_module_area_is_a_bad_netlist() {
    let (answers, cache, solver) = with_watchdog(|| {
        let engine = Engine::start(tiny_config());
        let client = engine.client();
        // The builder API does not check areas; the engine's parser must.
        let answers: Vec<JobResponse> = [[(2.0, 3.0), (1e308, 1e308)], [(1e154, 1e154); 2]]
            .iter()
            .enumerate()
            .map(|(id, sides)| {
                let mut nl = Netlist::new("huge");
                for (k, &(w, h)) in sides.iter().enumerate() {
                    nl.add_module(Module::rigid(format!("m{k}"), w, h, true))
                        .unwrap();
                }
                client.call(JobRequest::new(id as u64, &nl))
            })
            .collect();
        let stats = (engine.cache_stats(), engine.solver_stats());
        engine.shutdown();
        (answers, stats.0, stats.1)
    });
    for resp in &answers {
        assert!(!resp.ok, "{resp:?}");
        assert!(resp.error.starts_with("bad netlist: "), "{}", resp.error);
        // Line 1 names the problem; the second module is on line 3.
        assert!(resp.error.contains("line 3"), "{}", resp.error);
        assert!(resp.error.contains("overflows"), "{}", resp.error);
    }
    assert_eq!(cache, (0, 0), "a job reached the cache");
    assert_eq!(solver, (0, 0), "a job reached the solver");
}

#[test]
fn oversized_instances_are_bad_netlists() {
    let (answers, cache, solver, after) = with_watchdog(|| {
        let engine = Engine::start(tiny_config());
        let client = engine.client();
        let squares = |n: usize| {
            let mut nl = Netlist::new("big");
            for k in 0..n {
                nl.add_module(Module::rigid(format!("m{k}"), 1.0, 1.0, true))
                    .unwrap();
            }
            nl
        };
        // One module over the cap.
        let too_many_modules = JobRequest::new(1, &squares(MAX_MODULES + 1));
        // Three modules, but one net member over the cap.
        let mut wired = squares(3);
        let ids: Vec<_> = wired.module_ids();
        for k in 0..=MAX_NET_MEMBERS / 2 {
            wired
                .add_net(Net::new(format!("n{k}"), [ids[k % 3], ids[(k + 1) % 3]]))
                .unwrap();
        }
        let too_many_members = JobRequest::new(2, &wired);
        // A base at the cap whose delta adds one module.
        let grown = JobRequest::new(3, &squares(MAX_MODULES)).with_eco("mod! extra rigid 1 1 rot");
        // The same base with a 40,000-op delta, about 1 MB: the replay
        // stops at the first op past the cap.
        let flood: Vec<String> = (0..40_000)
            .map(|k| format!("mod! x{k} rigid 1 1 rot"))
            .collect();
        let flooded = JobRequest::new(4, &squares(MAX_MODULES)).with_eco(flood.join("; "));
        // Finite sides whose chip area overflows f64: 1e300 × 1 beside
        // 1 × 1e300, and a base of two unit squares whose delta adds a
        // rotatable 1e300 × 1 module.
        let mut stretched = Netlist::new("stretched");
        stretched
            .add_module(Module::rigid("a", 1e300, 1.0, false))
            .unwrap();
        stretched
            .add_module(Module::rigid("b", 1.0, 1e300, false))
            .unwrap();
        let stretched = JobRequest::new(6, &stretched);
        let stretched_by_delta =
            JobRequest::new(7, &squares(2)).with_eco("mod! a rigid 1e300 1 rot");
        // Finite sides and a finite net weight whose product with the
        // modules' centre distance overflows the wirelength: two 2 × 2
        // modules joined by a net of weight 1e308, sent whole and as a
        // delta on two unit squares.
        let heavy = fp_netlist::format::parse(
            "module a rigid 2 2 fixed\nmodule b rigid 2 2 fixed\nnet n weight 1e308 : a b\n",
        )
        .expect("finite sizes parse");
        let heavy = JobRequest::new(8, &heavy);
        let heavy_by_delta =
            JobRequest::new(9, &squares(2)).with_eco("net! n weight 1e308 : m0 m1");
        // A deadline makes the answer quick even where the cap is missing.
        let answers: Vec<JobResponse> = [
            too_many_modules,
            too_many_members,
            grown,
            flooded,
            stretched,
            stretched_by_delta,
            heavy,
            heavy_by_delta,
        ]
        .into_iter()
        .map(|req| client.call(req.with_deadline_ms(1)))
        .collect();
        let cache = engine.cache_stats();
        let solver = (engine.solver_stats(), engine.propagated_nodes());
        let after = client.call(JobRequest::new(5, &ProblemGenerator::new(4, 9).generate()));
        engine.shutdown();
        (answers, cache, solver, after)
    });
    let caps = [
        format!("cap of {MAX_MODULES}"),
        format!("cap of {MAX_NET_MEMBERS}"),
        format!("cap of {MAX_MODULES}"),
        format!(
            "{} modules exceed the cap of {MAX_MODULES}",
            MAX_MODULES + 1
        ),
        "chip area that overflows f64".to_string(),
        "chip area that overflows f64".to_string(),
        "worst-case wirelength that overflows f64".to_string(),
        "worst-case wirelength that overflows f64".to_string(),
    ];
    assert_eq!(answers.len(), caps.len());
    for (resp, cap) in answers.iter().zip(&caps) {
        assert!(!resp.ok, "{resp:?}");
        assert!(resp.error.starts_with("bad netlist: "), "{}", resp.error);
        assert!(resp.error.contains(cap.as_str()), "{}", resp.error);
    }
    assert_eq!(cache, (0, 0), "an oversized job reached the cache");
    assert_eq!(solver, ((0, 0), 0), "an oversized job reached the solver");
    assert!(after.ok, "{}", after.error);
}

#[test]
fn tcp_round_trip_and_malformed_line() {
    let (responses, stats, inf, after) = with_watchdog(|| {
        let server =
            Server::bind("127.0.0.1:0", tiny_config().with_workers(2)).expect("bind ephemeral");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let nl = ProblemGenerator::new(4, 9).generate();

        // Two good jobs (the second identical → cache hit) plus two bad
        // lines — one schema-bad (valid JSON, missing the netlist, so its
        // id is recoverable) and one syntax-bad (not JSON at all). The
        // connection must survive all four. The first response is awaited
        // before the repeat is sent so the repeat cannot race the cache
        // fill on another worker.
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let read_one = |reader: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read line");
            JobResponse::decode(line.trim_end()).expect("decode response")
        };
        writeln!(stream, "{}", JobRequest::new(1, &nl).encode()).unwrap();
        let mut responses = vec![read_one(&mut reader)];
        writeln!(stream, "{{\"id\":2}}").unwrap();
        writeln!(stream, "this is not json").unwrap();
        writeln!(stream, "{}", JobRequest::new(3, &nl).encode()).unwrap();
        for _ in 0..3 {
            responses.push(read_one(&mut reader));
        }
        // A netlist with an infinite dimension is an ordinary bad-netlist
        // answer, not a panic in the shard that parses it, and the
        // connection still serves a good job after it.
        writeln!(
            stream,
            "{{\"id\":4,\"netlist\":\"module a rigid inf 3 rot\\n\"}}"
        )
        .unwrap();
        let inf = read_one(&mut reader);
        writeln!(stream, "{}", JobRequest::new(5, &nl).encode()).unwrap();
        let after = read_one(&mut reader);
        let stats = server.cache_stats();
        server.shutdown();
        (responses, stats, inf, after)
    });

    assert_eq!((inf.id, inf.ok), (4, false), "{inf:?}");
    assert!(inf.error.contains("bad netlist"), "{}", inf.error);
    assert_eq!((after.id, after.ok), (5, true), "{}", after.error);

    assert_eq!(responses.len(), 4);
    let bad: Vec<_> = responses.iter().filter(|r| !r.ok).collect();
    assert_eq!(bad.len(), 2, "both malformed lines answered with ok:false");
    assert!(bad.iter().any(|r| r.id == 2), "recoverable id echoed");
    assert!(bad.iter().any(|r| r.id == 0), "unrecoverable id reports 0");
    assert!(bad.iter().all(|r| r.error.contains("bad request")));
    let good: Vec<_> = responses.iter().filter(|r| r.ok).collect();
    assert_eq!(good.len(), 2);
    assert!(good.iter().any(|r| r.cached), "repeat served from cache");
    assert_eq!(stats, (2, 1), "jobs 3 and 5 hit the cache job 1 filled");
}

/// The client does not set the size of an error answer: a netlist, an
/// ECO delta or a request number that is one 1,000,000-byte token is
/// answered `ok:false` in a line under 1 KB, whether the engine, the
/// delta parser or the shard's request decoder refused it.
#[test]
fn error_answers_stay_small_whatever_the_client_sends() {
    let token = "x".repeat(1_000_000);
    let nl = ProblemGenerator::new(4, 9).generate();
    let mut bad_netlist = JobRequest::new(1, &nl);
    bad_netlist.netlist.clone_from(&token);
    let requests = [
        bad_netlist.encode(),
        JobRequest::new(2, &nl).with_eco(token.clone()).encode(),
        format!(
            "{{\"id\":3,\"netlist\":\"x\",\"width\":1{}}}",
            "-".repeat(999_999)
        ),
    ];
    let lines = with_watchdog(move || {
        let server = Server::bind("127.0.0.1:0", tiny_config()).expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let lines: Vec<String> = requests
            .iter()
            .map(|request| {
                writeln!(stream, "{request}").unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).expect("read line");
                line
            })
            .collect();
        server.shutdown();
        lines
    });
    for (line, refusal) in lines
        .iter()
        .zip(["bad netlist", "bad delta", "bad request"])
    {
        assert!(
            line.len() < 1024,
            "a {}-byte answer: {line:.200}",
            line.len()
        );
        let resp = JobResponse::decode(line.trim_end()).expect("decode response");
        assert!(
            !resp.ok && resp.error.starts_with(refusal),
            "{}",
            resp.error
        );
        assert!(resp.error.contains("bytes in all"), "{}", resp.error);
    }
}
