//! Event-loop transport tests over real TCP sockets: ordered
//! pipelining, half-close draining, mid-response disconnects under
//! load, wake-up latency, a long request line beside a ping, and a
//! clean shutdown handshake.

use lcmm_serve::{serve_tcp_listener, ServerConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Boots a daemon on an ephemeral port; returns its address and the
/// serving thread (joined by `stop`).
fn boot(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        serve_tcp_listener(config, listener).expect("serve");
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream
}

/// Sends a shutdown request and joins the serving thread.
fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut conn = connect(addr);
    conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("send");
    let mut line = String::new();
    // The shutdown ack must still be flushed to this client.
    BufReader::new(&conn).read_line(&mut line).expect("ack");
    assert!(line.contains("\"shutdown\":true"), "{line}");
    handle.join().expect("serve thread exits");
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("non-JSON response {line:?}: {e}"))
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let (addr, handle) = boot(ServerConfig::default().with_workers(2));
    let mut conn = connect(addr);
    // Three requests in one write: a ping, a real plan, another ping.
    // The pings complete instantly on the event loop while the plan is
    // still computing on a worker — the responses must nevertheless
    // come back in request order.
    conn.write_all(
        b"{\"op\":\"ping\",\"id\":1}\n{\"graph\":\"alexnet\",\"id\":2}\n{\"op\":\"ping\",\"id\":3}\n",
    )
    .expect("send");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut ids = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let v = parse(&line);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
        ids.push(v.get("id").and_then(Value::as_u64).expect("id"));
    }
    assert_eq!(ids, vec![1, 2, 3], "responses in request order");
    stop(addr, handle);
}

#[test]
fn half_closed_connection_still_receives_its_responses() {
    let (addr, handle) = boot(ServerConfig::default().with_workers(2));
    let mut conn = connect(addr);
    conn.write_all(b"{\"graph\":\"squeezenet\",\"id\":7}\n")
        .expect("send");
    // Close the write side immediately: the daemon sees EOF while the
    // plan is still computing, and must drain the owed response before
    // dropping the connection.
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut line = String::new();
    BufReader::new(&conn)
        .read_line(&mut line)
        .expect("response");
    let v = parse(&line);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
    stop(addr, handle);
}

#[test]
fn disconnect_mid_response_under_load_only_drops_that_connection() {
    let (addr, handle) = boot(ServerConfig::default().with_workers(2));
    // A dozen clients each submit a plan and vanish without reading the
    // response: every write of those responses fails. Before the event
    // loop, an `Err` on the write path could take down the acceptor.
    for i in 0..12 {
        let mut conn = connect(addr);
        conn.write_all(format!("{{\"graph\":\"synthetic:32x3x{i}\",\"id\":{i}}}\n").as_bytes())
            .expect("send");
        // Drop with data in flight; RST rather than graceful close.
        drop(conn);
    }
    // The daemon must still accept and serve new clients.
    let mut conn = connect(addr);
    conn.write_all(b"{\"op\":\"ping\",\"id\":99}\n{\"graph\":\"alexnet\",\"id\":100}\n")
        .expect("send");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    for expected in [99u64, 100] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let v = parse(&line);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(expected));
    }
    stop(addr, handle);
}

#[test]
fn concurrent_connections_multiplex_on_one_event_loop() {
    let (addr, handle) = boot(ServerConfig::default().with_workers(4));
    let mut clients = Vec::new();
    for i in 0..8u64 {
        clients.push(std::thread::spawn(move || {
            let mut conn = connect(addr);
            let line = format!("{{\"graph\":\"synthetic:24x3x{i}\",\"id\":{i}}}\n");
            conn.write_all(line.as_bytes()).expect("send");
            let mut response = String::new();
            BufReader::new(&conn)
                .read_line(&mut response)
                .expect("response");
            let v = parse(&response);
            assert_eq!(
                v.get("ok").and_then(Value::as_bool),
                Some(true),
                "{response}"
            );
            assert_eq!(v.get("id").and_then(Value::as_u64), Some(i));
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }
    stop(addr, handle);
}

/// Sends `count` pings on `conn`, one outstanding at a time, and
/// returns how long they took in total.
fn ping_round_trips(conn: &TcpStream, count: u64) -> Duration {
    let mut writer = conn;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    let start = Instant::now();
    for id in 0..count {
        writer
            .write_all(format!("{{\"op\":\"ping\",\"id\":{id}}}\n").as_bytes())
            .expect("send");
        line.clear();
        reader.read_line(&mut line).expect("pong");
        assert!(line.contains("\"pong\":true"), "{line}");
    }
    start.elapsed()
}

#[test]
fn back_to_back_pings_are_not_paced_by_a_clock() {
    let (addr, handle) = boot(ServerConfig::default().with_workers(1));
    let conn = connect(addr);
    // A request that arrives while the loop sleeps must wake it at
    // once: 500 sequential round trips take well under 0.5 ms each,
    // where a loop that re-polls on a 2 ms tick needs about a second.
    let elapsed = ping_round_trips(&conn, 500);
    assert!(
        elapsed < Duration::from_millis(250),
        "500 pings took {elapsed:?}"
    );
    stop(addr, handle);
}

#[test]
fn a_megabyte_request_line_does_not_stall_other_connections() {
    let (addr, handle) = boot(ServerConfig::default().with_workers(1));
    // One 1 MiB JSON string. The loop parses every line it reads before
    // it serves the next socket, so a reader that is not linear in the
    // line holds every connection for as long as the parse takes.
    let long = format!("{{\"graph\":\"{}\",\"id\":1}}\n", "x".repeat(1 << 20));
    let mut sender = connect(addr);
    let receiver = {
        let conn = sender.try_clone().expect("clone");
        std::thread::spawn(move || {
            let mut reply = String::new();
            BufReader::new(conn)
                .read_line(&mut reply)
                .expect("reply to the long line");
            reply
        })
    };
    let writer = std::thread::spawn(move || {
        sender
            .write_all(long.as_bytes())
            .expect("send the long line");
        sender
    });
    // Ping on a second connection until the long line is answered.
    let conn = connect(addr);
    let (mut pings, mut slowest) = (0, Duration::ZERO);
    while pings < 10 || !receiver.is_finished() {
        slowest = slowest.max(ping_round_trips(&conn, 1));
        pings += 1;
    }
    let reply = receiver.join().expect("receiver thread");
    drop(writer.join().expect("writer thread"));
    assert!(
        slowest < Duration::from_millis(100),
        "a ping waited {slowest:?} behind the long line ({pings} pings)"
    );
    let v = parse(&reply);
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(1));
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("unknown_model"),
        "{}",
        &reply[..reply.len().min(200)]
    );
    stop(addr, handle);
}

/// CPU time (user + system) the calling process's thread `tid` has
/// used so far, from `/proc`.
#[cfg(target_os = "linux")]
fn thread_cpu(tid: &str) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).expect("stat");
    // Fields after the parenthesised command name start at `state`;
    // utime and stime follow ten fields later, in 1/100 s ticks.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

#[cfg(target_os = "linux")]
#[test]
fn client_hanging_up_mid_plan_neither_stalls_nor_spins_the_loop() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        // `/proc/thread-self` links to `<pid>/task/<tid>` of the thread
        // that reads it: the one about to run the event loop.
        let link = std::fs::read_link("/proc/thread-self").expect("thread-self");
        let tid = link
            .file_name()
            .expect("tid")
            .to_string_lossy()
            .into_owned();
        tid_tx.send(tid).expect("send tid");
        let config = ServerConfig::default()
            .with_workers(2)
            .with_debug_hooks(true);
        serve_tcp_listener(config, listener).expect("serve");
    });
    let tid = tid_rx.recv().expect("serving thread id");
    // The first client submits a plan that computes for 1.5 s and
    // hangs up at once: its socket then stays readable (at EOF) for as
    // long as the plan runs.
    let mut gone = connect(addr);
    gone.write_all(b"{\"graph\":\"debug:stall:1500\",\"id\":1}\n")
        .expect("send");
    drop(gone);
    // A second client must still get prompt answers...
    let conn = connect(addr);
    let elapsed = ping_round_trips(&conn, 100);
    assert!(
        elapsed < Duration::from_millis(250),
        "100 pings took {elapsed:?}"
    );
    // ...and while it idles, the loop must sleep rather than spin on
    // the dead peer's socket.
    let before = thread_cpu(&tid);
    std::thread::sleep(Duration::from_millis(500));
    let burnt = thread_cpu(&tid) - before;
    assert!(
        burnt < Duration::from_millis(100),
        "idle loop used {burnt:?} of CPU in 500 ms"
    );
    drop(conn);
    stop(addr, handle);
}

/// Sends one request line on `conn` and reads its reply line.
fn request(conn: &TcpStream, line: &str) -> String {
    let mut writer = conn;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).expect("reply");
    reply
}

fn error_code(reply: &str) -> Option<String> {
    parse(reply)
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// A plan-cache hit on a zoo net is answered by the event loop at
/// admission: with the only worker and the only queue slot held by a
/// stalled request, a repeated zoo plan still answers at once, byte for
/// byte its first reply as a hit, while a repeated synthetic plan, which
/// only a worker may build, is refused for want of a slot. Answers given
/// at once still wait their turn behind a computing request on the same
/// connection.
#[test]
fn cache_hits_are_answered_while_every_worker_is_busy() {
    const STALL_MS: u64 = 3000;
    let config = ServerConfig::default()
        .with_workers(1)
        .with_queue_capacity(1)
        .with_debug_hooks(true);
    let (addr, handle) = boot(config);
    let conn = connect(addr);
    let zoo = r#"{"graph":"alexnet","id":1}"#;
    let synthetic = r#"{"graph":"synthetic:48x3x1","id":2}"#;
    let primed = request(&conn, zoo);
    assert!(primed.starts_with(r#"{"cached":false,"#), "{primed}");
    let synthetic_primed = request(&conn, synthetic);
    assert!(
        synthetic_primed.starts_with(r#"{"cached":false,"#),
        "{synthetic_primed}"
    );
    // A stalled request holds the worker and, at capacity 1, the queue.
    let mut stalled = connect(addr);
    stalled
        .write_all(format!("{{\"graph\":\"debug:stall:{STALL_MS}\",\"id\":3}}\n").as_bytes())
        .expect("send the stall");
    let held = Instant::now();
    let occupied = (0..2000).any(|_| {
        let stats = parse(&request(&conn, r#"{"op":"stats"}"#));
        let queue = stats.get("stats").and_then(|s| s.get("queue")).cloned();
        let count = |field| {
            queue
                .as_ref()
                .and_then(|q| q.get(field))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let busy = count("depth") + count("in_flight") >= 1;
        if !busy {
            std::thread::sleep(Duration::from_millis(1));
        }
        busy
    });
    assert!(occupied, "the stall never occupied the queue");
    let hit = request(&conn, zoo);
    let answered = held.elapsed();
    assert_eq!(
        hit,
        primed.replacen(r#"{"cached":false,"#, r#"{"cached":true,"#, 1),
        "the hit is the primed reply with the flag flipped"
    );
    assert!(
        answered < Duration::from_millis(STALL_MS / 3),
        "the hit waited {answered:?} for a worker"
    );
    let refused = request(&conn, synthetic);
    assert_eq!(
        error_code(&refused).as_deref(),
        Some("queue_full"),
        "{refused}"
    );
    let mut stall_reply = String::new();
    BufReader::new(&stalled)
        .read_line(&mut stall_reply)
        .expect("the stall's reply");
    assert!(stall_reply.contains("stalled"), "{stall_reply}");
    // A miss, a hit and a ping in one write: the hit and the ping are
    // answered at once, yet come back after the computed miss.
    let mut writer = &conn;
    writer
        .write_all(
            concat!(
                r#"{"graph":"alexnet","options":{"tensor_budget":1048576},"id":10}"#,
                "\n",
                r#"{"graph":"alexnet","id":11}"#,
                "\n",
                r#"{"op":"ping","id":12}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("send the pipeline");
    let mut reader = BufReader::new(&conn);
    let mut replies = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("pipelined reply");
        replies.push(parse(&line));
    }
    let ids: Vec<_> = replies
        .iter()
        .map(|v| v.get("id").and_then(Value::as_u64))
        .collect();
    assert_eq!(ids, [Some(10), Some(11), Some(12)], "request order");
    let cached: Vec<_> = replies
        .iter()
        .map(|v| v.get("cached").and_then(Value::as_bool))
        .collect();
    assert_eq!(cached, [Some(false), Some(true), None]);
    drop(stalled);
    stop(addr, handle);
}
