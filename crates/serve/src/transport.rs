//! Line-oriented transports: stdin/stdout (tests, pipelines) over the
//! blocking [`Server::handle_line`], and TCP / Unix-socket serving via
//! a readiness-driven event loop over [`Server::handle_line_async`].
//!
//! One transport thread owns every socket and sleeps in `poll(2)` until
//! something is ready: a connection pending on the listener, a
//! connection the loop wants to read from or write to, or a completion.
//! It then acts on what `poll` reported (`revents`) and on nothing
//! else: it accepts only when the listener polled readable, drains the
//! wake socket only when that polled readable, and reads only the
//! connections that polled readable, hung up or in error, plus those
//! accepted in the same pass. `poll` is level-triggered, so bytes left
//! unread are reported again.
//!
//! Complete lines go to the server. What it answers at once (an inline
//! operation, or a plan-cache hit taken at admission) goes straight
//! into the connection's response order and is written before the loop
//! polls again: a cache hit costs one `poll`, one `read` and one
//! `write`. A request queued for a worker is answered through a
//! completion channel: the worker (or the health watcher, or shutdown)
//! sends the response on the channel and then rings a wake socket that
//! the loop polls, so neither a request nor a finished plan waits on a
//! clock. A slow, stalled, or disconnected client costs a buffer, not a
//! thread — and a write error tears down that one connection, never the
//! acceptor.
//!
//! Backpressure is per client, in both directions: a connection with
//! `MAX_PIPELINE` requests in flight or more than `SOFT_WRITE_CAP`
//! unsent response bytes is not read from until it drains, and one
//! that ignores its responses past `HARD_WRITE_CAP` is dropped. Such a
//! throttled connection, like a half-closed one, is polled only while
//! it has unsent bytes, and then only for writing, so an idle or
//! hung-up peer never makes `poll` return.
//!
//! An accept that fails for a reason other than "nothing pending" (say
//! `EMFILE`: out of descriptors) leaves the connection in the backlog
//! and the listener readable, so the loop takes the listener out of the
//! poll set until a connection closes or `ACCEPT_RETRY` passes, rather
//! than spin on it.
//!
//! All loops end the same way: a `{"op":"shutdown"}` request (or input
//! EOF on stdio) flips the server into draining mode, in-flight work
//! finishes and is flushed to its clients, workers join, and the
//! function returns. A `poll` failure other than `EINTR` ends a socket
//! loop early: its connections close, the server shuts down (workers
//! join), and the error is returned.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::server::{Server, ServerConfig};

/// Requests one connection may have in flight before the loop stops
/// reading from it.
const MAX_PIPELINE: u64 = 128;

/// Unsent response bytes above which a connection is not read from.
const SOFT_WRITE_CAP: usize = 1 << 20;

/// Unsent response bytes above which a client is judged dead-slow and
/// dropped.
const HARD_WRITE_CAP: usize = 8 << 20;

/// Longest accepted request line; protects the per-connection read
/// buffer from a peer that never sends a newline.
const MAX_LINE: usize = 8 << 20;

/// How long a listener whose accept failed stays out of the poll set
/// when no connection closes first (a closed connection frees a
/// descriptor, so it ends the wait early).
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// Serves JSON-lines over stdin/stdout until EOF or a shutdown request.
/// Requests are answered in input order.
///
/// # Errors
///
/// Propagates stdin/stdout I/O failures and WAL startup failures.
pub fn serve_stdio(config: ServerConfig) -> io::Result<()> {
    let server = Server::try_start(config)?;
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = server.handle_line(&line);
        writeln!(out, "{response}")?;
        out.flush()?;
        if server.is_shutting_down() {
            break;
        }
    }
    server.shutdown();
    Ok(())
}

/// Serves JSON-lines over TCP. Binds `addr` (use port 0 for an
/// ephemeral port) and prints one `listening <addr>` line to stdout so
/// callers can discover the bound address. All connections share the
/// event-loop thread; requests on one connection are answered in order.
///
/// # Errors
///
/// Propagates bind failures, WAL startup failures and event-loop
/// `poll` failures.
pub fn serve_tcp(config: ServerConfig, addr: &str) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    println!("listening {}", listener.local_addr()?);
    io::stdout().flush()?;
    serve_tcp_listener(config, listener)
}

/// [`serve_tcp`] over an already-bound listener — tests bind port 0
/// themselves to learn the address without parsing stdout.
///
/// # Errors
///
/// Propagates listener configuration, WAL startup and event-loop
/// `poll` failures.
pub fn serve_tcp_listener(config: ServerConfig, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let server = Server::try_start(config)?;
    let served = event_loop(&server, &listener);
    server.shutdown();
    served
}

/// Serves JSON-lines over a Unix domain socket at `path` (an existing
/// stale socket file is removed first, and the file is unlinked again
/// on exit).
///
/// # Errors
///
/// Propagates bind failures, WAL startup failures and event-loop
/// `poll` failures.
pub fn serve_unix(config: ServerConfig, path: &Path) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    println!("listening {}", path.display());
    io::stdout().flush()?;
    let server = Server::try_start(config)?;
    let served = event_loop(&server, &listener);
    server.shutdown();
    let _ = std::fs::remove_file(path);
    served
}

/// The two stream types, unified for the event loop. Streams are
/// switched to non-blocking before entering the loop.
trait Stream: io::Read + io::Write + AsRawFd + Send {}

impl Stream for TcpStream {}
impl Stream for UnixStream {}

/// The two listener types, unified for the event loop. Listeners are
/// switched to non-blocking before entering the loop.
trait Listener: AsRawFd {
    /// Accepts one pending connection as a non-blocking stream;
    /// `WouldBlock` when none is pending.
    fn accept_stream(&self) -> io::Result<Box<dyn Stream>>;
}

impl Listener for TcpListener {
    fn accept_stream(&self) -> io::Result<Box<dyn Stream>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
    }
}

impl Listener for UnixListener {
    fn accept_stream(&self) -> io::Result<Box<dyn Stream>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
    }
}

/// One live connection's event-loop state.
struct Connection {
    stream: Box<dyn Stream>,
    /// Bytes received but not yet terminated by `\n`.
    read_buf: Vec<u8>,
    /// Leading bytes of `read_buf` already searched for a `\n`, so a
    /// long line arriving in many reads is scanned once.
    scanned: usize,
    /// Response bytes accepted from the server but not yet written.
    write_buf: Vec<u8>,
    /// Sequence number assigned to the next request read off this
    /// connection. Responses are released strictly in this order, so
    /// pipelined requests answered out of order by the worker pool
    /// still reach the client in request order.
    next_seq: u64,
    /// Sequence number of the next response to release.
    next_send: u64,
    /// Completed responses waiting for their turn in the order.
    ready: BTreeMap<u64, String>,
    /// Peer sent EOF; drain what is owed, then drop.
    read_closed: bool,
    /// Tear down at the end of the iteration (write error, overflow).
    dead: bool,
    /// `poll` reported the socket readable, hung up or in error, or it
    /// was accepted in this pass: the loop reads from it once.
    read_ready: bool,
    /// The socket took less than the loop offered: no write is tried
    /// again until `poll` reports it writable (or hung up, or in error).
    write_blocked: bool,
}

impl Connection {
    /// A connection accepted in this pass, so read before any `poll`.
    fn new(stream: Box<dyn Stream>) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            next_seq: 0,
            next_send: 0,
            ready: BTreeMap::new(),
            read_closed: false,
            dead: false,
            read_ready: true,
            write_blocked: false,
        }
    }

    /// Requests read but not yet released to the write buffer.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_send
    }

    /// True when nothing is owed to the peer any more.
    fn drained(&self) -> bool {
        self.in_flight() == 0 && self.write_buf.is_empty()
    }

    /// True while the loop must not read from this connection:
    /// backpressure, or the peer already sent EOF.
    fn throttled(&self) -> bool {
        self.in_flight() >= MAX_PIPELINE
            || self.write_buf.len() > SOFT_WRITE_CAP
            || self.read_closed
    }

    /// What the loop waits for on this socket: reads unless throttled,
    /// writes while responses are unsent. `0` leaves it out of the
    /// poll set.
    fn interest(&self) -> sys::Events {
        let mut events = 0;
        if !self.throttled() {
            events |= sys::POLLIN;
        }
        if !self.write_buf.is_empty() {
            events |= sys::POLLOUT;
        }
        events
    }

    /// Records what `poll` reported for this socket.
    fn polled(&mut self, revents: sys::Events) {
        if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
            self.read_ready = true;
        }
        if revents & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR) != 0 {
            self.write_blocked = false;
        }
    }

    /// Reads once into the read buffer: EOF half-closes the connection,
    /// an error or an overlong line kills it. The loop handles what one
    /// read returns before it reads again; `poll` reports the rest.
    fn read_some(&mut self, scratch: &mut [u8]) {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.dead |= self.read_buf.len() > MAX_LINE;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
            return;
        }
    }

    /// Hands the complete lines of the read buffer to the server, in
    /// order, each numbered by its place in the response order. An
    /// answer the server gives at once goes straight into `ready`; a
    /// queued request's answer comes back through `completions`.
    /// Consumed lines leave the buffer in one drain at the end.
    fn dispatch(&mut self, conn_id: u64, server: &Server, completions: &Arc<Completions>) {
        let mut start = 0;
        while let Some(len) = self.read_buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        {
            let end = self.scanned + len;
            self.scanned = end + 1;
            let line = String::from_utf8_lossy(&self.read_buf[start..end]);
            start = end + 1;
            if line.trim().is_empty() {
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let completions = Arc::clone(completions);
            let answer = server.handle_line_async(
                &line,
                Box::new(move |response| completions.deliver((conn_id, seq, response))),
            );
            if let Some(answer) = answer {
                self.ready.insert(seq, answer);
            }
        }
        self.read_buf.drain(..start);
        self.scanned = self.read_buf.len();
        self.release_ready();
    }

    /// Moves consecutively-ready responses into the write buffer.
    fn release_ready(&mut self) {
        while let Some(line) = self.ready.remove(&self.next_send) {
            self.write_buf.extend_from_slice(line.as_bytes());
            self.write_buf.push(b'\n');
            self.next_send += 1;
        }
    }

    /// Writes as much of the write buffer as the socket accepts, and
    /// notes whether it took everything. Returns `false` on a fatal
    /// write error — which kills *this* connection only.
    fn flush_some(&mut self) -> bool {
        let mut written = 0;
        while written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.write_buf.drain(..written);
                    return false;
                }
            }
        }
        self.write_buf.drain(..written);
        self.write_blocked = !self.write_buf.is_empty();
        true
    }
}

/// A queued request's response travelling from whichever thread
/// finished it (a worker, the health watcher, or shutdown) back to the
/// event loop: `(connection, seq, line)`.
type Completion = (u64, u64, String);

/// Where completions travel: the channel, plus a socket pair whose read
/// end the loop polls. Callbacks and the loop share one `Arc`, so the
/// read end stays open while any callback could still write to it.
struct Completions {
    tx: mpsc::Sender<Completion>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl Completions {
    fn new(tx: mpsc::Sender<Completion>) -> io::Result<Self> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Self {
            tx,
            wake_rx,
            wake_tx,
        })
    }

    /// Queues `completion` for the loop and wakes it. The send comes
    /// first, so a completion that lands between the loop's channel
    /// drain and its `poll` still finds a wake byte waiting.
    fn deliver(&self, completion: Completion) {
        // The loop may have exited already; then nobody is listening
        // and the send result is moot.
        let _ = self.tx.send(completion);
        // `WouldBlock`: the socket is full, so a wake is already pending.
        while let Err(e) = (&self.wake_tx).write(&[1]) {
            if e.kind() != io::ErrorKind::Interrupted {
                break;
            }
        }
    }

    /// Consumes every pending wake byte. A read that does not fill the
    /// buffer took all there was, so it needs no second read.
    fn drain_wakes(&self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(n) if n == buf.len() => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

/// The readiness-driven serving loop: one thread, every socket.
///
/// The loop runs until the server enters shutdown *and* every
/// connection has been paid what it is owed (so the response to the
/// shutdown request itself, and anything in flight, still reaches its
/// client), or until `poll` fails.
fn event_loop(server: &Server, listener: &dyn Listener) -> io::Result<()> {
    let (tx, rx) = mpsc::channel::<Completion>();
    let completions = Arc::new(Completions::new(tx)?);
    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut scratch = [0u8; 64 * 1024];
    let mut poll_set = Vec::new();
    // The connection behind each poll-set entry after the fixed ones.
    let mut polled = Vec::new();
    // When the last accept failed: the listener sits out of `poll`
    // until a connection closes or `ACCEPT_RETRY` has passed.
    let mut accept_failed: Option<Instant> = None;
    // The last `poll` reported a connection pending on the listener.
    let mut listener_ready = false;
    loop {
        // 1. Admit new connections, when one is pending or a failed
        // accept is due for a retry (never while draining).
        if accept_failed.is_some_and(|at| at.elapsed() >= ACCEPT_RETRY) {
            accept_failed = None;
            listener_ready = true;
        }
        if std::mem::take(&mut listener_ready) && !server.is_shutting_down() {
            loop {
                match listener.accept_stream() {
                    Ok(stream) => {
                        conns.insert(next_conn_id, Connection::new(stream));
                        next_conn_id += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // Only that one connection is gone; others may wait.
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => {
                        accept_failed = Some(Instant::now());
                        break;
                    }
                }
            }
        }
        // 2. Collect the responses of queued requests. Completions for
        // connections that died in the meantime are discarded.
        while let Ok((conn_id, seq, line)) = rx.try_recv() {
            if let Some(conn) = conns.get_mut(&conn_id) {
                conn.ready.insert(seq, line);
                conn.release_ready();
            }
        }
        // 3. Serve the sockets: read what `poll` reported, hand the
        // complete lines to the server, and write what is owed,
        // respecting per-client backpressure.
        for (&conn_id, conn) in &mut conns {
            if std::mem::take(&mut conn.read_ready) && !conn.throttled() {
                conn.read_some(&mut scratch);
                if conn.dead {
                    continue;
                }
                conn.dispatch(conn_id, server, &completions);
            }
            // A write error (the client vanished) kills this connection
            // only, never the serving loop.
            if !conn.write_buf.is_empty() && !conn.write_blocked && !conn.flush_some() {
                conn.dead = true;
                continue;
            }
            if conn.write_buf.len() > HARD_WRITE_CAP {
                conn.dead = true;
            }
        }
        // 4. Reap: dead connections immediately, half-closed ones once
        // every owed response has been flushed. A closed connection
        // frees a descriptor, so a failed accept is worth retrying.
        let open = conns.len();
        conns.retain(|_, conn| !(conn.dead || conn.read_closed && conn.drained()));
        if conns.len() < open {
            accept_failed = None;
        }
        // 5. Exit once draining is complete.
        if server.is_shutting_down() && conns.values().all(Connection::drained) {
            return Ok(());
        }
        // 6. Sleep until the wake socket, the listener (unless
        // draining or backing off) or a connection with an interest is
        // ready, or until a failed accept is due for a retry; then note
        // what was reported.
        poll_set.clear();
        polled.clear();
        poll_set.push(sys::PollFd::new(
            completions.wake_rx.as_raw_fd(),
            sys::POLLIN,
        ));
        let listening = !server.is_shutting_down() && accept_failed.is_none();
        if listening {
            poll_set.push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
        }
        let first_conn = poll_set.len();
        for (&conn_id, conn) in &conns {
            let events = conn.interest();
            if events != 0 {
                poll_set.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                polled.push(conn_id);
            }
        }
        let timeout = accept_failed.map(|at| ACCEPT_RETRY.saturating_sub(at.elapsed()));
        sys::wait(&mut poll_set, timeout)?;
        listener_ready = listening && poll_set[1].revents() != 0;
        for (fd, conn_id) in poll_set[first_conn..].iter().zip(&polled) {
            if let Some(conn) = conns.get_mut(conn_id) {
                conn.polled(fd.revents());
            }
        }
        if poll_set[0].revents() != 0 {
            completions.drain_wakes();
        }
    }
}

/// `poll(2)`, the crate's one foreign call, from the C library std
/// already links.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// The C `nfds_t`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    /// A `poll` event mask.
    pub(super) type Events = c_short;
    /// Readable, or for a listener a connection pending.
    pub(super) const POLLIN: Events = 0x1;
    /// Writable.
    pub(super) const POLLOUT: Events = 0x4;
    /// An error is pending (reported whether asked for or not).
    pub(super) const POLLERR: Events = 0x8;
    /// The peer hung up (reported whether asked for or not).
    pub(super) const POLLHUP: Events = 0x10;

    /// The C `struct pollfd`. The kernel writes `revents`, which the
    /// loop reads back to touch only the sockets that are ready.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: Events,
        revents: Events,
    }

    impl PollFd {
        pub(super) fn new(fd: RawFd, events: Events) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }

        /// What the last `poll` reported for this descriptor.
        pub(super) fn revents(&self) -> Events {
            self.revents
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until one of `fds` is ready or reports an error or
    /// hang-up, or until `timeout` (rounded up to whole milliseconds)
    /// passes; `None` waits without a timeout. `EINTR` retries.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        let nfds = Nfds::try_from(fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "poll set too large"))?;
        let timeout = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
        });
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` `struct pollfd` values and `nfds` is its
            // length, so the kernel reads and writes only inside it and
            // only during the call. A descriptor that is not open is
            // reported as `POLLNVAL`, not undefined behaviour.
            if unsafe { poll(fds.as_mut_ptr(), nfds, timeout) } >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::os::unix::io::RawFd;

    /// A real, bound listener whose accepts fail as they do once the
    /// process is out of descriptors: its pending connections stay in
    /// the backlog, so the socket stays readable.
    struct OutOfDescriptors(TcpListener);

    impl AsRawFd for OutOfDescriptors {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
    }

    impl Listener for OutOfDescriptors {
        fn accept_stream(&self) -> io::Result<Box<dyn Stream>> {
            const EMFILE: i32 = 24;
            Err(io::Error::from_raw_os_error(EMFILE))
        }
    }

    /// CPU time (user + system) thread `tid` of this process has used so
    /// far, from `/proc`, in 1/100 s ticks.
    fn thread_cpu(tid: &str) -> Duration {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).expect("stat");
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
            .split_whitespace()
            .collect();
        let ticks: u64 =
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        Duration::from_millis(ticks * 10)
    }

    #[test]
    fn failing_accepts_neither_spin_the_loop_nor_stop_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("non-blocking");
        let addr = listener.local_addr().expect("local addr");
        let server = Server::start(ServerConfig::default().with_workers(1));
        let (tid_tx, tid_rx) = mpsc::channel();
        let looping = {
            let server = server.clone();
            std::thread::spawn(move || {
                let link = std::fs::read_link("/proc/thread-self").expect("thread-self");
                let tid = link.file_name().expect("tid").to_string_lossy();
                tid_tx.send(tid.into_owned()).expect("send tid");
                event_loop(&server, &OutOfDescriptors(listener))
            })
        };
        let tid = tid_rx.recv().expect("loop thread id");
        // This connection waits in the backlog for good.
        let _pending = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(50));
        let before = thread_cpu(&tid);
        std::thread::sleep(Duration::from_millis(500));
        let burnt = thread_cpu(&tid) - before;
        assert!(
            burnt < Duration::from_millis(100),
            "the loop used {burnt:?} of CPU in 500 ms of failing accepts"
        );
        // Backing off, the loop still notices a shutdown at its next retry.
        server.begin_shutdown();
        looping
            .join()
            .expect("loop thread")
            .expect("loop ends cleanly");
        server.shutdown();
    }
}
