//! The daemon under test: the release `lcmm serve` binary as a child
//! process, and the loopback connections that drive it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its `listening` line or to exit
/// after a shutdown request.
const PATIENCE: Duration = Duration::from_secs(30);

/// One line-oriented loopback connection with one request outstanding
/// at a time.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Connection {
    pub fn open(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Sends one request line and reads the full reply line.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.send(line)?;
        self.receive()
    }

    /// The write half of [`Connection::call`].
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// The read half of [`Connection::call`].
    pub fn receive(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// A running `lcmm serve --listen 127.0.0.1:0 --workers 2` child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening <addr>` line.
    pub fn spawn(bin: &Path, wal_dir: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir).args(["--fsync", "os"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // Drain stdout for the daemon's whole life so it never blocks
        // on a full pipe; the first `listening` line carries the port.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: Some(reader),
        };
        match rx.recv_timeout(PATIENCE) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => return Err("daemon never printed its listening line".to_string()),
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Sends `{"op":"shutdown"}` on `conn` and waits for a clean exit.
    pub fn shutdown(mut self, conn: &mut Connection) -> Result<(), String> {
        let ack = conn
            .call("{\"op\":\"shutdown\"}")
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        if !ack.contains("\"shutdown\":true") {
            return Err(format!("shutdown was not acknowledged: {ack}"));
        }
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// A daemon that was not shut down cleanly is killed and reaped, so
    /// no child outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// CPU time the hypervisor stole from this machine so far, in seconds
/// summed over all CPUs (`steal` of `/proc/stat`, in 1/100 s ticks);
/// `None` where the kernel does not report it.
pub fn host_steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(steal / 100.0)
}

/// A scratch directory removed on drop (the churn workload's WAL).
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
