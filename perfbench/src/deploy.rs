//! Deployments under test, each process of which is this benchmark's
//! own executable re-run in a server role.
//!
//! * `--role server`: `scq_serve::serve` over in-process local shards.
//! * `--role shard`: one `scq_shard::serve_shard` process with a WAL.
//! * `--role router`: `ClusterSpec::connect` to the shard processes,
//!   fronted by `scq_serve::serve_db`.
//!
//! A role prints `ADDR <address>` once it listens and serves until its
//! standard input closes. Keeping the deployment in processes of its
//! own keeps the client, the oracle and the traced run's mirror out of
//! its memory and its allocator.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use scq_region::AaBox;
use scq_serve::{PlanMode, ServerConfig};
use scq_shard::{ClusterSpec, ShardServerConfig, WalConfig};

use crate::gen::{Workload, UNIVERSE};

/// How long a starting process may take to report its address.
const BOOT_WAIT: Duration = Duration::from_secs(30);

/// Runs a server role in this process (the `--role` entry point of the
/// benchmark's executable, which [`Deployment::boot`] starts).
/// Returns when standard input closes.
pub fn run_role(role: &str, args: &[String]) -> Result<(), String> {
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("role {role}: missing {name}"))
    };
    let announce = |addr: SocketAddr| {
        println!("ADDR {addr}");
        std::io::stdout().flush().map_err(|e| e.to_string())
    };
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]);
    let front = |shards: usize| ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        universe_size: UNIVERSE,
        plan: PlanMode::Selectivity,
        ..ServerConfig::default()
    };
    match role {
        "server" => {
            let shards: usize = arg("--shards")?.parse().map_err(|_| "bad --shards")?;
            let handle = scq_serve::serve(&front(shards)).map_err(|e| e.to_string())?;
            announce(handle.addr())?;
            wait_for_eof();
            handle.shutdown();
        }
        "shard" => {
            let handle = scq_shard::serve_shard(&ShardServerConfig {
                universe_size: UNIVERSE,
                wal: Some(WalConfig::new(arg("--wal")?)),
                ..ShardServerConfig::default()
            })
            .map_err(|e| e.to_string())?;
            announce(handle.addr())?;
            wait_for_eof();
            handle.shutdown();
        }
        "router" => {
            let addrs: Vec<String> = arg("--shard-addrs")?
                .split(',')
                .map(str::to_string)
                .collect();
            let spec = ClusterSpec::balanced(universe, scq_shard::DEFAULT_ROUTER_BITS, &addrs);
            let db = spec
                .connect(BOOT_WAIT)
                .map_err(|e| format!("cluster connect: {e}"))?;
            let handle = scq_serve::serve_db(&front(addrs.len()), db).map_err(|e| e.to_string())?;
            announce(handle.addr())?;
            wait_for_eof();
            handle.shutdown();
        }
        other => return Err(format!("unknown role {other:?}")),
    }
    Ok(())
}

fn wait_for_eof() {
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}

/// One process of a deployment.
struct Proc {
    child: Child,
    /// Closing it asks the process to shut down.
    stdin: Option<ChildStdin>,
}

impl Proc {
    /// Starts this executable in `role` and waits for its address.
    fn spawn(exe: &Path, role: &str, args: &[String]) -> Result<(Proc, SocketAddr), String> {
        let mut child = Command::new(exe)
            .arg("--role")
            .arg(role)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {role}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = Proc { child, stdin };
        // The first line is the address; a process that dies first
        // closes the pipe, which ends the read.
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.strip_prefix("ADDR ")) {
            (Ok(_), Some(a)) => a
                .trim()
                .parse()
                .map_err(|_| format!("{role}: bad address {a:?}")),
            _ => Err(format!("{role} exited before listening")),
        };
        match addr {
            Ok(a) => Ok((proc, a)),
            Err(e) => {
                proc.stop();
                Err(e)
            }
        }
    }

    /// Peak resident memory in bytes (`VmHWM`).
    fn peak_rss(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    }

    /// Closes standard input, waits for a clean exit and kills the
    /// process if it has not exited in time. Always reaps it.
    fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running deployment: its processes and the front end's address.
pub struct Deployment {
    /// Front end last, so shards outlive the router that talks to them.
    procs: Vec<Proc>,
    /// The line-protocol address clients connect to.
    pub addr: SocketAddr,
    /// WAL directories to delete after shutdown.
    wal_dirs: Vec<PathBuf>,
}

impl Deployment {
    /// Boots `workload`'s deployment. WAL directories go under `scratch`.
    pub fn boot(exe: &Path, workload: Workload, scratch: &Path) -> Result<Deployment, String> {
        if !workload.is_cluster() {
            let shards = workload.shards().to_string();
            let (p, addr) = Proc::spawn(exe, "server", &["--shards".into(), shards])?;
            return Ok(Deployment {
                procs: vec![p],
                addr,
                wal_dirs: Vec::new(),
            });
        }
        let (mut dep, addrs) = Deployment::shards(exe, workload.shards(), scratch)?;
        let (p, addr) = Proc::spawn(exe, "router", &["--shard-addrs".into(), addrs.join(",")])?;
        dep.procs.push(p);
        dep.addr = addr;
        Ok(dep)
    }

    /// Boots `n` WAL shard processes with no front end; `addr` is the
    /// first shard's. Returns the shard addresses too.
    pub fn shards(
        exe: &Path,
        n: usize,
        scratch: &Path,
    ) -> Result<(Deployment, Vec<String>), String> {
        let mut dep = Deployment {
            procs: Vec::new(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            wal_dirs: Vec::new(),
        };
        let mut addrs = Vec::new();
        for _ in 0..n {
            let dir = fresh_dir(scratch, "wal")?;
            dep.wal_dirs.push(dir.clone());
            let (p, a) = Proc::spawn(exe, "shard", &["--wal".into(), dir.display().to_string()])?;
            dep.procs.push(p);
            addrs.push(a.to_string());
        }
        dep.addr = addrs[0].parse().map_err(|_| "bad shard address")?;
        Ok((dep, addrs))
    }

    /// Sum of every process's peak resident memory, in bytes.
    pub fn peak_rss(&self) -> u64 {
        self.procs.iter().map(Proc::peak_rss).sum()
    }

    /// Stops every process (front end first) and deletes the WALs.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        while let Some(mut p) = self.procs.pop() {
            p.stop();
        }
        for d in self.wal_dirs.drain(..) {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// A new, empty directory under `scratch`.
pub fn fresh_dir(scratch: &Path, prefix: &str) -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("{prefix}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects to a front end.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
            line: String::new(),
        })
    }

    /// Sends one command and reads its one-line response (without the
    /// newline). Multi-line responses are not used by the benchmark.
    pub fn call(&mut self, command: &str) -> Result<&str, String> {
        let mut msg = Vec::with_capacity(command.len() + 1);
        msg.extend_from_slice(command.as_bytes());
        msg.push(b'\n');
        self.writer
            .write_all(&msg)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}
