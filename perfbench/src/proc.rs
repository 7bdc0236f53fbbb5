//! The process under test: spawning, readiness, resource use, and the
//! admin endpoint scrape.

use std::io::{Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to bind its data socket.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause between two connection attempts while a daemon starts.
const CONNECT_RETRY: Duration = Duration::from_micros(500);

/// Resource use of one reaped process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Whether the process exited with status 0.
    pub success: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s starting with `ru_maxrss` (KiB).
    #[repr(C)]
    pub struct Rusage(pub [i64; 18]);

    pub const WNOHANG: i32 = 1;
    pub const PR_SET_CHILD_SUBREAPER: i32 = 36;

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn prctl(option: i32, ...) -> i32;
    }
}

/// Makes this process the reaper of its orphaned descendants, so that a
/// grandchild whose parent exits becomes its child.
///
/// # Errors
/// Fails when the kernel refuses.
#[cfg(target_os = "linux")]
fn become_subreaper() -> Result<(), String> {
    // SAFETY: `prctl(PR_SET_CHILD_SUBREAPER, 1)` takes one unsigned
    // long argument and changes only this process's reaper flag.
    let rc = unsafe { sys::prctl(sys::PR_SET_CHILD_SUBREAPER, 1 as std::ffi::c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot become a child subreaper: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// A process under test, started by [`RunDir::spawn`] and reaped with
/// `wait4`, which also returns its resource use.
pub struct Proc {
    pid: i32,
    /// Set once the process has been reaped; its pid may then be reused.
    reaped: Option<Usage>,
}

#[cfg(target_os = "linux")]
impl Proc {
    /// `wait4` on the process; `Ok(None)` when `block` is false and it
    /// is still running.
    fn wait(&mut self, block: bool) -> Result<Option<Usage>, String> {
        if let Some(usage) = self.reaped {
            return Ok(Some(usage));
        }
        let pid = self.pid;
        let options = if block { 0 } else { sys::WNOHANG };
        let mut status = 0i32;
        let mut usage = sys::Rusage([0; 18]);
        loop {
            // SAFETY: `status` and `usage` are live, writable and sized
            // as the kernel expects (`int` and a 144-byte `struct
            // rusage` on 64-bit Linux); `pid` is our own unreaped child.
            let rc = unsafe { sys::wait4(pid, &mut status, options, &mut usage) };
            if rc == 0 {
                return Ok(None);
            }
            if rc == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(format!("wait4({pid}) failed: {err}"));
            }
        }
        let tv = |s: i64, us: i64| s as f64 + us as f64 * 1e-6;
        let got = Usage {
            cpu_s: tv(usage.0[0], usage.0[1]) + tv(usage.0[2], usage.0[3]),
            peak_rss_mb: usage.0[4] as f64 / 1024.0,
            // WIFEXITED && WEXITSTATUS == 0
            success: status & 0xffff == 0,
        };
        self.reaped = Some(got);
        Ok(Some(got))
    }

    /// Waits for the process to exit and returns its resource use.
    ///
    /// # Errors
    /// Fails when the process cannot be waited for.
    pub fn reap(&mut self) -> Result<Usage, String> {
        self.wait(true)?
            .ok_or_else(|| format!("wait4({}) returned early", self.pid))
    }

    /// Whether the process has exited (reaping it if so).
    ///
    /// # Errors
    /// Fails when the process cannot be waited for.
    pub fn exited(&mut self) -> Result<bool, String> {
        Ok(self.wait(false)?.is_some())
    }

    /// Sends SIGKILL, unless the process was already reaped.
    ///
    /// # Errors
    /// Fails when the signal cannot be delivered.
    pub fn sigkill(&self) -> Result<(), String> {
        if self.reaped.is_some() {
            return Ok(());
        }
        let pid = self.pid;
        // SAFETY: `kill` takes plain integers; `pid` names our own
        // child, which is not reaped yet, so the pid cannot have been
        // reused.
        let rc = unsafe { sys::kill(pid, 9) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "kill({pid}) failed: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// Resident set of the live process, MiB, from `/proc`.
    pub fn rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`, to report
/// how much CPU time the hypervisor took away during a run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// A fresh run directory with its own `HOME` and `TMPDIR`.
pub struct RunDir {
    /// The directory, relative to the checkout root.
    pub path: PathBuf,
}

impl RunDir {
    /// Creates `path` (removing any leftover) with `home/` and `tmp/`.
    ///
    /// # Errors
    /// Fails on any I/O error.
    pub fn fresh(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        for sub in ["home", "tmp"] {
            std::fs::create_dir_all(path.join(sub))
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        }
        Ok(Self { path })
    }

    /// `name` inside the run directory, relative to the checkout root.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Starts `program args` inside this directory with a clean
    /// environment whose `HOME` and `TMPDIR` point inside it, and its
    /// output sent to `<tag>.out` and `<tag>.err` here.
    ///
    /// A short-lived `sh` starts the program in the background and
    /// exits; this process, a child subreaper, then inherits it. At exec
    /// Linux folds the peak resident set of the image being replaced
    /// into the new program's `ru_maxrss`. Started directly, that image
    /// is this generator, which holds the whole stream, so the peak
    /// would measure the generator. Forked from `sh`, it is a few MiB.
    ///
    /// # Errors
    /// Fails when the program cannot be started.
    #[cfg(target_os = "linux")]
    pub fn spawn(&self, program: &Path, args: &[String], tag: &str) -> Result<Proc, String> {
        become_subreaper()?;
        let abs = std::fs::canonicalize(&self.path)
            .map_err(|e| format!("cannot resolve {}: {e}", self.path.display()))?;
        let out = Command::new("sh")
            .arg("-c")
            .arg(r#"tag=$1; shift; "$@" >"$tag.out" 2>"$tag.err" </dev/null & echo $!"#)
            .arg("sh")
            .arg(tag)
            .arg(program)
            .args(args)
            .current_dir(&abs)
            .env_clear()
            .env("PATH", std::env::var_os("PATH").unwrap_or_default())
            .env("HOME", abs.join("home"))
            .env("TMPDIR", abs.join("tmp"))
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot start sh for {}: {e}", program.display()))?;
        let pid = std::str::from_utf8(&out.stdout)
            .ok()
            .and_then(|s| s.trim().parse::<i32>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "cannot start {}: {}",
                    program.display(),
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })?;
        Ok(Proc { pid, reaped: None })
    }

    /// Reads a file of the run directory as text ("" when missing).
    pub fn read(&self, name: &str) -> String {
        std::fs::read_to_string(self.join(name)).unwrap_or_default()
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Connects to `sock` as soon as the daemon listens on it.
///
/// # Errors
/// Fails when nothing listens within [`READY_TIMEOUT`] or the daemon
/// exits first.
pub fn connect_when_ready(sock: &Path, daemon: &mut Proc) -> Result<UnixStream, String> {
    let started = Instant::now();
    loop {
        if let Ok(stream) = UnixStream::connect(sock) {
            return Ok(stream);
        }
        if daemon.exited()? {
            return Err("daemon exited before listening".to_owned());
        }
        if started.elapsed() > READY_TIMEOUT {
            return Err(format!("no listener on {} after 60 s", sock.display()));
        }
        std::thread::sleep(CONNECT_RETRY);
    }
}

/// Finds `serve_next_slot` on a `/metrics` page.
pub fn next_slot_on_page(page: &str) -> Option<u64> {
    page.lines()
        .filter(|l| l.starts_with("serve_next_slot{") || l.starts_with("serve_next_slot "))
        .find_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .map(|v| v as u64)
}

/// One `GET /metrics` over the admin socket: `(next slot, page bytes)`.
///
/// # Errors
/// Fails on any transport error or a non-200 answer.
pub fn scrape(sock: &Path) -> Result<(Option<u64>, usize), String> {
    let mut stream = UnixStream::connect(sock).map_err(|e| format!("admin connect: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("admin write: {e}"))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| format!("admin read: {e}"))?;
    if !reply.starts_with("HTTP/1.0 200") {
        return Err(format!(
            "admin answered {:?}",
            reply.lines().next().unwrap_or("")
        ));
    }
    let body = reply.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((next_slot_on_page(body), body.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_peak_rss_excludes_the_generator() {
        // A parent holding about 200 MiB, as the generator does with
        // the ingest stream.
        let ballast = std::hint::black_box(vec![1u8; 200 << 20]);
        let dir = RunDir::fresh(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../.bench_runs")
                .join(format!("selftest-rss-{}", std::process::id())),
        )
        .expect("run dir");
        let mut tiny = dir
            .spawn(Path::new("sleep"), &["0.3".to_owned()], "tiny")
            .expect("spawns");
        // Let `sh`'s forked child reach its exec.
        std::thread::sleep(Duration::from_millis(100));
        let exe = std::fs::read_link(format!("/proc/{}/exe", tiny.pid)).expect("live");
        assert!(
            exe.ends_with("sleep"),
            "{} is not the program",
            exe.display()
        );
        let usage = tiny.reap().expect("reaps");
        assert!(usage.success);
        assert!(
            usage.peak_rss_mb < 32.0,
            "a tiny child reports {:.1} MiB",
            usage.peak_rss_mb
        );
        // The same child started directly inherits the parent's peak.
        // `Proc::reap` reaps it with `wait4`.
        #[allow(clippy::zombie_processes)]
        let child = Command::new("true").spawn().expect("spawns");
        let mut direct = Proc {
            pid: i32::try_from(child.id()).expect("pid"),
            reaped: None,
        };
        let inherited = direct.reap().expect("reaps").peak_rss_mb;
        assert!(inherited > 150.0, "direct spawn reports {inherited:.1} MiB");
        drop(ballast);
    }

    #[test]
    fn metrics_parser_reads_serve_next_slot() {
        let mut rec = cne_util::Recorder::new();
        rec.set_label("stream", "ops");
        rec.gauge("serve.next_slot", 42.0);
        rec.gauge("serve.next_slot_extra", 7.0);
        rec.incr("serve.slots", 42);
        let page = cne_util::expo::render(&[&rec]).expect("renders");
        assert_eq!(next_slot_on_page(&page), Some(42));
        let parsed = cne_util::expo::parse(&page).expect("parses");
        assert_eq!(parsed.value("serve_next_slot", &[]), Some(42.0));
        assert_eq!(next_slot_on_page("# TYPE serve_slots counter\n"), None);
    }
}
