//! The `netrel-serve` child process: one client, one request in flight.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};

pub struct Server {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the server with its shipped defaults (metrics on, workers =
    /// available parallelism): no flags.
    pub fn spawn(bin: &Path) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok(Server {
            child,
            stdin: Some(BufWriter::new(stdin)),
            stdout: BufReader::new(stdout),
        })
    }

    /// Send one request line and block for its response line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let stdin = self.stdin.as_mut().expect("server is running");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut response = String::new();
        if self.stdout.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "netrel-serve closed its stdout",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
    }

    /// Close stdin (the server's normal shutdown) and wait for it.
    pub fn shutdown(mut self) -> io::Result<ExitStatus> {
        drop(self.stdin.take());
        self.child.wait()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            // An error path left the server running: stop it and reap it.
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
