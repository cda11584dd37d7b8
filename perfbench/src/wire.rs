//! A `nanopowerd/v1` client connection: one request line out, streamed
//! record lines and one terminal line back.

use nanopower::proto::{RecordMsg, Response};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// How long a reply may take before the connection is declared dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon's answer to one request line.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Record lines, in arrival order.
    pub records: Vec<RecordMsg>,
    /// The terminal line (report, stats, health, or a typed rejection).
    pub terminal: Response,
    /// Bytes written (request line) plus bytes read (every reply line).
    pub bytes: usize,
}

/// One open connection to a daemon.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects to the daemon's unix socket and consumes its hello line.
    pub fn connect(path: &Path) -> Result<Conn, String> {
        let stream =
            UnixStream::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
        Conn::from_stream(stream)
    }

    /// Wraps an already-connected stream and consumes its hello line.
    pub fn from_stream(stream: UnixStream) -> Result<Conn, String> {
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        match conn.read_response()?.0 {
            Response::Hello(_) => Ok(conn),
            other => Err(format!("expected hello, got {other:?}")),
        }
    }

    fn read_response(&mut self) -> Result<(Response, usize), String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed by the daemon".into());
        }
        Response::parse(line.trim_end())
            .map(|r| (r, n))
            .map_err(|e| format!("unparseable reply {:?}: {e}", line.trim_end()))
    }

    /// Sends one request line and reads records until the terminal line.
    pub fn call(&mut self, line: &str) -> Result<Reply, String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut bytes = out.len();
        let mut records = Vec::new();
        loop {
            let (response, n) = self.read_response()?;
            bytes += n;
            match response {
                Response::Record(record) => records.push(record),
                terminal => {
                    return Ok(Reply {
                        records,
                        terminal,
                        bytes,
                    })
                }
            }
        }
    }
}
