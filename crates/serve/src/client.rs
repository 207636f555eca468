//! A line-protocol client for the daemon — the library behind
//! `tdp-client`, and what the serve tests drive the server with.

use crate::protocol::SubmitRequest;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use tdp_jsonio::JsonValue;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-response).
    Io(std::io::Error),
    /// The server's bytes were not a valid response line.
    Protocol(String),
    /// The server answered `{"ok":false,...}`.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a `tdp-serve` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Reused per request: the line and its newline leave in one write.
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr`, retrying for up to `retry` (pass
    /// `Duration::ZERO` for a single attempt). Retrying covers the
    /// daemon-still-booting window in scripts that start the server in
    /// the background.
    ///
    /// # Errors
    ///
    /// Returns the last connect error once the deadline passes.
    pub fn connect(addr: impl ToSocketAddrs + Copy, retry: Duration) -> std::io::Result<Self> {
        let deadline = Instant::now() + retry;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    // One request is one segment; without NODELAY a
                    // request written after a reply waits on Nagle.
                    stream.set_nodelay(true)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Self {
                        writer: stream,
                        reader,
                        buf: Vec::new(),
                    });
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Sends one raw request line and returns the parsed response
    /// object; `{"ok":false}` responses become [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn roundtrip(&mut self, request: &str) -> Result<JsonValue, ClientError> {
        self.send(request)?;
        let doc = self.read_value()?;
        check_ok(doc)
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)
    }

    fn read_value(&mut self) -> Result<JsonValue, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        tdp_jsonio::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("{e} in {line:?}")))
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<usize, ClientError> {
        let doc = self.roundtrip(&req.encode())?;
        doc.get("job")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| ClientError::Protocol("submit response lacks \"job\"".into()))
    }

    /// Non-blocking state poll.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn status(&mut self, job: usize) -> Result<JsonValue, ClientError> {
        self.roundtrip(&format!("{{\"cmd\":\"status\",\"job\":{job}}}"))
    }

    /// Blocks server-side until the job is terminal; returns the final
    /// status object (with its `"report"`).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn wait(&mut self, job: usize) -> Result<JsonValue, ClientError> {
        self.roundtrip(&format!("{{\"cmd\":\"wait\",\"job\":{job}}}"))
    }

    /// Requests cancellation (takes effect at the job's next observer
    /// callback).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn cancel(&mut self, job: usize) -> Result<JsonValue, ClientError> {
        self.roundtrip(&format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"))
    }

    /// Server counters.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip("{\"cmd\":\"metrics\"}")
    }

    /// Server counters in Prometheus text exposition format — the
    /// scrape body, ready to serve to a scraper or print.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let doc = self.roundtrip("{\"cmd\":\"metrics_text\"}")?;
        doc.get("text")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics_text response lacks \"text\"".into()))
    }

    /// Dumps the server's resident span ring as a Chrome trace
    /// document (the `"trace"` value — load it in Perfetto or
    /// `chrome://tracing` after writing it to a file).
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; notably [`ClientError::Server`] when the
    /// daemon runs with `--trace-ring 0`.
    pub fn trace(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip("{\"cmd\":\"trace_dump\"}")
    }

    /// Asks the server to stop; returns its acknowledgement.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip("{\"cmd\":\"shutdown\"}")
    }

    /// Opens an ECO session on this connection, pinning the named
    /// case's session resident.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; notably [`ClientError::Server`] when the
    /// cache is fully pinned or another ECO session is already open
    /// here.
    pub fn eco_open(&mut self, case: &str) -> Result<JsonValue, ClientError> {
        let mut s = String::from("{\"cmd\":\"eco_open\"");
        tdp_jsonio::field_str(&mut s, "case", case);
        s.push('}');
        self.roundtrip(&s)
    }

    /// Applies a delta batch (raw JSON array in the `eco` wire grammar)
    /// to the connection's ECO session.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn eco_apply(&mut self, deltas: &str) -> Result<JsonValue, ClientError> {
        let mut s = String::from("{\"cmd\":\"eco_apply\"");
        tdp_jsonio::field_raw(&mut s, "deltas", deltas);
        s.push('}');
        self.roundtrip(&s)
    }

    /// Queries the ECO session; `mode` (`"incremental"`/`"full"`)
    /// forces a re-analysis before the readout, `None` reads the
    /// current state.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn eco_query(
        &mut self,
        mode: Option<&str>,
        paths: usize,
    ) -> Result<JsonValue, ClientError> {
        let mut s = String::from("{\"cmd\":\"eco_query\"");
        if let Some(mode) = mode {
            tdp_jsonio::field_str(&mut s, "mode", mode);
        }
        tdp_jsonio::field_num(&mut s, "paths", paths as f64);
        s.push('}');
        self.roundtrip(&s)
    }

    /// Rolls the ECO session back to checkpoint `to` (or one batch).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn eco_revert(&mut self, to: Option<usize>) -> Result<JsonValue, ClientError> {
        let mut s = String::from("{\"cmd\":\"eco_revert\"");
        if let Some(to) = to {
            tdp_jsonio::field_num(&mut s, "to", to as f64);
        }
        s.push('}');
        self.roundtrip(&s)
    }

    /// Closes the ECO session, releasing its cache pin; the response
    /// carries the session's cumulative stats.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn eco_close(&mut self) -> Result<JsonValue, ClientError> {
        self.roundtrip("{\"cmd\":\"eco_close\"}")
    }

    /// Streams the job's events from index `from`, invoking `on_event`
    /// per event object, until a terminal line (returned): `finished`
    /// (full replay/live stream) or `end` (when `from` already points
    /// past the job's terminal event — both carry `"state"`).
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a stream that ends without a terminal event
    /// (server shut down mid-stream) is an I/O error.
    pub fn events(
        &mut self,
        job: usize,
        from: usize,
        mut on_event: impl FnMut(&JsonValue),
    ) -> Result<JsonValue, ClientError> {
        self.send(&format!(
            "{{\"cmd\":\"events\",\"job\":{job},\"from\":{from}}}"
        ))?;
        loop {
            let doc = self.read_value()?;
            if doc.get("ok").is_some() {
                // An error response instead of a stream (unknown job).
                return check_ok(doc).map(|_| unreachable!("ok responses have no event stream"));
            }
            let kind = doc
                .get("event")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ClientError::Protocol("event line lacks \"event\"".into()))?
                .to_string();
            on_event(&doc);
            if kind == "finished" || kind == "end" {
                return Ok(doc);
            }
        }
    }
}

fn check_ok(doc: JsonValue) -> Result<JsonValue, ClientError> {
    match doc.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(doc),
        Some(false) => {
            let msg = doc
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified server error");
            let at = match (
                doc.get("line").and_then(JsonValue::as_usize),
                doc.get("col").and_then(JsonValue::as_usize),
            ) {
                (Some(l), Some(c)) => format!(" (at line {l} col {c})"),
                _ => String::new(),
            };
            Err(ClientError::Server(format!("{msg}{at}")))
        }
        None => Err(ClientError::Protocol(format!(
            "response lacks \"ok\": {}",
            doc.encode()
        ))),
    }
}
