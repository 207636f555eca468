//! The TCP side of a connection: registration for shutdown, the read
//! loop with its request-line cap, and the write framing. Everything a
//! request *means* is [`Connection::serve_line`]'s business.

use super::{Connection, Shared};
use crate::protocol::ProtoError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Longest request line the daemon reads, newline excluded. A client
/// that sends more without a newline gets one error reply and the
/// connection is closed, so no peer can make the daemon buffer an
/// unbounded line.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// A connection's write half. Writes only fill a reused buffer; `flush`
/// sends it with a single `write_all`. [`Connection`] flushes once per
/// message — one response line, or a batch of `events` lines — so with
/// `TCP_NODELAY` set a message leaves as one segment rather than a line
/// and a lone `\n` that Nagle holds back until the peer's delayed ACK.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Wire {
    /// Buffer capacity kept between messages; a larger message (a
    /// `trace_dump`, a long event replay) releases its excess after
    /// sending rather than holding it for the connection's lifetime.
    const KEEP: usize = 64 << 10;
}

impl Write for Wire {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.stream.write_all(&self.buf);
        self.buf.clear();
        self.buf.shrink_to(Self::KEEP);
        sent
    }
}

impl Shared {
    /// Registers a connection for shutdown teardown; `false` means the
    /// connection is refused — either the server is shutting down, or
    /// the stream could not be cloned into the registry (in which case
    /// serving it would leave a blocking read that
    /// [`Shared::initiate_shutdown`] can never unblock).
    fn register_conn(&self, stream: &TcpStream, id: u64) -> bool {
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        let mut conns = self.conns.lock().expect("conns lock");
        conns.insert(id, clone);
        // Checked under the conns lock: `initiate_shutdown` sets the
        // flag before sweeping this map, so either we see the flag here
        // or the sweep sees our entry — never neither.
        if self.shutting_down.load(Ordering::SeqCst) {
            conns.remove(&id);
            false
        } else {
            true
        }
    }
}

/// A handler thread's body: serve the connection, then hand its id to
/// the acceptor for reaping.
pub(super) fn handle_connection(shared: Arc<Shared>, stream: TcpStream, conn_id: u64) {
    if shared.register_conn(&stream, conn_id) {
        serve_stream(&shared, stream);
        // Drop the registry entry (and its fd).
        shared.conns.lock().expect("conns lock").remove(&conn_id);
    } else {
        let _ = stream.shutdown(Shutdown::Both);
    }
    // On every exit path — refused connections included — hand this
    // handler's id to the acceptor so its JoinHandle is reaped.
    shared
        .dead_conns
        .lock()
        .expect("dead conns lock")
        .push(conn_id);
}

/// The per-connection read loop; returns on EOF, socket teardown, a
/// failed write or an over-long line. Dropping the [`Connection`] at the
/// end closes its ECO session even when the client never sent
/// `eco_close`.
fn serve_stream(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Best effort: without it replies are merely slower, never wrong.
    let _ = stream.set_nodelay(true);
    let mut wire = Wire {
        stream,
        buf: Vec::new(),
    };
    let mut reader = BufReader::new(read_half);
    let mut conn = Connection::open(Arc::clone(shared));
    let mut line = Vec::new();
    loop {
        line.clear();
        line.shrink_to(Wire::KEEP);
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break, // EOF or torn-down socket
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            let _ = writeln!(wire, "{}", ProtoError::new(msg).to_response());
            let _ = wire.flush();
            let _ = wire.stream.shutdown(Shutdown::Write);
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        if conn.serve_line(text, &mut wire).is_err() {
            break; // client went away mid-response
        }
    }
}
