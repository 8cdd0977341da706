//! A one-request-per-connection HTTP/1.1 client, as today's hetmem
//! clients make them, that times connect, first byte and completion.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd as _;
use std::os::raw::{c_int, c_void};
use std::time::{Duration, Instant};

/// Per-request socket timeout: a request slower than this counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A finished exchange.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body (headers stripped).
    pub body: String,
    /// Until the TCP connection was established.
    pub connect: Duration,
    /// Until the first response byte arrived.
    pub ttfb: Duration,
    /// Until the server closed the connection.
    pub total: Duration,
}

/// Sends one request on a fresh connection and reads the reply to EOF.
///
/// # Errors
///
/// Returns the I/O error on connect, write, read or timeout failure, or
/// `InvalidData` on a malformed status line.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connect = start.elapsed();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(format!("{head}{body}").as_bytes())?;
    let mut raw = Vec::with_capacity(4096);
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let ttfb = start.elapsed();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let total = start.elapsed();
    close_without_time_wait(stream)?;
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 reply"))?;
    let invalid = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply");
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    let (_, body) = text.split_once("\r\n\r\n").ok_or_else(invalid)?;
    Ok(Reply {
        status,
        body: body.to_owned(),
        connect,
        ttfb,
        total,
    })
}

#[repr(C)]
struct Linger {
    l_onoff: c_int,
    l_linger: c_int,
}

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

/// `SOL_SOCKET` and `SO_LINGER` on Linux.
const SOL_SOCKET: c_int = 1;
const SO_LINGER: c_int = 13;

/// Closes a finished exchange with a reset (`SO_LINGER` 0) instead of a
/// FIN. The server has already closed its side, so the reset only frees
/// the server's socket: neither end keeps the connection in TIME_WAIT.
/// A run sends tens of thousands of one-shot requests. Left in TIME_WAIT
/// for a minute, they would fill the kernel's table and slow the runs that
/// follow.
fn close_without_time_wait(stream: TcpStream) -> std::io::Result<()> {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is open for the duration of the call (the
    // stream is dropped afterwards), and `linger` is a live `struct linger`
    // whose exact size is passed as the option length.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            std::ptr::addr_of!(linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    drop(stream);
    Ok(())
}

/// Polls `GET /v1/health` until the node reports ready or `limit` passes.
///
/// # Errors
///
/// Returns a message when the node never becomes ready.
pub fn wait_ready(addr: SocketAddr, limit: Duration) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    loop {
        if let Ok(reply) = request(addr, "GET", "/v1/health", "") {
            if reply.status == 200 && reply.body.contains("\"ready\":true") {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never reported ready"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
