//! The node-to-node wire protocol: length-prefixed JSON frames over
//! `std::net::TcpStream`.
//!
//! The build environment has no registry access (the constraint the
//! HTTP layer and the JSON module already live under), so the protocol
//! is deliberately primitive: a 4-byte big-endian length, then that many
//! bytes of compact JSON rendered by the in-repo
//! [`hetmem_xplore::json`] writer. Connections are one-shot — connect,
//! send one request frame, read one reply frame, close — which keeps
//! the peer side a plain accept loop with no multiplexing, ordering, or
//! keep-alive state. At cluster fan-outs of a handful of nodes the
//! extra connects are noise next to a simulation.
//!
//! Every message is an object with a `"kind"` discriminator; the
//! request/reply vocabulary lives in [`crate::node`].

use hetmem_sim::SimError;
use hetmem_xplore::json::{parse, Json};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs as _};
use std::time::Duration;

/// Upper bound on one frame's JSON payload. Replicated sweep records
/// and metrics snapshots are a few KB; the bound only exists so a
/// garbage length prefix cannot allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// How long a connect to a peer may take before the peer counts as
/// unavailable. Loopback and LAN peers answer (or refuse) far faster.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Writes one frame: 4-byte big-endian length, then the rendered JSON.
///
/// # Errors
///
/// Returns an error when the value renders larger than
/// [`MAX_FRAME_BYTES`] or the socket write fails.
pub fn write_frame(stream: &mut TcpStream, value: &Json) -> std::io::Result<()> {
    let body = value.render();
    if body.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds limit", body.len()),
        ));
    }
    let len = u32::try_from(body.len()).expect("bounded above");
    // One buffered write for prefix + body: two small writes would
    // interact with Nagle's algorithm and delayed ACKs, stalling every
    // request/reply round-trip by up to 40ms even on loopback.
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    stream.write_all(&frame)?;
    stream.flush()
}

/// Reads one frame and parses its JSON payload.
///
/// # Errors
///
/// Returns an error on socket failure, an oversized length prefix, or
/// a payload that is not valid JSON.
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Json> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    parse(&text).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad frame: {e}"))
    })
}

/// Resolves `addr` to its first socket address.
///
/// # Errors
///
/// Returns [`SimError::PeerUnavailable`] when the address does not
/// resolve.
pub fn resolve(addr: &str) -> Result<SocketAddr, SimError> {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| SimError::PeerUnavailable {
            peer: addr.to_owned(),
        })
}

/// One request/reply exchange with the peer at `addr`: connect (bounded
/// by [`CONNECT_TIMEOUT`]), send `request`, read the reply within
/// `read_timeout`.
///
/// # Errors
///
/// Returns [`SimError::PeerUnavailable`] on any failure — connect,
/// send, receive, or a malformed reply. The caller treats all of them
/// the same way: the peer is gone, route around it.
pub fn call(addr: &str, request: &Json, read_timeout: Duration) -> Result<Json, SimError> {
    let unavailable = || SimError::PeerUnavailable {
        peer: addr.to_owned(),
    };
    let socket = resolve(addr)?;
    let mut stream =
        TcpStream::connect_timeout(&socket, CONNECT_TIMEOUT).map_err(|_| unavailable())?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|_| unavailable())?;
    stream
        .set_write_timeout(Some(CONNECT_TIMEOUT))
        .map_err(|_| unavailable())?;
    write_frame(&mut stream, request).map_err(|_| unavailable())?;
    read_frame(&mut stream).map_err(|_| unavailable())
}

/// A minimal HTTP GET against a serve node, used by the join handshake
/// to probe `GET /v1/health` before admitting a peer. Returns the
/// response body (headers stripped); the status line is not inspected —
/// the caller greps the readiness field either way.
///
/// # Errors
///
/// Returns [`SimError::PeerUnavailable`] when the peer cannot be
/// reached or answers nothing.
pub fn http_get(addr: &str, path: &str) -> Result<String, SimError> {
    let unavailable = || SimError::PeerUnavailable {
        peer: addr.to_owned(),
    };
    let socket = resolve(addr)?;
    let mut stream =
        TcpStream::connect_timeout(&socket, CONNECT_TIMEOUT).map_err(|_| unavailable())?;
    stream
        .set_read_timeout(Some(CONNECT_TIMEOUT))
        .map_err(|_| unavailable())?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\n\r\n").as_bytes())
        .map_err(|_| unavailable())?;
    // The serve layer answers `connection: close`, so EOF delimits.
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|_| unavailable())?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or(raw.as_str(), |(_, body)| body);
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sent = Json::obj(vec![
            ("kind", Json::Str("reply".to_owned())),
            ("status", Json::UInt(200)),
        ]);
        let expected = sent.clone();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let got = read_frame(&mut conn).expect("read");
            assert_eq!(got, expected);
            write_frame(&mut conn, &got).expect("write");
        });
        let reply = call(&addr.to_string(), &sent, Duration::from_secs(5)).expect("call");
        assert_eq!(reply, sent);
        echo.join().expect("echo thread");
    }

    #[test]
    fn oversized_and_garbage_frames_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // A length prefix far past the frame bound, then junk JSON.
            let (mut conn, _) = listener.accept().expect("accept");
            assert!(read_frame(&mut conn).is_err());
            let (mut conn, _) = listener.accept().expect("accept");
            conn.write_all(&5u32.to_be_bytes()).expect("len");
            conn.write_all(b"{oops").expect("body");
        });
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(&u32::MAX.to_be_bytes()).expect("len");
        drop(conn);
        let mut conn = TcpStream::connect(addr).expect("connect");
        assert!(read_frame(&mut conn).is_err());
        server.join().expect("server thread");
    }

    #[test]
    fn dead_peers_map_to_the_typed_error() {
        // Bind-then-drop guarantees a refused port.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let err = call(
            &addr,
            &Json::obj(vec![("kind", Json::Str("heartbeat".to_owned()))]),
            Duration::from_millis(200),
        )
        .expect_err("refused");
        assert_eq!(err, SimError::PeerUnavailable { peer: addr });
        assert!(matches!(
            resolve("not an address"),
            Err(SimError::PeerUnavailable { .. })
        ));
    }
}
