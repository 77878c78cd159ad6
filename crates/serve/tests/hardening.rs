//! Connection-hardening tests over real sockets: the per-connection frame
//! and byte budgets, the server's refusal of oversized announcements, a
//! drain that a busy client cannot stall, and the client's refusal of a
//! malicious server's length prefix.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use retypd_serve::wire::{read_frame, write_frame, MAX_FRAME_BYTES};
use retypd_serve::{start, Client, ClientError, Request, Response, ServeConfig};

fn config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn frame_budget_breach_gets_an_error_then_close() {
    let handle = start(ServeConfig {
        max_frames_per_conn: Some(3),
        ..config()
    })
    .expect("bind");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    // Frames within the budget are served normally...
    for _ in 0..3 {
        write_frame(&mut s, &Request::Stats.encode()).unwrap();
        let p = read_frame(&mut s).unwrap().expect("reply within budget");
        assert!(matches!(Response::decode(&p).unwrap(), Response::Stats(_)));
    }
    // ...the frame that crosses it gets an error naming the limit, then EOF.
    write_frame(&mut s, &Request::Stats.encode()).unwrap();
    let p = read_frame(&mut s).unwrap().expect("refusal frame");
    match Response::decode(&p).unwrap() {
        Response::Error(m) => assert!(m.contains("frame budget"), "{m}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(read_frame(&mut s).unwrap(), None, "connection closed after refusal");
    // The budget is per connection, not per server: a fresh connection
    // starts with a fresh budget.
    let mut fresh = Client::connect(handle.addr()).expect("connect");
    fresh.stats().expect("new connection serves normally");
    handle.shutdown();
}

#[test]
fn byte_budget_breach_gets_an_error_then_close() {
    let frame_cost = 4 + Request::Stats.encode().len() as u64;
    // Exactly two stats frames fit; the third crosses the budget.
    let handle = start(ServeConfig {
        max_bytes_per_conn: Some(2 * frame_cost),
        ..config()
    })
    .expect("bind");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    for _ in 0..2 {
        write_frame(&mut s, &Request::Stats.encode()).unwrap();
        let p = read_frame(&mut s).unwrap().expect("reply within budget");
        assert!(matches!(Response::decode(&p).unwrap(), Response::Stats(_)));
    }
    write_frame(&mut s, &Request::Stats.encode()).unwrap();
    let p = read_frame(&mut s).unwrap().expect("refusal frame");
    match Response::decode(&p).unwrap() {
        Response::Error(m) => assert!(m.contains("byte budget"), "{m}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(read_frame(&mut s).unwrap(), None, "connection closed after refusal");
    handle.shutdown();
}

#[test]
fn server_refuses_an_oversized_announcement_politely() {
    let handle = start(config()).expect("bind");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    // Announce a frame over MAX_FRAME_BYTES; the server must say why
    // before closing instead of a bare reset, and must not allocate it.
    s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let p = read_frame(&mut s).unwrap().expect("error frame");
    match Response::decode(&p).unwrap() {
        Response::Error(m) => assert!(m.contains("over cap"), "{m}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn a_trickled_giant_frame_is_dropped_without_a_reply() {
    // Announce the largest legal frame but deliver almost none of it: the
    // polled reader grows its buffer with *delivered* bytes (not the
    // announcement — the fuzz harness's counting allocator pins that), so
    // the half-close below is a truncated frame and the server just closes.
    let handle = start(config()).expect("bind");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.write_all(&(MAX_FRAME_BYTES as u32).to_be_bytes()).unwrap();
    s.write_all(b"12345678").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(
        read_frame(&mut s).unwrap(),
        None,
        "truncated frame closes without a reply"
    );
    handle.shutdown();
}

#[test]
fn a_client_polling_faster_than_the_read_tick_cannot_stall_the_drain() {
    // A supervisor's health probe: one stats request every 20 ms on one
    // kept-alive connection, so the handler's read never sits idle for a
    // whole poll tick. The drain must still close it and finish.
    let handle = start(config()).expect("bind");
    let addr = handle.addr();
    let prober = retypd_core::sync::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        while client.stats().is_ok() {
            retypd_core::sync::thread::sleep(Duration::from_millis(20));
        }
    });
    retypd_core::sync::thread::sleep(Duration::from_millis(200));
    let (done_tx, done_rx) = retypd_core::sync::mpsc::channel();
    retypd_core::sync::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("drain finished while the client kept polling");
    prober.join().expect("prober sees the close and stops");
}

#[test]
fn client_refuses_a_malicious_length_prefix() {
    // A hostile "server" that answers any request by announcing a 4 GiB
    // frame. The client must refuse the announcement up front — not
    // attempt a multi-GiB allocation.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let attacker = retypd_core::sync::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let _ = read_frame(&mut s);
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        s.flush().unwrap();
        // Hold the socket open until the client hangs up, so the client
        // fails on the prefix rather than on EOF.
        let mut sink = [0u8; 64];
        while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
    });
    let mut client = Client::connect(addr).expect("connect");
    match client.stats() {
        Err(ClientError::Wire(e)) => assert!(e.to_string().contains("over cap"), "{e}"),
        other => panic!("expected a wire error, got {other:?}"),
    }
    drop(client);
    attacker.join().unwrap();
}
