//! Fault injection on the TCP transport: protocol violations, abrupt
//! disconnects, and oversized frames must not take a broker down.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use psguard_model::{Event, Filter};
use psguard_siena::wire::{Message, MAX_FRAME};
use psguard_siena::{spawn_broker, FramePool, TcpClient};

const ACK_WAIT: Duration = Duration::from_secs(5);

fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

#[test]
fn garbage_frames_do_not_kill_the_broker() {
    let broker = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn");

    // A hostile peer sends a well-framed but undecodable payload…
    {
        let mut s = TcpStream::connect(broker.addr()).expect("connect");
        let payload = [0xff, 0xfe, 0xfd];
        s.write_all(&(payload.len() as u32).to_be_bytes())
            .expect("write");
        s.write_all(&payload).expect("write");
        sleep_ms(100);
    }
    // …and another sends raw garbage that is not even a frame.
    {
        let mut s = TcpStream::connect(broker.addr()).expect("connect");
        s.write_all(&[0u8; 3]).expect("write");
        // Dropping mid-frame simulates a crash.
    }
    // …and a third sends a zero-length frame, which decodes to no
    // message: the broker closes that connection.
    {
        let mut s = TcpStream::connect(broker.addr()).expect("connect");
        s.write_all(&[0u8; 4]).expect("write");
        s.set_read_timeout(Some(ACK_WAIT)).expect("timeout");
        // EOF or a reset, not a timeout: the broker dropped this peer.
        if let Err(e) = s.read_to_end(&mut Vec::new()) {
            let timed_out = matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            );
            assert!(!timed_out, "zero-length frame did not get the peer dropped");
        }
    }

    // The broker still serves well-behaved clients.
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    let e = Event::builder("t").payload(vec![1]).build();
    publisher.publish(e.clone()).expect("publish");
    assert_eq!(sub.recv_timeout(Duration::from_secs(5)), Some(e));
    broker.shutdown();
}

#[test]
fn oversized_frame_drops_only_the_offender() {
    let broker = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn");
    {
        let mut s = TcpStream::connect(broker.addr()).expect("connect");
        // Declare a frame bigger than MAX_FRAME; the reader must bail out.
        s.write_all(&((MAX_FRAME as u32 + 1).to_be_bytes()))
            .expect("write");
        s.write_all(&[0u8; 64]).expect("write");
        sleep_ms(150);
    }
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    publisher
        .publish(Event::builder("t").build())
        .expect("publish");
    assert!(sub.recv_timeout(Duration::from_secs(5)).is_some());
    broker.shutdown();
}

#[test]
fn subscriber_disconnect_cleans_registrations() {
    let broker = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn");
    {
        let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
        sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
            .expect("acked");
        // Dropped here: the broker must clear the peer's table entries.
    }
    sleep_ms(300);
    // Publishing now must not panic or wedge the broker; there is nobody
    // to deliver to.
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    publisher
        .publish(Event::builder("t").build())
        .expect("publish");
    // Same-connection barrier: frames on one connection are processed in
    // order, so this ack proves the broker consumed the publish above
    // before the fresh subscriber below can register.
    publisher
        .subscribe_acked(Filter::for_topic("barrier"), ACK_WAIT)
        .expect("acked");
    // A fresh subscriber works as usual.
    let sub2: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub2.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    let e = Event::builder("t").payload(vec![9]).build();
    publisher.publish(e.clone()).expect("publish");
    assert_eq!(sub2.recv_timeout(Duration::from_secs(5)), Some(e));
    broker.shutdown();
}

#[test]
fn foreign_unsubscribe_is_a_tolerated_noop() {
    let broker = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn");
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    publisher
        .publish(Event::builder("t").payload(vec![1]).build())
        .expect("publish");
    assert!(sub.recv_timeout(Duration::from_secs(5)).is_some());

    // An unrelated connection sends an unsubscribe for a filter it never
    // registered: the broker must shrug it off.
    let msg: Message<Filter, Event> = Message::Unsubscribe(Filter::for_topic("t"));
    let mut raw = TcpStream::connect(broker.addr()).expect("connect");
    FramePool::new()
        .encode(&msg)
        .write_to(&mut raw)
        .expect("write");
    sleep_ms(100);

    // The real subscriber still receives events.
    publisher
        .publish(Event::builder("t").payload(vec![2]).build())
        .expect("publish");
    assert!(sub.recv_timeout(Duration::from_secs(5)).is_some());
    broker.shutdown();
}
