//! Hostile-input properties of the HTTP reader: any byte stream yields a
//! parsed message or a typed `io::Error` — never a panic — and a head
//! that never ends is rejected after a bounded read.

use proptest::prelude::*;
use qt_serve::http::{read_message, MAX_HEAD_BYTES};
use std::io::{self, Read};

/// A reader that counts the bytes its caller pulled out of `inner`.
struct Counting<R> {
    inner: R,
    read: usize,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

fn request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: qt-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: `Ok` or a typed error, never a panic.
    #[test]
    fn arbitrary_streams_never_panic(bytes in arb_bytes()) {
        let _ = read_message(bytes.as_slice());
    }

    /// A well-formed head followed by arbitrary bytes: the reader never
    /// panics, and a body it accepts is exactly the declared length.
    #[test]
    fn arbitrary_bodies_after_a_valid_head_never_panic(
        declared in 0usize..700,
        bytes in arb_bytes(),
    ) {
        let mut input =
            format!("POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        input.extend_from_slice(&bytes);
        if let Ok(msg) = read_message(input.as_slice()) {
            prop_assert_eq!(msg.body.len(), declared);
            prop_assert!(declared <= bytes.len());
        }
    }
}

#[test]
fn newline_free_head_is_rejected_after_a_bounded_read() {
    let mut source = Counting {
        inner: io::repeat(b'a').take(1 << 20),
        read: 0,
    };
    let err = read_message(&mut source).expect_err("a 1 MiB head must be rejected");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("too large"), "{err}");
    assert!(
        source.read <= MAX_HEAD_BYTES + 1,
        "read {} bytes of an unterminated head",
        source.read
    );
}

#[test]
fn valid_messages_parse_and_trailing_bytes_are_ignored() {
    // A body longer than the reader's internal buffer, so part of it is
    // buffered with the head and the rest is read past it.
    let body = "x".repeat(20_000);
    for input in [request(""), request("{}"), request(&body)] {
        let msg = read_message(input.as_slice()).expect("well-formed request");
        assert_eq!(msg.method, "POST");
        assert_eq!(msg.path, "/v1/jobs");
        assert!(input.ends_with(msg.body.as_bytes()));
    }
    let mut trailing = request("{}");
    trailing.extend_from_slice(b"garbage after the body");
    assert_eq!(read_message(trailing.as_slice()).unwrap().body, "{}");
}

#[test]
fn short_bodies_and_oversized_declarations_are_typed_errors() {
    let short = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
    let err = read_message(&short[..]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

    let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
    assert_eq!(
        read_message(huge.as_bytes()).unwrap_err().kind(),
        io::ErrorKind::InvalidData
    );

    // A head of exactly the limit parses; one byte more does not.
    let pad = |n: usize| {
        let fixed = "GET /health HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        format!(
            "GET /health HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(n - fixed)
        )
    };
    assert!(read_message(pad(MAX_HEAD_BYTES).as_bytes()).is_ok());
    assert_eq!(
        read_message(pad(MAX_HEAD_BYTES + 1).as_bytes())
            .unwrap_err()
            .kind(),
        io::ErrorKind::InvalidData
    );
}
