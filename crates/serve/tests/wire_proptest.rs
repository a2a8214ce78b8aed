//! Property tests for the wire codec (satellite: codec round-trip + total
//! decoding).
//!
//! Three properties, all via the `pc-rng` shrinking harness:
//! 1. encode→decode is the identity for arbitrary requests and responses;
//! 2. every truncation of a valid payload decodes to a clean typed error;
//! 3. arbitrary byte corruption (and fully random payloads) never panic —
//!    the decoder is total.

use pc_pagestore::{Interval, Point};
use pc_rng::check::{check, shrink_vec, Config};
use pc_rng::Rng;
use pc_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, Body, ErrorCode, Op,
    Request, Response, SlowEntry, WireSpan,
};

fn arb_point(rng: &mut Rng) -> Point {
    Point { x: rng.next_u64() as i64, y: rng.next_u64() as i64, id: rng.next_u64() }
}

fn arb_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..13usize) {
        0 => Op::Range1d { lo: rng.next_u64() as i64, hi: rng.next_u64() as i64 },
        1 => Op::Stab { q: rng.next_u64() as i64 },
        2 => Op::TwoSided { x0: rng.next_u64() as i64, y0: rng.next_u64() as i64 },
        3 => Op::ThreeSided {
            x1: rng.next_u64() as i64,
            x2: rng.next_u64() as i64,
            y0: rng.next_u64() as i64,
        },
        4 => Op::Insert(arb_point(rng)),
        5 => Op::Delete(arb_point(rng)),
        6 => Op::Ping,
        7 => Op::Stats,
        8 => Op::Metrics,
        9 => Op::Shutdown,
        10 => Op::SlowLog { k: rng.next_u64() as u32, clear: rng.gen_bool(0.5) },
        11 => Op::Versions,
        _ => Op::SetSampling { every: rng.next_u64() },
    }
}

fn arb_request(rng: &mut Rng) -> Request {
    Request {
        id: rng.next_u64(),
        target: rng.next_u64() as u16,
        deadline_ms: rng.next_u64() as u32,
        flags: rng.next_u64() as u8,
        as_of: if rng.gen_bool(0.5) { 0 } else { rng.next_u64() },
        op: arb_op(rng),
    }
}

fn arb_string(rng: &mut Rng, max: usize) -> String {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| char::from(rng.gen_range(32u64..127) as u8)).collect()
}

fn arb_span(rng: &mut Rng) -> WireSpan {
    WireSpan {
        depth: rng.next_u64() as u16,
        output: rng.gen_bool(0.5),
        name: arb_string(rng, 24),
        arg: rng.next_u64(),
        reads: rng.next_u64(),
        writes: rng.next_u64(),
        cache_hits: rng.next_u64(),
        self_reads: rng.next_u64(),
        items: rng.next_u64(),
        block_capacity: rng.next_u64(),
        wasteful: rng.next_u64(),
    }
}

fn arb_slow_entry(rng: &mut Rng) -> SlowEntry {
    let nspans = rng.gen_range(0..6usize);
    SlowEntry {
        request_id: rng.next_u64(),
        op: arb_string(rng, 16),
        target: arb_string(rng, 24),
        rankings: rng.next_u64() as u8,
        latency_ns: rng.next_u64(),
        total_io: rng.next_u64(),
        search_ios: rng.next_u64(),
        wasteful_ios: rng.next_u64(),
        items: rng.next_u64(),
        spans: (0..nspans).map(|_| arb_span(rng)).collect(),
    }
}

fn arb_body(rng: &mut Rng) -> Body {
    match rng.gen_range(0..11usize) {
        0 => {
            let n = rng.gen_range(0..50usize);
            Body::Points((0..n).map(|_| arb_point(rng)).collect())
        }
        1 => {
            let n = rng.gen_range(0..50usize);
            Body::Intervals(
                (0..n)
                    .map(|_| Interval {
                        lo: rng.next_u64() as i64,
                        hi: rng.next_u64() as i64,
                        id: rng.next_u64(),
                    })
                    .collect(),
            )
        }
        2 => {
            let n = rng.gen_range(0..50usize);
            Body::Keys((0..n).map(|_| (rng.next_u64() as i64, rng.next_u64())).collect())
        }
        3 => Body::Ack { batch: rng.next_u64(), coalesced: rng.next_u64() as u32 },
        4 => Body::Pong,
        5 => {
            let n = rng.gen_range(0..8usize);
            Body::Stats((0..n).map(|_| (arb_string(rng, 40), rng.next_u64())).collect())
        }
        6 => Body::Metrics(arb_string(rng, 200)),
        7 => Body::ShutdownAck,
        8 => {
            let n = rng.gen_range(0..4usize);
            Body::SlowLog((0..n).map(|_| arb_slow_entry(rng)).collect())
        }
        9 => Body::Versions {
            current: rng.next_u64(),
            oldest: rng.next_u64(),
            installed: rng.next_u64(),
            reclaimed_pages: rng.next_u64(),
            pinned: rng.next_u64(),
        },
        _ => {
            let code = ErrorCode::ALL[rng.gen_range(0..ErrorCode::ALL.len())];
            Body::Error { code, message: arb_string(rng, 60) }
        }
    }
}

fn arb_response(rng: &mut Rng) -> Response {
    Response { id: rng.next_u64(), body: arb_body(rng) }
}

#[test]
fn request_encode_decode_round_trips() {
    check(
        &Config::with_cases(300),
        arb_request,
        pc_rng::check::no_shrink,
        |req| {
            let payload = encode_request(req);
            match decode_request(&payload) {
                Ok(got) if got == *req => Ok(()),
                Ok(got) => Err(format!("round trip changed the request: {got:?}")),
                Err(e) => Err(format!("round trip failed to decode: {e}")),
            }
        },
    );
}

#[test]
fn response_encode_decode_round_trips() {
    check(
        &Config::with_cases(300),
        arb_response,
        pc_rng::check::no_shrink,
        |resp| {
            let payload = encode_response(resp);
            match decode_response(&payload) {
                Ok(got) if got == *resp => Ok(()),
                Ok(got) => Err(format!("round trip changed the response: {got:?}")),
                Err(e) => Err(format!("round trip failed to decode: {e}")),
            }
        },
    );
}

#[test]
fn every_truncation_of_a_request_is_a_clean_error() {
    check(
        &Config::with_cases(120),
        arb_request,
        pc_rng::check::no_shrink,
        |req| {
            let payload = encode_request(req);
            for cut in 0..payload.len() {
                // A strict prefix can never decode as the full request (the
                // header alone pins 27 bytes; shorter bodies under-run their
                // op's fields) — it must produce a typed error, not a panic
                // and not a bogus success.
                if decode_request(&payload[..cut]).is_ok() {
                    return Err(format!("truncation to {cut} bytes decoded successfully"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn corrupted_payloads_never_panic() {
    // (payload, corruption sites) pairs; the property exercises the decoder
    // on every mutated variant. Shrinking drops corruption sites.
    let gen = |rng: &mut Rng| {
        let payload = if rng.gen_bool(0.5) {
            encode_request(&arb_request(rng))
        } else {
            encode_response(&arb_response(rng))
        };
        let flips: Vec<(usize, u8)> = (0..rng.gen_range(1..8usize))
            .map(|_| (rng.next_u64() as usize, rng.next_u64() as u8))
            .collect();
        (payload, flips)
    };
    check(
        &Config::with_cases(300),
        gen,
        |case: &(Vec<u8>, Vec<(usize, u8)>)| {
            shrink_vec(&case.1, |_| Vec::new())
                .into_iter()
                .map(|flips| (case.0.clone(), flips))
                .collect()
        },
        |(payload, flips)| {
            let mut mutated = payload.clone();
            if mutated.is_empty() {
                return Ok(());
            }
            for &(pos, val) in flips {
                let idx = pos % mutated.len();
                mutated[idx] ^= val;
            }
            // Totality: both decoders must return, never panic. (Both are
            // exercised because a corrupted request byte-string is just an
            // arbitrary byte-string to the response decoder and vice versa.)
            let _ = decode_request(&mutated);
            let _ = decode_response(&mutated);
            Ok(())
        },
    );
}

#[test]
fn fully_random_bytes_never_panic_and_rarely_decode() {
    check(
        &Config::with_cases(400),
        |rng: &mut Rng| {
            let n = rng.gen_range(0..200usize);
            let mut buf = vec![0u8; n];
            rng.fill_bytes(&mut buf);
            buf
        },
        |v: &Vec<u8>| shrink_vec(v, |_| Vec::new()),
        |bytes| {
            let _ = decode_request(bytes);
            let _ = decode_response(bytes);
            Ok(())
        },
    );
}

#[test]
fn response_frame_is_written_once_at_its_size() {
    // A frame goes to the socket as encoded: one buffer, reserved at the
    // exact size of a list body, so encoding neither grows nor copies it.
    let points = (0..10_000).map(|i| Point { x: i, y: -i, id: i as u64 }).collect();
    let big = Response { id: 1, body: Body::Points(points) };
    let frame = pc_serve::wire::response_frame(&big);
    assert_eq!(frame.len(), 4 + encode_response(&big).len());
    assert_eq!(frame.capacity(), frame.len(), "reserved at its size");
}
