//! Golden pins for the serve layer's two contracts with its peers, recorded
//! at the commit *before* the codec and the targets were rebuilt (the
//! `tests/golden_layout.rs` method): a refactor leaves every row alone; a
//! protocol change re-records the rows it means to move and says so.
//!
//! 1. **Wire v3, byte for byte**: the literal frame (length prefix
//!    included) of one request per [`Op`] variant and one response per
//!    [`Body`] variant.
//! 2. **Who answers what**: for each of the eight registrable target kinds,
//!    which wire ops its `query` serves and whether it takes updates.
//!
//! A failing frame assertion prints the bytes the code produced.

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::{Interval, PageStore, Point};
use pc_pst::{DynamicPst, DynamicThreeSidedPst, NaivePst, ThreeSidedPst, TwoLevelPst};
use pc_segtree::CachedSegmentTree;
use pc_serve::wire::{
    decode_request, decode_response, request_frame, response_frame, Body, ErrorCode, Op, Request,
    Response, SlowEntry, WireSpan,
};
use pc_serve::{
    BTreeTarget, DynamicPstTarget, DynamicThreeSidedTarget, IntervalTreeTarget, NaivePstTarget,
    PstTarget, Registry, SegTreeTarget, TargetError, ThreeSidedTarget, UpdateOp,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const P: Point = Point { x: -2, y: 3, id: 0x0102_0304_0506_0708 };

/// One request per `Op` variant; ids, targets, deadlines, flags and
/// `as_of` differ row to row so that every header field is pinned at a
/// non-zero value somewhere.
fn requests() -> Vec<(Request, &'static str)> {
    let req = |id, target, deadline_ms, flags, as_of, op| Request {
        id,
        target,
        deadline_ms,
        flags,
        as_of,
        op,
    };
    vec![
        (
            req(1, 2, 250, 0, 0, Op::Range1d { lo: -5, hi: 99 }),
            "2b0000005043030101000000000000000200fa000000000000000000000000fbffffffffffffff6300000000000000",
        ),
        (
            req(2, 3, 0, 1, 7, Op::Stab { q: i64::MIN }),
            "230000005043030202000000000000000300000000000107000000000000000000000000000080",
        ),
        (
            req(u64::MAX, u16::MAX, u32::MAX, 0xFF, u64::MAX, Op::TwoSided { x0: 1, y0: 2 }),
            "2b00000050430303ffffffffffffffffffffffffffffffffffffffffffffff01000000000000000200000000000000",
        ),
        (
            req(4, 1, 1, 0, 0, Op::ThreeSided { x1: -1, x2: 1, y0: 0 }),
            "33000000504303040400000000000000010001000000000000000000000000ffffffffffffffff01000000000000000000000000000000",
        ),
        (
            req(5, 5, 0, 0, 0, Op::Insert(P)),
            "33000000504303050500000000000000050000000000000000000000000000feffffffffffffff03000000000000000807060504030201",
        ),
        (
            req(6, 5, 9, 0, 0, Op::Delete(P)),
            "33000000504303060600000000000000050009000000000000000000000000feffffffffffffff03000000000000000807060504030201",
        ),
        (req(7, 0, 0, 0, 0, Op::Ping), "1b000000504303100700000000000000000000000000000000000000000000"),
        (req(8, 0, 0, 0, 0, Op::Stats), "1b000000504303110800000000000000000000000000000000000000000000"),
        (req(9, 0, 0, 0, 0, Op::Metrics), "1b000000504303120900000000000000000000000000000000000000000000"),
        (req(10, 0, 0, 0, 0, Op::Shutdown), "1b000000504303130a00000000000000000000000000000000000000000000"),
        (
            req(11, 0, 0, 0, 0, Op::SlowLog { k: 16, clear: true }),
            "20000000504303140b000000000000000000000000000000000000000000001000000001",
        ),
        (
            req(12, 0, 0, 0, 0, Op::SetSampling { every: 1000 }),
            "23000000504303150c00000000000000000000000000000000000000000000e803000000000000",
        ),
        (req(13, 0, 0, 0, 0, Op::Versions), "1b000000504303160d00000000000000000000000000000000000000000000"),
    ]
}

fn span(depth: u16, output: bool, name: &str, base: u64) -> WireSpan {
    WireSpan {
        depth,
        output,
        name: name.into(),
        arg: base,
        reads: base + 1,
        writes: base + 2,
        cache_hits: base + 3,
        self_reads: base + 4,
        items: base + 5,
        block_capacity: base + 6,
        wasteful: base + 7,
    }
}

/// One response per `Body` variant (the `SlowLog` one with two spans).
fn responses() -> Vec<(Response, &'static str)> {
    let resp = |id, body| Response { id, body };
    vec![
        (
            resp(1, Body::Points(vec![P, Point { x: 1, y: 2, id: 3 }])),
            "3d000000010100000000000000\
             02000000feffffffffffffff03000000000000000807060504030201\
             010000000000000002000000000000000300000000000000",
        ),
        (
            resp(2, Body::Intervals(vec![Interval { lo: -2, hi: 2, id: 8 }])),
            "25000000020200000000000000\
             01000000feffffffffffffff02000000000000000800000000000000",
        ),
        (
            resp(3, Body::Keys(vec![(i64::MIN, 0), (i64::MAX, u64::MAX)])),
            "2d000000030300000000000000\
             0200000000000000000000800000000000000000ffffffffffffff7fffffffffffffffff",
        ),
        (
            resp(4, Body::Ack { batch: 42, coalesced: 17 }),
            "150000000404000000000000002a0000000000000011000000",
        ),
        (resp(5, Body::Pong), "09000000050500000000000000"),
        (
            resp(6, Body::Stats(vec![("reads".into(), 10), (String::new(), 0)])),
            "260000000606000000000000000200000005007265616473\
             0a0000000000000000000000000000000000",
        ),
        (
            resp(7, Body::Metrics("x 1\n".into())),
            "1100000007070000000000000004000000782031 0a",
        ),
        (resp(8, Body::ShutdownAck), "09000000080800000000000000"),
        (
            resp(9, Body::Error { code: ErrorCode::Unsupported, message: "no".into() }),
            "1000000009090000000000000006020000006e6f",
        ),
        (
            resp(
                10,
                Body::SlowLog(vec![SlowEntry {
                    request_id: 99,
                    op: "two_sided".into(),
                    target: "pst/main".into(),
                    rankings: 3,
                    latency_ns: 1_234_567,
                    total_io: 40,
                    search_ios: 12,
                    wasteful_ios: 28,
                    items: 3,
                    spans: vec![span(0, true, "serve_query", 100), span(1, false, "level", 200)],
                }]),
            ),
            "f10000000a0a00000000000000\
             01000000\
             6300000000000000\
             090074776f5f7369646564\
             08007073742f6d61696e\
             03\
             87d6120000000000\
             2800000000000000\
             0c00000000000000\
             1c00000000000000\
             0300000000000000\
             02000000\
             0000 01 0b0073657276655f7175657279\
             6400000000000000 6500000000000000 6600000000000000 6700000000000000\
             6800000000000000 6900000000000000 6a00000000000000 6b00000000000000\
             0100 00 05006c6576656c\
             c800000000000000 c900000000000000 ca00000000000000 cb00000000000000\
             cc00000000000000 cd00000000000000 ce00000000000000 cf00000000000000",
        ),
        (
            resp(
                11,
                Body::Versions { current: 42, oldest: 11, installed: 43, reclaimed_pages: 999, pinned: 3 },
            ),
            "310000000b0b00000000000000\
             2a00000000000000 0b00000000000000 2b00000000000000 e703000000000000 0300000000000000",
        ),
    ]
}

fn squeeze(literal: &str) -> String {
    literal.chars().filter(|c| !c.is_whitespace()).collect()
}

#[test]
fn every_request_frame_is_byte_for_byte_v3() {
    let rows = requests();
    assert_eq!(rows.len(), 13, "one row per Op variant");
    let mut moved = Vec::new();
    for (req, want) in rows {
        let frame = request_frame(&req);
        if hex(&frame) != squeeze(want) {
            moved.push(format!("{:?}\n  {}", req.op, hex(&frame)));
        }
        assert_eq!(decode_request(&frame[4..]).unwrap(), req);
    }
    assert!(moved.is_empty(), "request frames moved; the code produces:\n{}", moved.join("\n"));
}

#[test]
fn every_response_frame_is_byte_for_byte_v3() {
    let rows = responses();
    assert_eq!(rows.len(), 11, "one row per Body variant");
    let mut moved = Vec::new();
    for (resp, want) in rows {
        let frame = response_frame(&resp);
        if hex(frame.as_slice()) != squeeze(want) {
            moved.push(format!("{:?}\n  {}", resp.body, hex(frame.as_slice())));
        }
        assert_eq!(decode_response(&frame.as_slice()[4..]).unwrap(), resp);
    }
    assert!(moved.is_empty(), "response frames moved; the code produces:\n{}", moved.join("\n"));
}

/// All thirteen ops, in opcode order.
fn every_op() -> Vec<Op> {
    requests().into_iter().map(|(req, _)| req.op).collect()
}

#[test]
fn each_target_kind_answers_its_ops_and_refuses_the_rest() {
    let store = PageStore::in_memory(512);
    let points: Vec<Point> =
        (0..50).map(|i| Point { x: i, y: (i * 7) % 50, id: i as u64 }).collect();
    let entries: Vec<(i64, u64)> = (0..50).map(|i| (i, (i * i) as u64)).collect();
    let intervals: Vec<Interval> =
        (0..20).map(|i| Interval { lo: i, hi: i + 10, id: i as u64 }).collect();

    let mut reg = Registry::new();
    reg.register("a", Box::new(BTreeTarget(BTree::bulk_build(&store, &entries).unwrap())));
    reg.register("b", Box::new(SegTreeTarget(CachedSegmentTree::build(&store, &intervals).unwrap())));
    reg.register(
        "c",
        Box::new(IntervalTreeTarget(ExternalIntervalTree::build(&store, &intervals).unwrap())),
    );
    reg.register("d", Box::new(PstTarget(TwoLevelPst::build(&store, &points).unwrap())));
    reg.register("e", Box::new(NaivePstTarget(NaivePst::build(&store, &points).unwrap())));
    reg.register("f", Box::new(ThreeSidedTarget(ThreeSidedPst::build(&store, &points).unwrap())));
    reg.register("g", Box::new(DynamicPstTarget::new(DynamicPst::build(&store, &points).unwrap())));
    reg.register(
        "h",
        Box::new(DynamicThreeSidedTarget::new(
            DynamicThreeSidedPst::build(&store, &points).unwrap(),
        )),
    );

    // (kind, the ops `query` answers, takes updates)
    let table: [(&str, &[&str], bool); 8] = [
        ("btree", &["range1d"], false),
        ("segtree", &["stab"], false),
        ("intervaltree", &["stab"], false),
        ("pst", &["two_sided"], false),
        ("naive_pst", &["two_sided"], false),
        ("pst3", &["three_sided"], false),
        ("dynamic_pst", &["two_sided"], true),
        ("dynamic_pst3", &["three_sided"], true),
    ];
    assert_eq!(reg.len(), table.len());
    for (id, (kind, answered, updates)) in table.into_iter().enumerate() {
        let target = reg.get(id as u16).unwrap();
        assert_eq!(target.kind(), kind);
        for op in every_op() {
            match target.query(&store, &op) {
                Ok(body) => {
                    assert!(answered.contains(&op.name()), "{kind} answered {}", op.name());
                    let shape_fits = matches!(
                        (&op, &body),
                        (Op::Range1d { .. }, Body::Keys(_))
                            | (Op::Stab { .. }, Body::Intervals(_))
                            | (Op::TwoSided { .. } | Op::ThreeSided { .. }, Body::Points(_))
                    );
                    assert!(shape_fits, "{kind} answered {} with {body:?}", op.name());
                }
                Err(TargetError::Unsupported { op: refused, target }) => {
                    assert!(!answered.contains(&op.name()), "{kind} refused {}", op.name());
                    assert_eq!((refused, target), (op.name(), kind));
                }
                Err(e) => panic!("{kind} failed {}: {e}", op.name()),
            }
        }
        let fresh = Point { x: 7, y: 7, id: 1_000 + id as u64 };
        let results = target.apply_updates(&store, &[UpdateOp::Insert(fresh), UpdateOp::Delete(fresh)]);
        assert_eq!(results.len(), 2);
        for r in results {
            match r {
                Ok(()) => assert!(updates, "{kind} took an update"),
                Err(TargetError::Unsupported { op: "update", target }) => {
                    assert!(!updates, "{kind} refused an update");
                    assert_eq!(target, kind);
                }
                Err(e) => panic!("{kind} failed an update: {e}"),
            }
        }
    }
}
