//! The batch request frame (`KIND_BATCH`) against its own encoder and
//! against bytes it did not choose — the recipe `rows_frame.rs` applies
//! to the reply frames.
//!
//! * A random batch of any of the six types — NaN payloads, ±inf, −0.0,
//!   empty and multi-byte text, no points at all — survives
//!   `encode_batch` → `read_request` exactly, floats compared by bits.
//! * Every strict prefix of an encoded payload is refused; every single
//!   flipped bit gives `Malformed` or a well-formed batch; nothing
//!   panics, and no single allocation exceeds a small multiple of the
//!   frame — measured, by a counting allocator, not assumed.
//! * A forged point count or text length over a payload of some twenty
//!   bytes fails before anything is reserved for it.
//! * Each malformation — trailing bytes, a bool byte above 1, bad UTF-8,
//!   a text length past the payload, an unknown type — is `Malformed`,
//!   and the frame behind it still decodes.

mod common;

use backsort_engine::{PointBatch, ValueColumn};
use backsort_server::wire::{
    self, DecodeError, RequestBody, RequestFrame, HEADER_BYTES, KIND_BATCH,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// The most one allocation of a decode may ask for, given the frame: a
/// text cell costs the frame at least its four length bytes and decodes
/// to one 24-byte `String`. The constant covers the error text of a
/// refused frame.
fn allocation_bound(frame_len: usize) -> usize {
    frame_len * 6 + 512
}

/// A batch of up to `max` points whose values `values` draws, gathered
/// into a column by `of`.
fn batch_of<S>(
    values: S,
    of: fn(Vec<S::Value>) -> ValueColumn,
    max: usize,
) -> BoxedStrategy<PointBatch>
where
    S: Strategy + 'static,
    S::Value: 'static,
{
    vec((any::<i64>(), values), 0..max + 1)
        .prop_map(move |points| {
            let (ts, values) = points.into_iter().unzip();
            PointBatch::from_columns(ts, of(values)).expect("a value for every timestamp")
        })
        .boxed()
}

/// A batch of any type, the float types also drawn from their awkward
/// values alone.
fn batch(max: usize) -> impl Strategy<Value = PointBatch> {
    prop_oneof![
        batch_of(any::<i32>(), ValueColumn::Int, max),
        batch_of(any::<i64>(), ValueColumn::Long, max),
        batch_of(any::<f32>(), ValueColumn::Float, max),
        batch_of(
            select(vec![
                f32::NAN,
                f32::from_bits(0x7FC0_BEEF),
                f32::INFINITY,
                -0.0
            ]),
            ValueColumn::Float,
            max
        ),
        batch_of(any::<f64>(), ValueColumn::Double, max),
        batch_of(
            select(vec![
                f64::NAN,
                f64::from_bits(0x7FF0_0000_DEAD_BEEF),
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
            ]),
            ValueColumn::Double,
            max
        ),
        batch_of(any::<bool>(), ValueColumn::Bool, max),
        // `.` draws multi-byte characters too; `{0,…}` the empty text.
        batch_of(".{0,6}", ValueColumn::Text, max),
    ]
}

/// Equality that tells NaN payloads and the sign of zero apart.
fn same_batch(a: &PointBatch, b: &PointBatch) -> bool {
    let same_values = match (a.values(), b.values()) {
        (ValueColumn::Float(a), ValueColumn::Float(b)) => a
            .iter()
            .map(|v| v.to_bits())
            .eq(b.iter().map(|v| v.to_bits())),
        (ValueColumn::Double(a), ValueColumn::Double(b)) => a
            .iter()
            .map(|v| v.to_bits())
            .eq(b.iter().map(|v| v.to_bits())),
        (a, b) => a == b,
    };
    a.ts() == b.ts() && same_values
}

fn encode(device: &str, sensor: &str, batch: &PointBatch) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_batch(&mut frame, 7, device, sensor, batch);
    frame
}

/// A batch frame around `payload`, whatever it holds.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(KIND_BATCH);
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

type Decoded = Result<Option<RequestFrame>, DecodeError>;

/// Decodes `frame`, reporting the largest single allocation it asked for.
fn decode(frame: &[u8]) -> (Decoded, usize) {
    common::largest_allocation(|| wire::read_request(&mut &*frame, usize::MAX))
}

/// Whether `decoded` is a refusal of frame 7 that consumed the frame.
fn malformed(decoded: &Decoded) -> bool {
    matches!(decoded, Err(DecodeError::Malformed { id: 7, .. }))
}

proptest! {
    #[test]
    fn a_random_batch_survives_the_frame_bit_for_bit(
        device in ".{0,12}",
        sensor in ".{0,8}",
        batch in batch(300),
    ) {
        let frame = encode(&device, &sensor, &batch);
        prop_assert_eq!(frame[4], KIND_BATCH);
        let (decoded, largest) = decode(&frame);
        match decoded {
            Ok(Some(RequestFrame {
                id: 7,
                body: RequestBody::Batch { device: d, sensor: s, batch: decoded },
            })) => {
                prop_assert_eq!((&d, &s), (&device, &sensor));
                prop_assert!(same_batch(&decoded, &batch), "decoded {decoded:?}");
            }
            other => prop_assert!(false, "{other:?}"),
        }
        prop_assert!(largest <= allocation_bound(frame.len()), "{largest} for {}", frame.len());
    }
}

proptest! {
    // Quadratic in the frame (every bit of it is flipped and the whole
    // decoded again), so: few cases, small frames.
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn damaged_batch_frames_are_malformed_or_well_formed_never_a_panic_or_a_huge_reservation(
        batch in batch(12)
    ) {
        let frame = encode("root.sg.d1", "s", &batch);
        let payload = &frame[HEADER_BYTES..];
        let bound = allocation_bound(frame.len());
        for cut in 0..payload.len() {
            let (decoded, largest) = decode(&framed(&payload[..cut]));
            prop_assert!(malformed(&decoded), "prefix {cut} of {}: {decoded:?}", payload.len());
            prop_assert!(largest <= bound, "prefix {cut}: one allocation of {largest}");
        }
        let mut damaged = frame.clone();
        for bit in 0..payload.len() * 8 {
            let at = HEADER_BYTES + bit / 8;
            damaged[at] ^= 1 << (bit % 8);
            let (decoded, largest) = decode(&damaged);
            let well_formed = matches!(
                &decoded,
                Ok(Some(RequestFrame { id: 7, body: RequestBody::Batch { .. } }))
            );
            prop_assert!(well_formed || malformed(&decoded), "bit {bit}: {decoded:?}");
            prop_assert!(largest <= bound, "bit {bit}: one allocation of {largest}");
            damaged[at] = frame[at];
        }
    }
}

/// The payload of a batch for device `d`, sensor `s`: its header up to
/// the point count, which is `count`.
fn head(tag: u8, count: u32) -> Vec<u8> {
    let mut payload = vec![1, 0, b'd', 1, 0, b's', tag];
    payload.extend_from_slice(&count.to_le_bytes());
    payload
}

#[test]
fn forged_counts_fail_before_anything_is_reserved() {
    let padded = |mut payload: Vec<u8>| {
        payload.resize(20, 0);
        payload
    };
    let forged_text = {
        // One TEXT point whose length claims four gigabytes.
        let mut payload = head(5, 1);
        payload.extend_from_slice(&9i64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload
    };
    let mut forged_device = vec![0xFF, 0xFF];
    forged_device.resize(20, 0);
    for (what, payload) in [
        ("count of doubles", padded(head(3, u32::MAX))),
        ("count of texts", padded(head(5, u32::MAX))),
        // The timestamps fit; the texts' length prefixes cannot.
        ("count of texts past the timestamps", {
            let mut payload = head(5, 1);
            payload.extend_from_slice(&9i64.to_le_bytes());
            payload
        }),
        ("text len", forged_text),
        ("device len", forged_device),
    ] {
        assert!(payload.len() <= 24, "{what}: {}", payload.len());
        let (decoded, largest) = decode(&framed(&payload));
        assert!(malformed(&decoded), "{what}: {decoded:?}");
        assert!(largest <= 512, "{what}: one allocation of {largest} bytes");
    }
}

#[test]
fn each_malformation_is_malformed_and_the_stream_stays_in_step() {
    let bools = encode(
        "d",
        "s",
        &PointBatch::from_columns(vec![1, 2], ValueColumn::Bool(vec![true, false])).unwrap(),
    );
    let text = encode(
        "d",
        "s",
        &PointBatch::from_columns(vec![1], ValueColumn::Text(vec!["é".to_string()])).unwrap(),
    );
    let doubles = encode(
        "d",
        "s",
        &PointBatch::from_columns(vec![1], ValueColumn::Double(vec![0.5])).unwrap(),
    );
    let longs = encode(
        "d",
        "s",
        &PointBatch::from_columns(vec![1], ValueColumn::Long(vec![5])).unwrap(),
    );
    for good in [&bools, &text, &doubles, &longs] {
        assert!(matches!(decode(good).0, Ok(Some(_))));
    }
    // Payload offsets: device len 0, device 2, sensor len 3, sensor 5,
    // type 6, count 7..11, timestamps from 11. The bools' cells are at
    // 27 and 28 (end 29); the text's length is at 19..23 and its two
    // bytes at 23..25 (end 25); the double's and the long's cells are at
    // 19..27 (end 27).
    let cases: [(&str, &Vec<u8>, usize, &[u8]); 10] = [
        ("trailing bytes after bools", &bools, 29, &[0]),
        ("trailing bytes after text", &text, 25, &[0]),
        ("trailing bytes after a double", &doubles, 27, &[0, 0, 0]),
        ("a trailing byte after an INT64", &longs, 27, &[0]),
        ("a bool byte above 1", &bools, 27, &[2]),
        ("bad UTF-8 in a text", &text, 24, &[0xFF]),
        ("a text length past the payload", &text, 19, &[3, 0, 0, 0]),
        ("a count past the payload", &bools, 7, &[3, 0, 0, 0]),
        ("an unknown type", &doubles, 6, &[6]),
        ("bad UTF-8 in the device", &doubles, 2, &[0xFF]),
    ];
    for (what, good, at, bytes) in cases {
        let mut payload = good[HEADER_BYTES..].to_vec();
        let end = (at + bytes.len()).min(payload.len());
        payload.splice(at..end, bytes.iter().copied());
        let mut stream = framed(&payload);
        wire::encode_sql(&mut stream, 8, "SHOW STATS");
        let mut reader = stream.as_slice();
        match wire::read_request(&mut reader, 1 << 20) {
            Err(DecodeError::Malformed { id: 7, reason }) => {
                assert!(
                    reason.starts_with("undecodable batch payload"),
                    "{what}: {reason}"
                );
            }
            other => panic!("{what}: {other:?}"),
        }
        let next = wire::read_request(&mut reader, 1 << 20);
        assert!(
            matches!(next, Ok(Some(RequestFrame { id: 8, .. }))),
            "{what}: the next frame after it: {next:?}"
        );
    }
}

/// A value is copied in and out, never compressed: a DOUBLE point costs
/// its timestamp and its eight bits, sixteen bytes.
#[test]
fn a_point_is_its_timestamp_and_its_cell() {
    let batch =
        PointBatch::from_columns((0..500).collect(), ValueColumn::Double(vec![0.25; 500])).unwrap();
    let frame = encode("root.sg.d1", "s", &batch);
    assert_eq!(
        frame.len(),
        HEADER_BYTES + (2 + 10) + (2 + 1) + 1 + 4 + 500 * 16
    );
}
