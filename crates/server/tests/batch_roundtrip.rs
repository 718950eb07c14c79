//! The batch frame through `wire`'s public encoder and reader: every
//! value type round-trips with its id and names, and a forged point
//! count is a malformed frame that keeps its id.

use backsort_engine::{PointBatch, TsValue};
use backsort_server::wire::{encode_batch, read_request, DecodeError, RequestBody, HEADER_BYTES};

#[test]
fn batch_frame_roundtrip_every_dtype() {
    let batches = vec![
        PointBatch::from_rows((0..50i32).map(|t| (i64::from(t), TsValue::Int(-t)))).unwrap(),
        PointBatch::from_rows((0..50i64).map(|t| (t * 3 % 17, TsValue::Long(t)))).unwrap(),
        PointBatch::from_rows((0..50i64).map(|t| (t, TsValue::Float(t as f32 / 3.0)))).unwrap(),
        PointBatch::from_rows((0..50i64).map(|t| (t, TsValue::Double(t as f64 * 0.5)))).unwrap(),
        PointBatch::from_rows((0..8i64).map(|t| (t, TsValue::Bool(t % 2 == 0)))).unwrap(),
        PointBatch::from_rows((0..8i64).map(|t| (t, TsValue::Text(format!("v{t}"))))).unwrap(),
    ];
    for (i, batch) in batches.into_iter().enumerate() {
        let mut buf = Vec::new();
        encode_batch(&mut buf, i as u64, "root.sg.d1", "s0", &batch);
        let frame = read_request(&mut buf.as_slice(), 1 << 20)
            .expect("decode")
            .expect("not eof");
        assert_eq!(frame.id, i as u64);
        match frame.body {
            RequestBody::Batch {
                device,
                sensor,
                batch: decoded,
            } => {
                assert_eq!(device, "root.sg.d1");
                assert_eq!(sensor, "s0");
                assert_eq!(decoded, batch);
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn truncated_batch_payload_is_malformed() {
    let batch = PointBatch::from_rows((0..20i64).map(|t| (t, TsValue::Long(t)))).unwrap();
    let mut buf = Vec::new();
    encode_batch(&mut buf, 1, "root.sg.d1", "s0", &batch);
    // Corrupt the declared point count (offset: header + device/
    // sensor length prefixes and names + dtype byte).
    let count_at = HEADER_BYTES + 2 + "root.sg.d1".len() + 2 + "s0".len() + 1;
    buf[count_at] = 200;
    match read_request(&mut buf.as_slice(), 1 << 20) {
        Err(DecodeError::Malformed { id, .. }) => assert_eq!(id, 1),
        other => panic!("{other:?}"),
    }
}
