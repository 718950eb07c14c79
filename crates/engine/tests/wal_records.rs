//! WAL records through the public codec: every kind round-trips and
//! coexists in one segment, a torn tail drops exactly the torn record,
//! and the frame checksum matches the bit-at-a-time CRC-32.

use backsort_engine::store::{crc32, replay_wal, WalRecord};
use backsort_engine::{DataType, PointBatch, SeriesKey, TsValue};

fn key() -> SeriesKey {
    SeriesKey::new("root.sg.d1", "s1")
}

/// A one-point batch record.
fn point(t: i64, v: TsValue) -> WalRecord {
    WalRecord::PointBatch {
        key: key(),
        batch: PointBatch::from_rows([(t, v)]).expect("one point"),
    }
}

#[test]
fn wal_delete_record_roundtrips() {
    let mut buf = Vec::new();
    let del = WalRecord::Delete {
        key: key(),
        t_lo: -5,
        t_hi: 1 << 33,
        horizon: 7,
    };
    del.encode_into(&mut buf);
    point(1, TsValue::Int(1)).encode_into(&mut buf);
    let relog = WalRecord::Tombstone {
        key: key(),
        t_lo: -5,
        t_hi: 1 << 33,
        horizon: 7,
    };
    relog.encode_into(&mut buf);
    let (recs, discarded) = replay_wal(&buf);
    assert_eq!(discarded, 0);
    assert_eq!(recs, vec![del, point(1, TsValue::Int(1)), relog]);
}

#[test]
fn torn_tail_stops_replay_cleanly() {
    let mut buf = Vec::new();
    point(1, TsValue::Int(1)).encode_into(&mut buf);
    point(2, TsValue::Int(2)).encode_into(&mut buf);
    // Simulate a crash mid-write of record 3.
    let mut partial = Vec::new();
    point(3, TsValue::Int(3)).encode_into(&mut partial);
    let torn = partial.len() / 2;
    buf.extend_from_slice(&partial[..torn]);
    let (recs, discarded) = replay_wal(&buf);
    assert_eq!(recs.len(), 2);
    assert_eq!(discarded, torn, "exactly the torn tail is discarded");
}

#[test]
fn wal_batch_record_roundtrips_every_type() {
    let batches = [
        PointBatch::from_rows([(1, TsValue::Int(-7)), (5, TsValue::Int(9))]).unwrap(),
        PointBatch::from_rows([(2, TsValue::Long(1 << 40))]).unwrap(),
        PointBatch::from_rows([(3, TsValue::Float(2.5)), (4, TsValue::Float(-0.5))]).unwrap(),
        PointBatch::from_rows([(0, TsValue::Double(-0.125))]).unwrap(),
        PointBatch::from_rows([(9, TsValue::Bool(true)), (12, TsValue::Bool(false))]).unwrap(),
        PointBatch::from_rows([(7, TsValue::Text("état".into()))]).unwrap(),
        PointBatch::new(DataType::Int64), // empty batch still frames
    ];
    let mut buf = Vec::new();
    for b in &batches {
        WalRecord::PointBatch {
            key: key(),
            batch: b.clone(),
        }
        .encode_into(&mut buf);
    }
    // Interleave a delete record to prove kinds coexist in a segment.
    let delete = WalRecord::Delete {
        key: key(),
        t_lo: 0,
        t_hi: 9,
        horizon: 1,
    };
    delete.encode_into(&mut buf);
    let (recs, discarded) = replay_wal(&buf);
    assert_eq!(discarded, 0);
    assert_eq!(recs.last(), Some(&delete));
    for (rec, want) in recs.iter().zip(&batches) {
        assert_eq!(
            rec,
            &WalRecord::PointBatch {
                key: key(),
                batch: want.clone(),
            }
        );
    }
}

#[test]
fn torn_batch_frame_drops_only_the_batch() {
    let mut buf = Vec::new();
    point(1, TsValue::Int(1)).encode_into(&mut buf);
    let mut partial = Vec::new();
    let batch = PointBatch::from_rows([(2, TsValue::Int(2)), (3, TsValue::Int(3))]).unwrap();
    WalRecord::PointBatch { key: key(), batch }.encode_into(&mut partial);
    // Every possible tear point: prefix survives, batch is lost whole.
    for torn in 0..partial.len() {
        let mut bytes = buf.clone();
        bytes.extend_from_slice(&partial[..torn]);
        let (recs, discarded) = replay_wal(&bytes);
        assert_eq!(recs, vec![point(1, TsValue::Int(1))], "tear at {torn}");
        assert_eq!(discarded, torn);
    }
    // Bit flips anywhere in the complete frame: total decode, the
    // frame is either rejected or (flips in the length prefix can
    // shift framing) never yields a half-applied batch.
    for i in 0..partial.len() {
        let mut bytes = buf.clone();
        bytes.extend_from_slice(&partial);
        let n = buf.len() + i;
        bytes[n] ^= 0x10;
        let (recs, _) = replay_wal(&bytes);
        for rec in recs.iter().skip(1) {
            if let WalRecord::PointBatch { batch, .. } = rec {
                assert!(batch.len() == 2, "bit flip at {i} half-applied a batch");
            }
        }
    }
}

/// Eight bytes a step, the tail a byte at a time: the same checksum
/// as the bit-at-a-time definition at every length and alignment.
#[test]
fn crc32_matches_the_bitwise_definition() {
    let bitwise = |data: &[u8]| {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    };
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    for lo in 0..8 {
        for hi in lo..=data.len() {
            assert_eq!(crc32(&data[lo..hi]), bitwise(&data[lo..hi]), "{lo}..{hi}");
        }
    }
}
