//! Property tests for the storage layer: encodings round-trip on
//! arbitrary columns, decoders never panic on arbitrary (corrupt) bytes,
//! and the flush → TsFile → query pipeline preserves data.

use backsort_core::Algorithm;
use backsort_engine::encoding::{boolpack, gorilla, ts2diff, varint};
use backsort_engine::tsfile::{TsFileReader, TsFileWriter};
use backsort_engine::{flush_memtable, MemTable, SeriesKey, TsValue};
use proptest::prelude::*;

/// The count a column's leading varint claims (0 when it has none).
fn claimed_count(bytes: &[u8]) -> usize {
    varint::read_u64(bytes, &mut 0).unwrap_or(0) as usize
}

proptest! {
    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_u64(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn signed_varint_roundtrips(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_i64(&buf, &mut pos), Some(v));
    }

    #[test]
    fn ts2diff_roundtrips(values in prop::collection::vec(any::<i64>(), 0..600)) {
        let encoded = ts2diff::encode(&values);
        prop_assert_eq!(ts2diff::decode(&encoded, values.len()), Some(values));
    }

    #[test]
    fn gorilla_roundtrips(values in prop::collection::vec(any::<f64>(), 0..400)) {
        let encoded = gorilla::encode_f64(&values);
        let decoded = gorilla::decode_f64(&encoded, values.len()).expect("well-formed");
        prop_assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn boolpack_roundtrips(values in prop::collection::vec(any::<bool>(), 0..700)) {
        prop_assert_eq!(boolpack::decode(&boolpack::encode(&values), values.len()), Some(values));
    }

    // Decoders must be total: arbitrary bytes may return None but never
    // panic, hang, or overflow — even when the caller expects the count
    // the bytes themselves claim.
    #[test]
    fn ts2diff_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = ts2diff::decode(&bytes, claimed_count(&bytes));
    }

    #[test]
    fn gorilla_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = gorilla::decode_f64(&bytes, claimed_count(&bytes));
    }

    #[test]
    fn boolpack_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = boolpack::decode(&bytes, claimed_count(&bytes));
    }

    #[test]
    fn varint_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut pos = 0;
        let _ = varint::read_u64(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn tsfile_open_is_total(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = TsFileReader::open(&bytes);
    }

    #[test]
    fn truncated_tsfiles_never_panic(
        times in prop::collection::vec(0i64..1_000_000, 1..100),
        cut in 0usize..100,
    ) {
        let mut sorted: Vec<i64> = times;
        sorted.sort_unstable();
        sorted.dedup();
        let values: Vec<TsValue> = sorted.iter().map(|&t| TsValue::Long(t)).collect();
        let mut w = TsFileWriter::new();
        w.write_chunk(&SeriesKey::new("d", "s"), &sorted, &values);
        let image = w.finish();
        let cut = cut.min(image.len());
        let _ = TsFileReader::open(&image[..image.len() - cut]);
    }

    #[test]
    fn flush_query_preserves_every_timestamp(
        raw in prop::collection::vec((0i64..5_000, any::<i32>()), 1..400),
    ) {
        let key = SeriesKey::new("root.sg.d", "s");
        let mut mt = MemTable::new(16);
        for &(t, v) in &raw {
            mt.write(&key, t, TsValue::Int(v)).unwrap();
        }
        let (image, metrics) = flush_memtable(&mt, &Algorithm::Backward(Default::default()), None);
        let reader = TsFileReader::open(&image).expect("valid image");
        let points = reader.query(&key, i64::MIN, i64::MAX);
        let mut expected: Vec<i64> = raw.iter().map(|p| p.0).collect();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<i64> = points.iter().map(|p| p.0).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(metrics.points as usize, points.len());
    }
}

proptest! {
    // WAL replay must be total on arbitrary bytes: never panic, and
    // never report more bytes discarded than were presented.
    #[test]
    fn wal_replay_is_total(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let (recs, discarded) = backsort_engine::store::replay_wal(&bytes);
        prop_assert!(discarded <= bytes.len());
        prop_assert!(recs.len() <= bytes.len() / 9); // frame overhead alone is 9 bytes
    }

    #[test]
    fn wal_survives_arbitrary_truncation(
        points in prop::collection::vec((any::<i64>(), any::<i64>()), 1..40),
        cut in 0usize..64,
    ) {
        use backsort_engine::store::{replay_wal, WalRecord};
        let key = SeriesKey::new("root.sg.d", "s");
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for &(t, v) in &points {
            let start = buf.len();
            let mut tmp = Vec::new();
            WalRecord::Point { key: key.clone(), t, v: TsValue::Long(v) }.encode_into(&mut tmp);
            buf.extend_from_slice(&tmp);
            frames.push((start, buf.len()));
        }
        let cut = cut.min(buf.len());
        let truncated = &buf[..buf.len() - cut];
        let (recs, discarded) = replay_wal(truncated);
        // Every fully-contained frame must be recovered, in order, and
        // exactly the torn suffix reported as discarded.
        let complete = frames.iter().filter(|&&(_, end)| end <= truncated.len()).count();
        prop_assert_eq!(recs.len(), complete);
        let consumed = frames.get(complete.wrapping_sub(1)).map_or(0, |&(_, end)| end);
        prop_assert_eq!(discarded, truncated.len() - consumed);
        for (rec, &(t, v)) in recs.iter().zip(&points) {
            let want = WalRecord::Point { key: key.clone(), t, v: TsValue::Long(v) };
            prop_assert_eq!(rec, &want);
        }
    }

    // A columnar batch record survives the WAL byte-exactly, whatever
    // the timestamp distribution and value column.
    #[test]
    fn wal_batch_record_roundtrips(
        rows in prop::collection::vec((any::<i64>(), any::<i64>()), 0..200),
    ) {
        use backsort_engine::store::{replay_wal, WalRecord};
        use backsort_engine::PointBatch;
        let key = SeriesKey::new("root.sg.d", "s");
        let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Long(v))))
            .expect("uniform Long rows");
        let mut buf = Vec::new();
        WalRecord::PointBatch { key: key.clone(), batch: batch.clone() }.encode_into(&mut buf);
        let (recs, discarded) = replay_wal(&buf);
        prop_assert_eq!(discarded, 0);
        prop_assert_eq!(recs, vec![WalRecord::PointBatch { key, batch }]);
    }

    // The batch frame is the atomicity unit: truncate anywhere inside it
    // and replay keeps every earlier record but never a partial batch.
    #[test]
    fn wal_batch_frame_is_atomic_under_truncation(
        rows in prop::collection::vec((0i64..10_000, any::<i32>()), 1..60),
        cut_seed in any::<u64>(),
    ) {
        use backsort_engine::store::{replay_wal, WalRecord};
        use backsort_engine::PointBatch;
        let key = SeriesKey::new("root.sg.d", "s");
        let point = WalRecord::Point { key: key.clone(), t: -1, v: TsValue::Long(7) };
        let mut buf = Vec::new();
        point.encode_into(&mut buf);
        let head = buf.len();
        let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Int(v))))
            .expect("uniform Int rows");
        WalRecord::PointBatch { key: key.clone(), batch: batch.clone() }.encode_into(&mut buf);
        let cut = head + (cut_seed as usize) % (buf.len() - head);
        let (recs, discarded) = replay_wal(&buf[..cut]);
        prop_assert_eq!(recs, vec![point], "cut at {} left a partial batch", cut);
        prop_assert_eq!(discarded, cut - head);
    }

    // A flipped bit anywhere in a batch frame must never surface a
    // *different* batch: the CRC rejects the frame (or a length-prefix
    // flip stops framing), so replay sees the original or nothing.
    #[test]
    fn wal_batch_frame_rejects_bit_flips(
        rows in prop::collection::vec((0i64..10_000, any::<i64>()), 1..40),
        flip in any::<usize>(),
    ) {
        use backsort_engine::store::WalRecord;
        use backsort_engine::PointBatch;
        let key = SeriesKey::new("root.sg.d", "s");
        let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Long(v))))
            .expect("uniform Long rows");
        let original = WalRecord::PointBatch { key, batch };
        let mut buf = Vec::new();
        original.encode_into(&mut buf);
        let bit = flip % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let mut pos = 0;
        if let Some(rec) = WalRecord::read_from(&buf, &mut pos) {
            prop_assert_eq!(rec, original);
        }
    }

    // A single flipped bit anywhere in a framed record must never parse
    // as a (different) record: either the CRC rejects the frame, or —
    // when the flip lands in the length prefix and the frame no longer
    // lines up — parsing stops. Nothing is ever invented.
    #[test]
    fn wal_read_from_rejects_bit_flips(
        t in any::<i64>(),
        v in any::<i64>(),
        flip_bit in 0usize..64,
    ) {
        use backsort_engine::store::WalRecord;
        let key = SeriesKey::new("root.sg.d", "s");
        let original = WalRecord::Point { key, t, v: TsValue::Long(v) };
        let mut buf = Vec::new();
        original.encode_into(&mut buf);
        let bit = flip_bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let mut pos = 0;
        if let Some(rec) = WalRecord::read_from(&buf, &mut pos) {
            // The only acceptable parse of a corrupted frame is one a
            // colliding length prefix re-frames into the same bytes —
            // CRC-32 makes a *different* record vanishingly unlikely,
            // and identical bytes can only decode to the original.
            prop_assert_eq!(rec, original);
        }
    }
}
