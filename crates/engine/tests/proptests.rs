//! Property tests for the storage layer: encodings round-trip on
//! arbitrary columns, decoders never panic on arbitrary (corrupt) bytes,
//! a memtable buffer keeps its ordered-run invariant under any mix of
//! appends, deletes and sorts, and the flush → TsFile → query pipeline
//! preserves data.

use backsort_core::{Algorithm, BackwardSort, InBlockSort};
use backsort_engine::encoding::{boolpack, gorilla, ts2diff, varint};
use backsort_engine::store::WalRecord;
use backsort_engine::tsfile::{TsFileReader, TsFileWriter};
use backsort_engine::{
    flush_memtable, ColumnSlice, DataType, MemTable, PointBatch, SeriesBuffer, SeriesKey, TsValue,
};
use proptest::prelude::*;

/// A batch record of INT64 points for one series.
fn batch_record(key: &SeriesKey, rows: &[(i64, i64)]) -> WalRecord {
    let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Long(v))))
        .expect("uniform Long rows");
    WalRecord::PointBatch {
        key: key.clone(),
        batch,
    }
}

/// The count a column's leading varint claims (0 when it has none).
fn claimed_count(bytes: &[u8]) -> usize {
    varint::read_u64(bytes, &mut 0).unwrap_or(0) as usize
}

/// One operation on a memtable buffer.
#[derive(Debug, Clone)]
enum BufferOp {
    Extend(Vec<i64>),
    Delete(i64, i64),
    Sort,
}

/// Small timestamps, so ordered runs, out-of-order first points and
/// equal timestamps are all common; half the appends are ordered runs.
fn buffer_ops() -> impl Strategy<Value = Vec<BufferOp>> {
    let t = || 0i64..48;
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(t(), 0..12).prop_map(BufferOp::Extend),
            prop::collection::vec(t(), 0..12).prop_map(|mut ts| {
                ts.sort_unstable();
                BufferOp::Extend(ts)
            }),
            (t(), 0i64..8).prop_map(|(lo, w)| BufferOp::Delete(lo, lo + w)),
            t().prop_map(|_| BufferOp::Sort),
        ],
        0..60,
    )
}

proptest! {
    /// After every append, delete and sort of an INT32 and a TEXT buffer:
    /// `[..sorted_len]` is time-ordered, the buffer is sorted exactly when
    /// that run is all of it, its bounds are exact, a sort reports the run
    /// it started from, and the contents are a `Vec` model's, sorted by
    /// the standard stable sort where the buffer was sorted.
    #[test]
    fn a_buffers_ordered_run_holds_after_every_op(ops in buffer_ops()) {
        let stable = Algorithm::Backward(BackwardSort {
            in_block: InBlockSort::Stable,
            ..BackwardSort::default()
        });
        for dt in [DataType::Int32, DataType::Text] {
            let value = |stamp: i32| match dt {
                DataType::Text => TsValue::Text(stamp.to_string()),
                _ => TsValue::Int(stamp),
            };
            let mut buffer = SeriesBuffer::new(dt);
            let mut model: Vec<(i64, i32)> = Vec::new();
            let mut stamps = 0i32..;
            for op in &ops {
                match op {
                    BufferOp::Extend(ts) => {
                        let stamps: Vec<i32> = stamps.by_ref().take(ts.len()).collect();
                        let texts: Vec<String> = stamps.iter().map(|s| s.to_string()).collect();
                        let vals = match dt {
                            DataType::Text => ColumnSlice::Text(&texts),
                            _ => ColumnSlice::Int(&stamps),
                        };
                        buffer.extend_columns(ts, vals).unwrap();
                        model.extend(ts.iter().copied().zip(stamps));
                    }
                    &BufferOp::Delete(lo, hi) => {
                        let before = model.len();
                        model.retain(|p| !(lo..=hi).contains(&p.0));
                        prop_assert_eq!(buffer.delete_range(lo, hi), before - model.len());
                    }
                    BufferOp::Sort => {
                        let (run, len) = (buffer.sorted_len(), buffer.len());
                        let sort = buffer.sort_with_observed(&stable, None);
                        prop_assert_eq!(sort.map(|s| (s.prefix, s.tail)), (run < len).then_some((run, len - run)));
                        model.sort_by_key(|p| p.0);
                    }
                }
                let (run, len) = (buffer.sorted_len(), buffer.len());
                prop_assert_eq!(len, model.len());
                prop_assert!(run <= len, "sorted_len {} past len {}", run, len);
                prop_assert!(
                    model[..run].windows(2).all(|w| w[0].0 <= w[1].0),
                    "[..{}] is not time-ordered: {:?}", run, model
                );
                prop_assert_eq!(buffer.is_sorted(), run == len);
                prop_assert_eq!(buffer.min_time(), model.iter().map(|p| p.0).min());
                prop_assert_eq!(buffer.max_time(), model.iter().map(|p| p.0).max());
                let got: Vec<(i64, TsValue)> = (0..len).map(|i| buffer.get(i)).collect();
                let want: Vec<(i64, TsValue)> = model.iter().map(|&(t, s)| (t, value(s))).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
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
        let mut mt = MemTable::new();
        let (ts, vs): (Vec<i64>, Vec<i32>) = raw.iter().copied().unzip();
        mt.write_columns(&key, &ts, ColumnSlice::Int(&vs), &mut Default::default())
            .unwrap();
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
        batches in prop::collection::vec(
            prop::collection::vec((any::<i64>(), any::<i64>()), 1..4),
            1..40,
        ),
        cut in 0usize..64,
    ) {
        use backsort_engine::store::replay_wal;
        let key = SeriesKey::new("root.sg.d", "s");
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for rows in &batches {
            let start = buf.len();
            batch_record(&key, rows).encode_into(&mut buf);
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
        for (rec, rows) in recs.iter().zip(&batches) {
            prop_assert_eq!(rec, &batch_record(&key, rows));
        }
    }

    // A columnar batch record survives the WAL byte-exactly, whatever
    // the timestamp distribution and value column.
    #[test]
    fn wal_batch_record_roundtrips(
        rows in prop::collection::vec((any::<i64>(), any::<i64>()), 0..200),
    ) {
        use backsort_engine::store::replay_wal;
        let record = batch_record(&SeriesKey::new("root.sg.d", "s"), &rows);
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        let (recs, discarded) = replay_wal(&buf);
        prop_assert_eq!(discarded, 0);
        prop_assert_eq!(recs, vec![record]);
    }

    // The batch frame is the atomicity unit: truncate anywhere inside it
    // and replay keeps every earlier record but never a partial batch.
    #[test]
    fn wal_batch_frame_is_atomic_under_truncation(
        rows in prop::collection::vec((0i64..10_000, any::<i32>()), 1..60),
        cut_seed in any::<u64>(),
    ) {
        use backsort_engine::store::replay_wal;
        let key = SeriesKey::new("root.sg.d", "s");
        let point = batch_record(&key, &[(-1, 7)]);
        let mut buf = Vec::new();
        point.encode_into(&mut buf);
        let head = buf.len();
        let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Int(v))))
            .expect("uniform Int rows");
        WalRecord::PointBatch { key, batch }.encode_into(&mut buf);
        let cut = head + (cut_seed as usize) % (buf.len() - head);
        let (recs, discarded) = replay_wal(&buf[..cut]);
        prop_assert_eq!(recs, vec![point], "cut at {} left a partial batch", cut);
        prop_assert_eq!(discarded, cut - head);
    }

    // A single flipped bit anywhere in a batch frame — one point or
    // many — must never parse as a (different) record: either the CRC
    // rejects the frame, or — when the flip lands in the length prefix
    // and the frame no longer lines up — parsing stops. Nothing is ever
    // invented.
    #[test]
    fn wal_batch_frame_rejects_bit_flips(
        rows in prop::collection::vec((0i64..10_000, any::<i64>()), 1..40),
        flip in any::<usize>(),
    ) {
        let original = batch_record(&SeriesKey::new("root.sg.d", "s"), &rows);
        let mut buf = Vec::new();
        original.encode_into(&mut buf);
        let bit = flip % (buf.len() * 8);
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
