//! The count-distribution wire protocol: coordinator ↔ worker messages
//! for distributed mining, on the same length-prefixed CRC-framed
//! transport as the `qar serve` protocol ([`mod@crate::protocol`]).
//!
//! Request tags count from 21 and responses from 121, disjoint from the
//! serve protocol's 1../101.. ranges, so a worker frame replayed at a
//! rule server (or vice versa) is an [`ProtocolError::UnknownTag`] —
//! never a confused decode. Schema/encoder and itemset payloads reuse
//! the `.qarcat` section codecs byte-for-byte, so a worker's view of the
//! table is exactly what a catalog would persist.
//!
//! The conversation (driven entirely by the coordinator):
//!
//! ```text
//! Setup {schema, encoders}        → Ready
//! Rows {columns} ...              → RowsLoaded {total_rows}   (repeated)
//! CountItems                      → ItemCounts {counts}       (pass 1)
//! CountPairs {grid, start, len}   → Counts {counts}           (pass 2, repeated)
//! CountCandidates {pass, cands}   → Counts {counts}           (pass k ≥ 3)
//! Shutdown                        → Bye
//! ```
//!
//! Pass 2 ships only the per-attribute frequent-item lists (a
//! [`PairGrid`]); the worker counts its cells implicitly and answers a
//! window `[start, start + len)` of the grid's cells per request, so a
//! multi-million-cell answer stays under the frame ceiling. The worker keeps the full count vector of the last grid it
//! counted, so successive windows of one grid cost one scan.
//!
//! Every count a worker returns is the *raw* tally over its own row
//! partition — never filtered by a support threshold — so the
//! coordinator merges by element-wise `u64` addition and decides
//! frequency globally (the count-distribution invariant that makes the
//! distributed result bit-identical to the serial miner's).
//!
//! Large inputs are the caller's problem by design: a candidate batch or
//! row block that would overflow [`crate::protocol::MAX_PAYLOAD`] is a structured
//! [`ProtocolError::Oversized`] at encode time, and `qar-dist` splits
//! its batches to stay under the ceiling.

use crate::catalog::{
    decode_itemset, decode_schema, encode_itemset, encode_schema_with, validate_catalog_encoders,
};
use crate::format::{Reader, Writer};
use crate::protocol::{encode_frame, read_frame, ProtocolError};
use qar_core::PairGrid;
use qar_itemset::{Item, Itemset};
use qar_table::{AttributeEncoder, Schema};
use std::io::{Read, Write};

/// Message tags for the distributed-mining protocol. Requests count from
/// 21, responses from 121 (see module docs).
pub mod tag {
    /// Schema + encoders for the table being mined.
    pub const REQ_SETUP: u32 = 21;
    /// One block of encoded rows appended to the worker's partition.
    pub const REQ_ROWS: u32 = 22;
    /// Count the per-attribute value histograms (pass 1).
    pub const REQ_COUNT_ITEMS: u32 = 23;
    /// Count one batch of candidate itemsets (pass k ≥ 2).
    pub const REQ_COUNT_CANDIDATES: u32 = 24;
    /// Stop the worker; it replies and exits.
    pub const REQ_SHUTDOWN: u32 = 25;
    /// Count one window of the implicit pass-2 pair grid.
    pub const REQ_COUNT_PAIRS: u32 = 26;

    /// Setup accepted.
    pub const RESP_READY: u32 = 121;
    /// Rows appended; carries the partition's running row total.
    pub const RESP_ROWS_LOADED: u32 = 122;
    /// Per-attribute histograms answering [`REQ_COUNT_ITEMS`].
    pub const RESP_ITEM_COUNTS: u32 = 123;
    /// Raw counts answering [`REQ_COUNT_CANDIDATES`] or [`REQ_COUNT_PAIRS`].
    pub const RESP_COUNTS: u32 = 124;
    /// Acknowledges [`REQ_SHUTDOWN`]; the connection closes after.
    pub const RESP_BYE: u32 = 125;
    /// The worker failed; carries a human-readable reason.
    pub const RESP_ERROR: u32 = 126;
}

/// A coordinator → worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum DistRequest {
    /// Announce the table: schema and per-attribute encoders. Must be
    /// the first message; resets any previously loaded partition.
    Setup {
        /// Attribute declarations, in table order.
        schema: Schema,
        /// One encoder per attribute, in schema order.
        encoders: Vec<AttributeEncoder>,
    },
    /// Append a block of already-encoded rows to the worker's partition.
    /// `columns[attr][row]` — every column must have the same length.
    Rows {
        /// Column-major encoded codes for this block.
        columns: Vec<Vec<u32>>,
    },
    /// Run pass 1 over the partition: per-attribute value histograms.
    CountItems,
    /// Count a batch of candidate itemsets over the partition.
    CountCandidates {
        /// Pass number `k ≥ 2` (diagnostic; echoed in traces).
        pass: u32,
        /// The candidates, in coordinator order.
        candidates: Vec<Itemset>,
    },
    /// Count the pass-2 pair grid over the partition and answer the
    /// cells `[start, start + len)` of its canonical order.
    CountPairs {
        /// Each attribute's frequent items.
        grid: PairGrid,
        /// First cell of the window.
        start: u64,
        /// Cells in the window.
        len: u64,
    },
    /// Stop the worker.
    Shutdown,
}

/// A worker → coordinator message.
#[derive(Debug, Clone, PartialEq)]
pub enum DistResponse {
    /// Setup accepted; the worker is ready for rows.
    Ready,
    /// Rows appended.
    RowsLoaded {
        /// Rows in the partition after this block.
        total_rows: u64,
    },
    /// Pass-1 histograms: `counts[attr][code]`, raw tallies over the
    /// worker's partition.
    ItemCounts {
        /// Per-attribute value histograms.
        counts: Vec<Vec<u64>>,
    },
    /// Candidate counts, aligned with the request's candidate order (or
    /// the requested pair-grid window) — raw tallies over the worker's
    /// partition.
    Counts {
        /// One count per candidate.
        counts: Vec<u64>,
    },
    /// Shutdown acknowledged.
    Bye,
    /// The worker could not serve the request.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl DistRequest {
    /// The frame tag for this message.
    pub fn tag(&self) -> u32 {
        match self {
            DistRequest::Setup { .. } => tag::REQ_SETUP,
            DistRequest::Rows { .. } => tag::REQ_ROWS,
            DistRequest::CountItems => tag::REQ_COUNT_ITEMS,
            DistRequest::CountCandidates { .. } => tag::REQ_COUNT_CANDIDATES,
            DistRequest::CountPairs { .. } => tag::REQ_COUNT_PAIRS,
            DistRequest::Shutdown => tag::REQ_SHUTDOWN,
        }
    }

    /// Encode the payload (everything after the frame header).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            DistRequest::Setup { schema, encoders } => {
                return encode_schema_with(schema, encoders);
            }
            DistRequest::Rows { columns } => {
                w.put_u64(columns.len() as u64);
                for col in columns {
                    w.put_u64(col.len() as u64);
                    for &code in col {
                        w.put_u32(code);
                    }
                }
            }
            DistRequest::CountItems => {}
            DistRequest::CountCandidates { pass, candidates } => {
                w.put_u32(*pass);
                w.put_u64(candidates.len() as u64);
                for c in candidates {
                    encode_itemset(&mut w, c);
                }
            }
            DistRequest::CountPairs { grid, start, len } => {
                w.put_u64(*start);
                w.put_u64(*len);
                w.put_u64(grid.attrs().len() as u64);
                for (attr, items) in grid.attrs() {
                    w.put_u32(*attr);
                    w.put_u64(items.len() as u64);
                    for item in items {
                        w.put_u32(item.lo);
                        w.put_u32(item.hi);
                    }
                }
            }
            DistRequest::Shutdown => {}
        }
        w.into_bytes()
    }

    /// Encode as a complete frame. [`ProtocolError::Oversized`] when the
    /// payload exceeds [`crate::protocol::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ProtocolError> {
        encode_frame(self.tag(), &self.payload())
    }

    /// Decode from a frame's tag + payload. Strict: the payload must be
    /// consumed exactly.
    pub fn decode(tag_: u32, payload: &[u8]) -> Result<DistRequest, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = match tag_ {
            tag::REQ_SETUP => {
                let (schema, encoders) = decode_schema(payload)?;
                validate_catalog_encoders(&schema, &encoders)?;
                return Ok(DistRequest::Setup { schema, encoders });
            }
            tag::REQ_ROWS => {
                let ncols = r.get_count(8)?;
                let mut columns = Vec::with_capacity(ncols);
                let mut rows: Option<usize> = None;
                for _ in 0..ncols {
                    let n = r.get_count(4)?;
                    if *rows.get_or_insert(n) != n {
                        return Err(ProtocolError::Corrupt {
                            detail: "row block columns have unequal lengths".to_string(),
                        });
                    }
                    let mut col = Vec::with_capacity(n);
                    for _ in 0..n {
                        col.push(r.get_u32()?);
                    }
                    columns.push(col);
                }
                DistRequest::Rows { columns }
            }
            tag::REQ_COUNT_ITEMS => DistRequest::CountItems,
            tag::REQ_COUNT_CANDIDATES => {
                let pass = r.get_u32()?;
                // An itemset is at least its length prefix + one item.
                let n = r.get_count(8 + 12)?;
                let mut candidates = Vec::with_capacity(n);
                for _ in 0..n {
                    candidates.push(decode_itemset(&mut r)?);
                }
                DistRequest::CountCandidates { pass, candidates }
            }
            tag::REQ_COUNT_PAIRS => {
                let start = r.get_u64()?;
                let len = r.get_u64()?;
                // An attribute entry is at least its id + item count.
                let n = r.get_count(4 + 8)?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let attr = r.get_u32()?;
                    let m = r.get_count(8)?;
                    let mut items = Vec::with_capacity(m);
                    for _ in 0..m {
                        let (lo, hi) = (r.get_u32()?, r.get_u32()?);
                        items.push(Item { attr, lo, hi });
                    }
                    attrs.push((attr, items));
                }
                let grid =
                    PairGrid::new(attrs).map_err(|detail| ProtocolError::Corrupt { detail })?;
                DistRequest::CountPairs { grid, start, len }
            }
            tag::REQ_SHUTDOWN => DistRequest::Shutdown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(r)?;
        Ok(req)
    }
}

impl DistResponse {
    /// The frame tag for this message.
    pub fn tag(&self) -> u32 {
        match self {
            DistResponse::Ready => tag::RESP_READY,
            DistResponse::RowsLoaded { .. } => tag::RESP_ROWS_LOADED,
            DistResponse::ItemCounts { .. } => tag::RESP_ITEM_COUNTS,
            DistResponse::Counts { .. } => tag::RESP_COUNTS,
            DistResponse::Bye => tag::RESP_BYE,
            DistResponse::Error { .. } => tag::RESP_ERROR,
        }
    }

    /// Encode the payload (everything after the frame header).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            DistResponse::Ready | DistResponse::Bye => {}
            DistResponse::RowsLoaded { total_rows } => w.put_u64(*total_rows),
            DistResponse::ItemCounts { counts } => {
                w.put_u64(counts.len() as u64);
                for col in counts {
                    w.put_u64(col.len() as u64);
                    for &c in col {
                        w.put_u64(c);
                    }
                }
            }
            DistResponse::Counts { counts } => {
                w.put_u64(counts.len() as u64);
                for &c in counts {
                    w.put_u64(c);
                }
            }
            DistResponse::Error { message } => w.put_str(message),
        }
        w.into_bytes()
    }

    /// Encode as a complete frame. [`ProtocolError::Oversized`] when the
    /// payload exceeds [`crate::protocol::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ProtocolError> {
        encode_frame(self.tag(), &self.payload())
    }

    /// Decode from a frame's tag + payload. Strict: the payload must be
    /// consumed exactly.
    pub fn decode(tag_: u32, payload: &[u8]) -> Result<DistResponse, ProtocolError> {
        let mut r = Reader::new(payload);
        let resp = match tag_ {
            tag::RESP_READY => DistResponse::Ready,
            tag::RESP_ROWS_LOADED => DistResponse::RowsLoaded {
                total_rows: r.get_u64()?,
            },
            tag::RESP_ITEM_COUNTS => {
                let n = r.get_count(8)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = r.get_count(8)?;
                    let mut col = Vec::with_capacity(m);
                    for _ in 0..m {
                        col.push(r.get_u64()?);
                    }
                    counts.push(col);
                }
                DistResponse::ItemCounts { counts }
            }
            tag::RESP_COUNTS => {
                let n = r.get_count(8)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    counts.push(r.get_u64()?);
                }
                DistResponse::Counts { counts }
            }
            tag::RESP_BYE => DistResponse::Bye,
            tag::RESP_ERROR => DistResponse::Error {
                message: r.get_str()?,
            },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        finish(r)?;
        Ok(resp)
    }
}

/// Reject unconsumed payload bytes (canonical decode).
fn finish(r: Reader<'_>) -> Result<(), ProtocolError> {
    if r.remaining() > 0 {
        return Err(ProtocolError::TrailingBytes { offset: r.pos() });
    }
    Ok(())
}

/// Write one request frame to a stream.
pub fn write_request<W: Write>(w: &mut W, request: &DistRequest) -> Result<(), ProtocolError> {
    w.write_all(&request.to_frame()?)?;
    Ok(())
}

/// Write one response frame to a stream.
pub fn write_response<W: Write>(w: &mut W, response: &DistResponse) -> Result<(), ProtocolError> {
    w.write_all(&response.to_frame()?)?;
    Ok(())
}

/// Read the next request from a stream; `Ok(None)` is a clean EOF at a
/// frame boundary.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<DistRequest>, ProtocolError> {
    match read_frame(r)? {
        Some((tag_, payload)) => Ok(Some(DistRequest::decode(tag_, &payload)?)),
        None => Ok(None),
    }
}

/// Read the next response from a stream; `Ok(None)` is a clean EOF at a
/// frame boundary.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<DistResponse>, ProtocolError> {
    match read_frame(r)? {
        Some((tag_, payload)) => Ok(Some(DistResponse::decode(tag_, &payload)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_frame;
    use qar_itemset::Item;
    use qar_table::Schema;

    fn sample_schema() -> (Schema, Vec<AttributeEncoder>) {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .build()
            .unwrap();
        let encoders = vec![
            AttributeEncoder::quant_intervals_from(&[20.0, 30.0, 40.0], vec![25.0, 35.0], true),
            AttributeEncoder::Categorical {
                labels: vec!["No".to_string(), "Yes".to_string()],
            },
        ];
        (schema, encoders)
    }

    fn sample_requests() -> Vec<DistRequest> {
        let (schema, encoders) = sample_schema();
        vec![
            DistRequest::Setup { schema, encoders },
            DistRequest::Rows {
                columns: vec![vec![0, 1, 2], vec![1, 0, 1]],
            },
            DistRequest::Rows {
                columns: Vec::new(),
            },
            DistRequest::CountItems,
            DistRequest::CountCandidates {
                pass: 2,
                candidates: vec![
                    Itemset::new(vec![Item::range(0, 0, 1), Item::value(1, 1)]),
                    Itemset::new(vec![Item::value(0, 2), Item::value(1, 0)]),
                ],
            },
            DistRequest::CountPairs {
                grid: PairGrid::new(vec![
                    (0, vec![Item::range(0, 0, 1), Item::value(0, 2)]),
                    (1, vec![Item::value(1, 0), Item::value(1, 1)]),
                ])
                .unwrap(),
                start: 1,
                len: 1,
            },
            DistRequest::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<DistResponse> {
        vec![
            DistResponse::Ready,
            DistResponse::RowsLoaded { total_rows: 3 },
            DistResponse::ItemCounts {
                counts: vec![vec![1, 1, 1], vec![1, 2]],
            },
            DistResponse::Counts {
                counts: vec![2, 0, 17],
            },
            DistResponse::Bye,
            DistResponse::Error {
                message: "partition not loaded".to_string(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let frame = req.to_frame().unwrap();
            let (tag_, payload) = decode_frame(&frame).unwrap();
            let back = DistRequest::decode(tag_, payload).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.to_frame().unwrap(), frame, "canonical re-encode");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let frame = resp.to_frame().unwrap();
            let (tag_, payload) = decode_frame(&frame).unwrap();
            let back = DistResponse::decode(tag_, payload).unwrap();
            assert_eq!(back, resp);
            assert_eq!(back.to_frame().unwrap(), frame, "canonical re-encode");
        }
    }

    #[test]
    fn stream_io_round_trips() {
        let mut buf = Vec::new();
        for req in sample_requests() {
            write_request(&mut buf, &req).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut back = Vec::new();
        while let Some(req) = read_request(&mut cursor).unwrap() {
            back.push(req);
        }
        assert_eq!(back, sample_requests());

        let mut buf = Vec::new();
        for resp in sample_responses() {
            write_response(&mut buf, &resp).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut back = Vec::new();
        while let Some(resp) = read_response(&mut cursor).unwrap() {
            back.push(resp);
        }
        assert_eq!(back, sample_responses());
    }

    #[test]
    fn tags_are_disjoint_from_serve_protocol() {
        let serve_tags = [1u32, 2, 3, 4, 5, 6, 101, 102, 103, 104, 105, 106, 107];
        for req in sample_requests() {
            assert!(!serve_tags.contains(&req.tag()), "tag {}", req.tag());
        }
        for resp in sample_responses() {
            assert!(!serve_tags.contains(&resp.tag()), "tag {}", resp.tag());
        }
        // A dist frame handed to the serve decoder is UnknownTag.
        let frame = DistRequest::CountItems.to_frame().unwrap();
        let (tag_, payload) = decode_frame(&frame).unwrap();
        assert!(matches!(
            crate::protocol::Request::decode(tag_, payload),
            Err(ProtocolError::UnknownTag(_))
        ));
    }

    #[test]
    fn single_byte_corruption_never_decodes() {
        let frame = DistRequest::CountCandidates {
            pass: 3,
            candidates: vec![Itemset::new(vec![Item::range(0, 1, 2)])],
        }
        .to_frame()
        .unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            let result = decode_frame(&bad).and_then(|(t, p)| DistRequest::decode(t, p));
            assert!(result.is_err(), "flip at byte {i} still decoded");
        }
    }

    #[test]
    fn ragged_row_block_rejected() {
        let good = DistRequest::Rows {
            columns: vec![vec![0, 1], vec![2, 3]],
        };
        let mut payload = Writer::new();
        payload.put_u64(2);
        payload.put_u64(2);
        payload.put_u32(0);
        payload.put_u32(1);
        payload.put_u64(1); // second column shorter
        payload.put_u32(2);
        let bad = payload.into_bytes();
        assert!(matches!(
            DistRequest::decode(tag::REQ_ROWS, &bad),
            Err(ProtocolError::Corrupt { .. })
        ));
        // The well-formed equivalent still decodes.
        let frame = good.to_frame().unwrap();
        let (t, p) = decode_frame(&frame).unwrap();
        assert_eq!(DistRequest::decode(t, p).unwrap(), good);
    }

    #[test]
    fn non_canonical_pair_grid_rejected() {
        // Attributes out of order.
        let mut payload = Writer::new();
        payload.put_u64(0);
        payload.put_u64(1);
        payload.put_u64(2);
        for attr in [1u32, 0] {
            payload.put_u32(attr);
            payload.put_u64(1);
            payload.put_u32(0);
            payload.put_u32(0);
        }
        assert!(matches!(
            DistRequest::decode(tag::REQ_COUNT_PAIRS, &payload.into_bytes()),
            Err(ProtocolError::Corrupt { .. })
        ));
    }

    #[test]
    fn oversized_candidate_batch_is_structured() {
        // ~1.4M two-item candidates ≈ 32 bytes each > 16 MiB.
        let candidates: Vec<Itemset> = (0..1_400_000u32)
            .map(|i| Itemset::new(vec![Item::value(0, i), Item::value(1, i)]))
            .collect();
        match (DistRequest::CountCandidates {
            pass: 2,
            candidates,
        })
        .to_frame()
        {
            Err(ProtocolError::Oversized { .. }) => {}
            Err(other) => panic!("expected Oversized, got {other:?}"),
            Ok(_) => panic!("oversized batch framed"),
        }
    }
}
