//! The worker side of count-distribution mining.
//!
//! A worker is a dumb, exact counter: it receives the table's schema and
//! encoders, accumulates a contiguous partition of already-encoded rows,
//! and answers counting requests with raw `u64` tallies over that
//! partition — never filtered by a support threshold, so the
//! coordinator's element-wise merge reproduces the serial counts
//! exactly. All policy (candidate generation, frequency, rules) stays on
//! the coordinator.
//!
//! Errors split two ways, mirroring the serve protocol's convention:
//! application-level problems (rows before setup, a code outside its
//! encoder's range) become [`DistResponse::Error`] replies and the
//! connection lives on; transport-level problems (corrupt frame, socket
//! loss) terminate the serve loop with a [`ProtocolError`].

use qar_core::frequent::attribute_value_counts;
use qar_core::supercand::{count_candidates_opts, count_pairs_opts, ScanOptions, PAIR_CELL_BUDGET};
use qar_core::{MinerConfig, PairGrid, ScanKernel};
use qar_store::dist::{read_request, write_response, DistRequest, DistResponse};
use qar_store::protocol::ProtocolError;
use qar_table::{AttributeEncoder, EncodedTable, Schema};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Tuning knobs for a worker's counting scans. They affect speed only —
/// counts are exact under every kernel and thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Threads per counting scan; `0` picks the machine default (the
    /// same resolution [`MinerConfig::effective_parallelism`] applies).
    pub num_threads: usize,
    /// Pinned scan kernel for candidate counting (`None`: each pass
    /// picks its own).
    pub kernel: Option<ScanKernel>,
}

impl WorkerOptions {
    fn effective_threads(&self) -> usize {
        if self.num_threads > 0 {
            return self.num_threads;
        }
        MinerConfig::default().effective_parallelism()
    }

    fn scan_options(&self) -> ScanOptions<'static> {
        ScanOptions {
            kernel: self.kernel,
            ..ScanOptions::new(self.effective_threads())
        }
    }
}

/// The accumulated partition: schema, encoders, and the code columns
/// received so far. Columns are kept raw until the first counting
/// request, then assembled once into an [`EncodedTable`] (no copy).
struct Partition {
    schema: Schema,
    encoders: Vec<AttributeEncoder>,
    columns: Vec<Vec<u32>>,
    rows: usize,
    encoded: Option<EncodedTable>,
    /// The last pair grid counted and its full count vector, serving the
    /// coordinator's successive windows of one pass-2 answer.
    pairs: Option<(PairGrid, Vec<u64>)>,
}

impl Partition {
    fn new(schema: Schema, encoders: Vec<AttributeEncoder>) -> Self {
        let columns = vec![Vec::new(); schema.len()];
        Partition {
            schema,
            encoders,
            columns,
            rows: 0,
            encoded: None,
            pairs: None,
        }
    }

    /// Append one row block; rejects shape and code-range violations
    /// (untrusted input — `EncodedTable::from_parts` does not check).
    fn append(&mut self, block: Vec<Vec<u32>>) -> Result<(), String> {
        if block.is_empty() {
            return Ok(()); // zero-row block
        }
        if block.len() != self.schema.len() {
            return Err(format!(
                "row block has {} columns, schema has {}",
                block.len(),
                self.schema.len()
            ));
        }
        for (i, col) in block.iter().enumerate() {
            let cardinality = self.encoders[i].cardinality();
            if let Some(&bad) = col.iter().find(|&&c| c >= cardinality) {
                return Err(format!(
                    "attribute {i}: code {bad} outside cardinality {cardinality}"
                ));
            }
        }
        // A block after counting began re-opens the raw columns (the
        // assembled table owns them by then — copy them back out) and
        // invalidates the cached pair counts.
        self.pairs = None;
        if let Some(encoded) = self.encoded.take() {
            self.columns = self
                .schema
                .iter()
                .map(|(id, _)| encoded.codes(id).to_vec())
                .collect();
        }
        let added = block[0].len();
        for (col, add) in self.columns.iter_mut().zip(block) {
            col.extend_from_slice(&add);
        }
        self.rows += added;
        Ok(())
    }

    /// The partition as a scannable table, assembled on first use.
    fn table(&mut self) -> &EncodedTable {
        if self.encoded.is_none() {
            let columns = std::mem::take(&mut self.columns);
            self.encoded = Some(EncodedTable::from_parts(
                self.schema.clone(),
                self.encoders.clone(),
                columns,
                self.rows,
            ));
        }
        self.encoded.as_ref().expect("assembled above")
    }

    /// Cells `[start, start + len)` of `grid`'s counts over the
    /// partition, counting the grid only when it differs from the cached
    /// one.
    fn pair_window(
        &mut self,
        grid: PairGrid,
        start: u64,
        len: u64,
        opts: &WorkerOptions,
    ) -> Result<Vec<u64>, String> {
        let in_range = grid.attrs().iter().all(|(attr, items)| {
            let encoder = self.encoders.get(*attr as usize);
            encoder.is_some_and(|e| items.iter().all(|item| item.hi < e.cardinality()))
        });
        if !in_range {
            return Err("pair grid item outside its attribute's codes".to_string());
        }
        if !matches!(&self.pairs, Some((cached, _)) if *cached == grid) {
            let counted =
                count_pairs_opts(self.table(), &grid, PAIR_CELL_BUDGET, opts.scan_options());
            let (counts, _) = counted.map_err(|_| "counting scan was cancelled".to_string())?;
            self.pairs = Some((grid, counts));
        }
        let counts = &self.pairs.as_ref().expect("counted above").1;
        (start.checked_add(len))
            .filter(|&end| end <= counts.len() as u64)
            .map(|end| counts[start as usize..end as usize].to_vec())
            .ok_or_else(|| format!("pair window {start}+{len} outside {} cells", counts.len()))
    }
}

/// Serve one coordinator connection until `Shutdown` or a clean EOF.
///
/// Generic over the stream so tests can drive it with in-memory pipes;
/// [`run_worker`] wraps it around a [`TcpStream`].
pub fn serve_connection<S: Read + Write>(
    stream: &mut S,
    opts: &WorkerOptions,
) -> Result<(), ProtocolError> {
    let mut partition: Option<Partition> = None;
    loop {
        let Some(request) = read_request(stream)? else {
            return Ok(()); // coordinator went away at a frame boundary
        };
        let response = match request {
            DistRequest::Setup { schema, encoders } => {
                partition = Some(Partition::new(schema, encoders));
                DistResponse::Ready
            }
            DistRequest::Rows { columns } => match &mut partition {
                None => DistResponse::Error {
                    message: "rows before setup".to_string(),
                },
                Some(p) => match p.append(columns) {
                    Ok(()) => DistResponse::RowsLoaded {
                        total_rows: p.rows as u64,
                    },
                    Err(message) => DistResponse::Error { message },
                },
            },
            DistRequest::CountItems => match &mut partition {
                None => DistResponse::Error {
                    message: "count before setup".to_string(),
                },
                Some(p) => DistResponse::ItemCounts {
                    counts: attribute_value_counts(p.table()),
                },
            },
            DistRequest::CountCandidates { candidates, .. } => match &mut partition {
                None => DistResponse::Error {
                    message: "count before setup".to_string(),
                },
                Some(p) => {
                    match count_candidates_opts(p.table(), &candidates, None, opts.scan_options()) {
                        Ok((counts, _)) => DistResponse::Counts { counts },
                        Err(_) => DistResponse::Error {
                            message: "counting scan was cancelled".to_string(),
                        },
                    }
                }
            },
            DistRequest::CountPairs { grid, start, len } => match &mut partition {
                None => DistResponse::Error {
                    message: "count before setup".to_string(),
                },
                Some(p) => match p.pair_window(grid, start, len, opts) {
                    Ok(counts) => DistResponse::Counts { counts },
                    Err(message) => DistResponse::Error { message },
                },
            },
            DistRequest::Shutdown => {
                write_response(stream, &DistResponse::Bye)?;
                return Ok(());
            }
        };
        write_response(stream, &response)?;
    }
}

/// Connect to a coordinator at `addr` and serve until shutdown — the
/// body of `qar worker --connect ADDR`.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<(), ProtocolError> {
    let mut stream = TcpStream::connect(addr).map_err(ProtocolError::Io)?;
    let _ = stream.set_nodelay(true);
    serve_connection(&mut stream, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_itemset::{Item, Itemset};
    use qar_store::dist::{read_response, write_request};
    use std::io::Cursor;

    fn schema_and_encoders() -> (Schema, Vec<AttributeEncoder>) {
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

    /// Run a scripted conversation through the serve loop.
    fn converse(requests: &[DistRequest]) -> Vec<DistResponse> {
        let mut input = Vec::new();
        for request in requests {
            write_request(&mut input, request).unwrap();
        }
        // A combined Read+Write stream over (script, captured output).
        struct Duplex {
            input: Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut stream = Duplex {
            input: Cursor::new(input),
            output: Vec::new(),
        };
        serve_connection(&mut stream, &WorkerOptions::default()).unwrap();
        let mut cursor = Cursor::new(stream.output);
        let mut responses = Vec::new();
        while let Some(response) = read_response(&mut cursor).unwrap() {
            responses.push(response);
        }
        responses
    }

    #[test]
    fn full_conversation_counts_exactly() {
        let (schema, encoders) = schema_and_encoders();
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::Rows {
                columns: vec![vec![0, 1, 1], vec![1, 1, 0]],
            },
            DistRequest::Rows {
                columns: vec![vec![2], vec![1]],
            },
            DistRequest::CountItems,
            DistRequest::CountCandidates {
                pass: 2,
                candidates: vec![
                    Itemset::new(vec![Item::value(0, 1), Item::value(1, 1)]),
                    Itemset::new(vec![Item::value(0, 0), Item::value(1, 0)]),
                ],
            },
            DistRequest::Shutdown,
        ]);
        assert_eq!(
            responses,
            vec![
                DistResponse::Ready,
                DistResponse::RowsLoaded { total_rows: 3 },
                DistResponse::RowsLoaded { total_rows: 4 },
                DistResponse::ItemCounts {
                    counts: vec![vec![1, 2, 1], vec![1, 3]],
                },
                DistResponse::Counts { counts: vec![1, 0] },
                DistResponse::Bye,
            ]
        );
    }

    #[test]
    fn pair_windows_slice_one_count_of_the_grid() {
        let (schema, encoders) = schema_and_encoders();
        let grid = PairGrid::new(vec![
            (
                0,
                vec![Item::value(0, 0), Item::value(0, 1), Item::value(0, 2)],
            ),
            (1, vec![Item::value(1, 0), Item::value(1, 1)]),
        ])
        .unwrap();
        let window = |start, len| DistRequest::CountPairs {
            grid: grid.clone(),
            start,
            len,
        };
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::Rows {
                columns: vec![vec![0, 1, 1, 2], vec![1, 1, 0, 1]],
            },
            window(0, 4),
            window(4, 2),
            window(5, 2),
            DistRequest::CountPairs {
                grid: PairGrid::new(vec![(1, vec![Item::value(1, 2)])]).unwrap(),
                start: 0,
                len: 0,
            },
            // New rows invalidate the cached counts.
            DistRequest::Rows {
                columns: vec![vec![0], vec![1]],
            },
            window(0, 2),
        ]);
        assert_eq!(
            responses[2],
            DistResponse::Counts {
                counts: vec![0, 1, 1, 1]
            }
        );
        assert_eq!(responses[3], DistResponse::Counts { counts: vec![0, 1] });
        assert!(matches!(responses[4], DistResponse::Error { .. }));
        assert!(
            matches!(responses[5], DistResponse::Error { .. }),
            "code 2 of a 2-label attribute"
        );
        assert_eq!(responses[7], DistResponse::Counts { counts: vec![0, 2] });
    }

    #[test]
    fn protocol_violations_are_soft_errors() {
        let (schema, encoders) = schema_and_encoders();
        let responses = converse(&[
            DistRequest::Rows {
                columns: vec![vec![0]],
            },
            DistRequest::CountItems,
            DistRequest::Setup {
                schema: schema.clone(),
                encoders: encoders.clone(),
            },
            DistRequest::Rows {
                columns: vec![vec![0]], // one column, schema has two
            },
            DistRequest::Rows {
                columns: vec![vec![99], vec![0]], // code out of range
            },
            DistRequest::Rows {
                columns: vec![vec![0], vec![1]],
            },
            DistRequest::Shutdown,
        ]);
        assert!(matches!(responses[0], DistResponse::Error { .. }));
        assert!(matches!(responses[1], DistResponse::Error { .. }));
        assert_eq!(responses[2], DistResponse::Ready);
        assert!(matches!(responses[3], DistResponse::Error { .. }));
        assert!(matches!(responses[4], DistResponse::Error { .. }));
        // The partition survives bad blocks untouched.
        assert_eq!(responses[5], DistResponse::RowsLoaded { total_rows: 1 });
        assert_eq!(responses[6], DistResponse::Bye);
    }

    #[test]
    fn empty_partition_counts_zero() {
        let (schema, encoders) = schema_and_encoders();
        let responses = converse(&[
            DistRequest::Setup { schema, encoders },
            DistRequest::CountItems,
            DistRequest::CountCandidates {
                pass: 2,
                candidates: vec![Itemset::new(vec![Item::value(0, 0), Item::value(1, 0)])],
            },
            DistRequest::Shutdown,
        ]);
        assert_eq!(
            responses[1],
            DistResponse::ItemCounts {
                counts: vec![vec![0, 0, 0], vec![0, 0]],
            }
        );
        assert_eq!(responses[2], DistResponse::Counts { counts: vec![0] });
    }
}
