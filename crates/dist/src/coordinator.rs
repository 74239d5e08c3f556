//! The coordinator side of count-distribution mining.
//!
//! [`Cluster`] owns the worker pool: it binds a loopback listener,
//! spawns workers (child processes running `qar worker --connect ADDR`,
//! or in-process threads for tests and the differential oracle), and
//! accepts their connections. [`DistSource`] then implements
//! [`CountSource`] over the pool — it partitions the backing rows
//! contiguously across workers, streams each partition out as bounded
//! row blocks, and answers every counting request by broadcasting it and
//! merging the raw per-worker tallies with element-wise `u64` addition.
//!
//! Partial failure: a worker that times out, drops its connection, or
//! answers out of protocol is declared **lost** (one `worker_lost` trace
//! event, [`MinerError::WorkerLost`] under
//! [`DistOptions::fail_fast`]). The coordinator keeps the backing data,
//! so by default it recovers by recounting the lost partition locally —
//! the merged counts, and therefore the mined rules, are unchanged.

use qar_core::pipeline::MiningOutput;
use qar_core::source::{mine_source, CountError, CountSource, Counted};
use qar_core::supercand::{
    count_candidates_opts, count_pairs_opts, PassStats, ScanCancelled, ScanOptions,
    PAIR_CELL_BUDGET,
};
use qar_core::{MinerConfig, MinerError, PairGrid, ScanKernel};
use qar_itemset::Itemset;
use qar_store::dist::{read_response, write_request, DistRequest, DistResponse};
use qar_store::protocol::MAX_PAYLOAD;
use qar_table::{AttributeEncoder, ChunkStore, EncodedTable, Schema};
use qar_trace::{event::micros, CancelToken, ProgressSink, TraceEvent};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::worker::{run_worker, WorkerOptions};

/// Row blocks, candidate batches and pair-count windows are kept under
/// this wire size — comfortably below the protocol's 16 MiB frame
/// ceiling, and small enough that per-batch count responses never strain
/// socket buffers.
const BATCH_BYTES: usize = 4 << 20;

/// How workers are brought up.
#[derive(Debug, Clone)]
pub enum WorkerSpawn {
    /// Spawn child processes: `exe worker --connect ADDR [args...]` —
    /// the production path (`exe` is the `qar` binary).
    Processes {
        /// Binary to execute.
        exe: PathBuf,
        /// Extra arguments appended after `worker --connect ADDR`.
        args: Vec<String>,
    },
    /// Run workers as in-process threads — no processes to manage, used
    /// by tests and the differential oracle. Counting is still performed
    /// over real TCP connections through the full wire protocol.
    Threads(WorkerOptions),
}

/// Cluster bring-up parameters.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Number of workers (≥ 1).
    pub workers: usize,
    /// How to start them.
    pub spawn: WorkerSpawn,
    /// Per-response read timeout; an expiry counts as a lost worker.
    /// `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long to wait for all workers to connect at start-up.
    pub accept_timeout: Duration,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            workers: 2,
            spawn: WorkerSpawn::Threads(WorkerOptions::default()),
            read_timeout: Some(Duration::from_secs(120)),
            accept_timeout: Duration::from_secs(10),
        }
    }
}

/// One connected worker.
struct Remote {
    stream: TcpStream,
    peer: String,
    alive: bool,
}

impl Remote {
    /// One request/response exchange. Any failure — I/O, timeout, a
    /// protocol error, or an `Error` reply — comes back as the loss
    /// detail string.
    fn request(&mut self, request: &DistRequest) -> Result<DistResponse, String> {
        self.send(request)?;
        self.receive()
    }

    fn send(&mut self, request: &DistRequest) -> Result<(), String> {
        write_request(&mut self.stream, request).map_err(|e| e.to_string())
    }

    fn receive(&mut self) -> Result<DistResponse, String> {
        match read_response(&mut self.stream) {
            Ok(Some(DistResponse::Error { message })) => Err(format!("worker error: {message}")),
            Ok(Some(response)) => Ok(response),
            Ok(None) => Err("connection closed".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A pool of connected workers plus the child processes / threads
/// backing them. Dropping the cluster closes every connection (workers
/// exit on EOF) and reaps the children.
pub struct Cluster {
    remotes: Vec<Remote>,
    children: Vec<Child>,
    threads: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Bind a loopback listener, start `options.workers` workers, and
    /// wait for them all to connect.
    pub fn start(options: &ClusterOptions) -> Result<Cluster, MinerError> {
        if options.workers == 0 {
            return Err(MinerError::Distributed(
                "a cluster needs at least one worker".to_string(),
            ));
        }
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| MinerError::Distributed(format!("bind coordinator listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| MinerError::Distributed(format!("coordinator listener address: {e}")))?
            .to_string();

        let mut children = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..options.workers {
            match &options.spawn {
                WorkerSpawn::Processes { exe, args } => {
                    let child = Command::new(exe)
                        .arg("worker")
                        .arg("--connect")
                        .arg(&addr)
                        .args(args)
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .spawn()
                        .map_err(|e| {
                            MinerError::Distributed(format!(
                                "spawn worker process {}: {e}",
                                exe.display()
                            ))
                        })?;
                    children.push(child);
                }
                WorkerSpawn::Threads(worker_options) => {
                    let addr = addr.clone();
                    let worker_options = *worker_options;
                    threads.push(std::thread::spawn(move || {
                        let _ = run_worker(&addr, &worker_options);
                    }));
                }
            }
        }

        // Accept until every worker is connected or the deadline passes.
        listener
            .set_nonblocking(true)
            .map_err(|e| MinerError::Distributed(format!("listener nonblocking: {e}")))?;
        let deadline = Instant::now() + options.accept_timeout;
        let mut remotes = Vec::with_capacity(options.workers);
        while remotes.len() < options.workers {
            match listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nonblocking(false).map_err(|e| {
                        MinerError::Distributed(format!("worker stream blocking: {e}"))
                    })?;
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(options.read_timeout);
                    remotes.push(Remote {
                        stream,
                        peer: peer.to_string(),
                        alive: true,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(MinerError::Distributed(format!(
                            "only {}/{} workers connected within {:?}",
                            remotes.len(),
                            options.workers,
                            options.accept_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(MinerError::Distributed(format!("accept worker: {e}")));
                }
            }
        }
        Ok(Cluster {
            remotes,
            children,
            threads,
        })
    }

    /// Adopt already-connected worker streams (tests drive misbehaving
    /// workers through this).
    pub fn from_streams(streams: Vec<TcpStream>, read_timeout: Option<Duration>) -> Cluster {
        let remotes = streams
            .into_iter()
            .map(|stream| {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".to_string());
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(read_timeout);
                Remote {
                    stream,
                    peer,
                    alive: true,
                }
            })
            .collect();
        Cluster {
            remotes,
            children: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Number of workers in the pool (alive or lost).
    pub fn len(&self) -> usize {
        self.remotes.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.remotes.is_empty()
    }

    /// Gracefully stop every live worker (Shutdown → Bye), close the
    /// connections, and reap children and threads.
    pub fn shutdown(&mut self) {
        for remote in &mut self.remotes {
            if remote.alive {
                let _ = remote.request(&DistRequest::Shutdown);
                remote.alive = false;
            }
        }
        self.remotes.clear(); // closes the sockets; EOF stops stragglers
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        for mut child in self.children.drain(..) {
            let finished = matches!(child.try_wait(), Ok(Some(_)));
            if !finished {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where the coordinator's copy of the rows lives. It keeps this copy
/// for the lifetime of the run — that is what makes lost-worker
/// recovery (a local recount of the lost partition) possible.
#[derive(Clone, Copy)]
pub enum Backing<'a> {
    /// An in-memory encoded table.
    Memory(&'a EncodedTable),
    /// An out-of-core chunk store; blocks are re-read from disk on
    /// demand, so peak memory stays one block.
    Chunks(&'a ChunkStore),
}

impl Backing<'_> {
    fn schema(&self) -> &Schema {
        match self {
            Backing::Memory(table) => table.schema(),
            Backing::Chunks(store) => store.schema(),
        }
    }

    fn encoders(&self) -> &[AttributeEncoder] {
        match self {
            Backing::Memory(table) => table.encoders(),
            Backing::Chunks(store) => store.encoders(),
        }
    }

    fn num_rows(&self) -> usize {
        match self {
            Backing::Memory(table) => table.num_rows(),
            Backing::Chunks(store) => store.num_rows(),
        }
    }

    /// Stream rows `[start, end)` as column-major blocks of at most
    /// `max_rows` rows each.
    fn for_each_block(
        &self,
        start: usize,
        end: usize,
        max_rows: usize,
        f: &mut dyn FnMut(Vec<Vec<u32>>, usize) -> Result<(), CountError>,
    ) -> Result<(), CountError> {
        debug_assert!(max_rows >= 1);
        match self {
            Backing::Memory(table) => {
                let ids: Vec<_> = table.schema().iter().map(|(id, _)| id).collect();
                let mut offset = start;
                while offset < end {
                    let stop = (offset + max_rows).min(end);
                    let block: Vec<Vec<u32>> = ids
                        .iter()
                        .map(|&id| table.codes(id)[offset..stop].to_vec())
                        .collect();
                    f(block, stop - offset)?;
                    offset = stop;
                }
                Ok(())
            }
            Backing::Chunks(store) => {
                let mut chunk_start = 0usize;
                for index in 0..store.num_chunks() {
                    if chunk_start >= end {
                        break;
                    }
                    let chunk = store.chunk(index)?;
                    let chunk_end = chunk_start + chunk.num_rows();
                    if chunk_end > start && chunk_start < end {
                        let lo = start.max(chunk_start) - chunk_start;
                        let hi = end.min(chunk_end) - chunk_start;
                        let ids: Vec<_> = chunk.schema().iter().map(|(id, _)| id).collect();
                        let mut offset = lo;
                        while offset < hi {
                            let stop = (offset + max_rows).min(hi);
                            let block: Vec<Vec<u32>> = ids
                                .iter()
                                .map(|&id| chunk.codes(id)[offset..stop].to_vec())
                                .collect();
                            f(block, stop - offset)?;
                            offset = stop;
                        }
                    }
                    chunk_start = chunk_end;
                }
                Ok(())
            }
        }
    }
}

/// The distributed [`CountSource`]: a worker pool plus the retained
/// backing data for lost-partition recovery.
pub struct DistSource<'a> {
    cluster: Cluster,
    backing: Backing<'a>,
    meta: EncodedTable,
    /// Per-worker contiguous row ranges `[start, end)`, cluster order.
    ranges: Vec<(usize, usize)>,
    sink: Option<&'a dyn ProgressSink>,
    fail_fast: bool,
    /// Options of local recounts; its token is the run's.
    local: ScanOptions<'a>,
    block_rows: usize,
    /// Cells per pass-2 window: one `u64` per cell in the response.
    pair_window: usize,
}

impl<'a> DistSource<'a> {
    /// Partition `backing` across the cluster's workers and stream every
    /// partition out. Emits one `worker_joined` event per loaded worker.
    pub fn new(
        cluster: Cluster,
        backing: Backing<'a>,
        config: &MinerConfig,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
        fail_fast: bool,
    ) -> Result<DistSource<'a>, MinerError> {
        let num_rows = backing.num_rows();
        let workers = cluster.len();
        let base = num_rows / workers.max(1);
        let extra = num_rows % workers.max(1);
        let mut ranges = Vec::with_capacity(workers);
        let mut offset = 0;
        for worker in 0..workers {
            let len = base + usize::from(worker < extra);
            ranges.push((offset, offset + len));
            offset += len;
        }
        let ncols = backing.schema().len();
        let meta = EncodedTable::header_only(
            backing.schema().clone(),
            backing.encoders().to_vec(),
            num_rows,
        );
        let mut source = DistSource {
            cluster,
            backing,
            meta,
            ranges,
            sink,
            fail_fast,
            local: ScanOptions {
                cancel,
                kernel: config.kernel,
                ..ScanOptions::new(config.effective_parallelism())
            },
            block_rows: (BATCH_BYTES / (4 * ncols.max(1))).max(1),
            pair_window: BATCH_BYTES / 8,
        };
        source.load()?;
        Ok(source)
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&event);
        }
    }

    /// Declare worker `index` lost during `pass` (0 = the load phase).
    /// Under `fail_fast` the loss becomes the run's error; otherwise the
    /// worker is retired and its range recounted locally from here on.
    fn lose(&mut self, index: usize, pass: usize, detail: String) -> Result<(), MinerError> {
        self.cluster.remotes[index].alive = false;
        self.emit(TraceEvent::WorkerLost {
            worker: index,
            pass,
            detail: detail.clone(),
        });
        if self.fail_fast {
            return Err(MinerError::WorkerLost {
                worker: index,
                pass,
                detail,
            });
        }
        Ok(())
    }

    /// Setup + stream each worker its partition.
    fn load(&mut self) -> Result<(), MinerError> {
        let schema = self.backing.schema().clone();
        let encoders = self.backing.encoders().to_vec();
        for index in 0..self.cluster.len() {
            let (start, end) = self.ranges[index];
            let result = self.load_worker(index, start, end, &schema, &encoders);
            match result {
                Ok(()) => {
                    let peer = self.cluster.remotes[index].peer.clone();
                    self.emit(TraceEvent::WorkerJoined {
                        worker: index,
                        addr: peer,
                        rows: (end - start) as u64,
                    });
                }
                Err(detail) => self.lose(index, 0, detail)?,
            }
        }
        Ok(())
    }

    fn load_worker(
        &mut self,
        index: usize,
        start: usize,
        end: usize,
        schema: &Schema,
        encoders: &[AttributeEncoder],
    ) -> Result<(), String> {
        let setup = DistRequest::Setup {
            schema: schema.clone(),
            encoders: encoders.to_vec(),
        };
        match self.cluster.remotes[index].request(&setup)? {
            DistResponse::Ready => {}
            other => return Err(format!("expected Ready, got {}", describe(&other))),
        }
        let mut loaded = 0u64;
        let block_rows = self.block_rows;
        // Borrow dance: the block callback needs the remote mutably while
        // `self.backing` is iterated, so split the borrows up front.
        let remote = &mut self.cluster.remotes[index];
        let backing = self.backing;
        let mut stream_error: Option<String> = None;
        let walk = backing.for_each_block(start, end, block_rows, &mut |columns, _rows| {
            match remote.request(&DistRequest::Rows { columns }) {
                Ok(DistResponse::RowsLoaded { total_rows }) => {
                    loaded = total_rows;
                    Ok(())
                }
                Ok(other) => {
                    stream_error = Some(format!("expected RowsLoaded, got {}", describe(&other)));
                    Err(CountError::Cancelled) // any error stops the walk
                }
                Err(detail) => {
                    stream_error = Some(detail);
                    Err(CountError::Cancelled)
                }
            }
        });
        if let Some(detail) = stream_error {
            return Err(detail);
        }
        if let Err(CountError::Failed(e)) = walk {
            return Err(format!("reading backing rows: {e}"));
        }
        if loaded != (end - start) as u64 {
            return Err(format!(
                "worker reports {loaded} rows loaded, expected {}",
                end - start
            ));
        }
        Ok(())
    }

    fn is_cancelled(&self) -> bool {
        self.local.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Locally histogram rows `[start, end)` into `acc[attr][code]`.
    fn local_value_counts(
        &self,
        start: usize,
        end: usize,
        acc: &mut [Vec<u64>],
    ) -> Result<(), CountError> {
        self.backing
            .for_each_block(start, end, self.block_rows, &mut |columns, _rows| {
                for (attr, col) in columns.iter().enumerate() {
                    for &code in col {
                        acc[attr][code as usize] += 1;
                    }
                }
                Ok(())
            })
    }

    /// Locally count rows `[start, end)` block by block with `count`
    /// (whose answer aligns with `acc`) and add the tallies into `acc`.
    fn local_sum(
        &self,
        (start, end): (usize, usize),
        acc: &mut [u64],
        count: impl Fn(&EncodedTable) -> Result<Vec<u64>, ScanCancelled>,
    ) -> Result<(), CountError> {
        let schema = self.meta.schema().clone();
        let encoders = self.meta.encoders().to_vec();
        self.backing
            .for_each_block(start, end, self.block_rows, &mut |columns, rows| {
                let block =
                    EncodedTable::from_parts(schema.clone(), encoders.clone(), columns, rows);
                for (a, b) in acc.iter_mut().zip(count(&block)?) {
                    *a += b;
                }
                Ok(())
            })
    }

    /// One distributed counting pass over `windows` of the answer: each
    /// window's request is broadcast and the raw answers are added up.
    /// The windows a worker did not answer (it was retired or lost) are
    /// then recounted locally, once per partition: `recount(block, from)`
    /// counts one row block for the answer from entry `from` on.
    ///
    /// The scan time is the coordinator-measured round time. `kernel` is
    /// the workers' pin (`qar mine --workers` forwards the configured
    /// one); unpinned, each worker picks its own unseen, so it reads
    /// `"mixed"`.
    fn round(
        &mut self,
        pass: usize,
        windows: &[(usize, usize)],
        request: impl Fn(usize, usize) -> DistRequest,
        recount: impl Fn(&EncodedTable, usize) -> Result<Vec<u64>, ScanCancelled>,
        kernel: Option<ScanKernel>,
    ) -> Result<Counted, CountError> {
        let started = Instant::now();
        let mut result = vec![0u64; windows.last().map_or(0, |w| w.1)];
        // Windows each worker answered, in order (a lost worker stops).
        let mut served = vec![0usize; self.cluster.len()];
        let mut merged_workers_min = usize::MAX;
        for (window, &(start, end)) in windows.iter().enumerate() {
            if self.is_cancelled() {
                return Err(CountError::Cancelled);
            }
            let request = request(start, end);
            let mut sent = Vec::new();
            for index in self.alive() {
                match self.cluster.remotes[index].send(&request) {
                    Ok(()) => sent.push(index),
                    Err(detail) => self.lose(index, pass, detail)?,
                }
            }
            let mut merged_workers = 0usize;
            for index in sent {
                match self.cluster.remotes[index].receive() {
                    Ok(DistResponse::Counts { counts }) if counts.len() == end - start => {
                        for (a, b) in result[start..end].iter_mut().zip(counts) {
                            *a += b;
                        }
                        served[index] = window + 1;
                        merged_workers += 1;
                    }
                    Ok(other) => {
                        let detail = format!("malformed counts ({})", describe(&other));
                        self.lose(index, pass, detail)?;
                    }
                    Err(detail) => self.lose(index, pass, detail)?,
                }
            }
            merged_workers_min = merged_workers_min.min(merged_workers);
        }
        for (index, &served) in served.iter().enumerate() {
            if let Some(&(from, _)) = windows.get(served) {
                self.local_sum(self.ranges[index], &mut result[from..], |block| {
                    recount(block, from)
                })?;
            }
        }
        self.emit(TraceEvent::PassMerged {
            pass,
            workers: if merged_workers_min == usize::MAX {
                0
            } else {
                merged_workers_min
            },
            candidates: result.len(),
            elapsed_us: micros(started.elapsed()),
        });
        let stats = PassStats {
            scan_time: started.elapsed(),
            kernel: kernel.map_or("mixed", ScanKernel::name).to_string(),
            ..PassStats::default()
        };
        Ok((result, stats))
    }

    /// Candidate batches whose encoded frames stay under the wire
    /// budget: byte size is `8 + 12·items` per candidate (the catalog
    /// itemset codec) plus the fixed request header fields.
    fn batches(candidates: &[Itemset]) -> Vec<(usize, usize)> {
        let mut batches = Vec::new();
        let mut start = 0;
        let mut bytes = 12usize; // pass + count prefix
        for (i, candidate) in candidates.iter().enumerate() {
            let size = 8 + 12 * candidate.items().len();
            if i > start && bytes + size > BATCH_BYTES.min(MAX_PAYLOAD as usize - 64) {
                batches.push((start, i));
                start = i;
                bytes = 12;
            }
            bytes += size;
        }
        if start < candidates.len() {
            batches.push((start, candidates.len()));
        }
        batches
    }

    /// Start a cluster as `options` asks and wrap it around `backing`
    /// ([`DistSource::new`]).
    pub fn start(
        options: &DistOptions,
        backing: Backing<'a>,
        config: &MinerConfig,
        sink: Option<&'a dyn ProgressSink>,
        cancel: Option<&'a CancelToken>,
    ) -> Result<DistSource<'a>, MinerError> {
        let cluster = Cluster::start(&ClusterOptions {
            workers: options.workers,
            spawn: options.spawn.clone(),
            read_timeout: options.read_timeout,
            accept_timeout: ClusterOptions::default().accept_timeout,
        })?;
        DistSource::new(cluster, backing, config, sink, cancel, options.fail_fast)
    }

    /// Gracefully stop the cluster. Implicit on drop; explicit here so
    /// callers can sequence it before reading run results.
    pub fn shutdown(mut self) {
        self.cluster.shutdown();
    }

    /// Indices of workers still alive.
    fn alive(&self) -> Vec<usize> {
        (0..self.cluster.len())
            .filter(|&i| self.cluster.remotes[i].alive)
            .collect()
    }
}

impl CountSource for DistSource<'_> {
    fn meta(&self) -> &EncodedTable {
        &self.meta
    }

    fn num_rows(&self) -> u64 {
        self.backing.num_rows() as u64
    }

    fn value_counts(&mut self) -> Result<Vec<Vec<u64>>, CountError> {
        if self.is_cancelled() {
            return Err(CountError::Cancelled);
        }
        let started = Instant::now();
        let mut merged: Vec<Vec<u64>> = self
            .meta
            .schema()
            .iter()
            .map(|(id, _)| vec![0u64; self.meta.cardinality(id) as usize])
            .collect();

        // Broadcast, then collect — workers count their partitions
        // concurrently while the coordinator waits.
        let polled = self.alive();
        let mut sent = Vec::new();
        for &index in &polled {
            match self.cluster.remotes[index].send(&DistRequest::CountItems) {
                Ok(()) => sent.push(index),
                Err(detail) => self.lose(index, 1, detail)?,
            }
        }
        let mut merged_workers = 0usize;
        for index in sent {
            match self.cluster.remotes[index].receive() {
                Ok(DistResponse::ItemCounts { counts })
                    if counts.len() == merged.len()
                        && counts
                            .iter()
                            .zip(&merged)
                            .all(|(got, want)| got.len() == want.len()) =>
                {
                    for (acc, add) in merged.iter_mut().zip(&counts) {
                        for (a, b) in acc.iter_mut().zip(add) {
                            *a += b;
                        }
                    }
                    merged_workers += 1;
                }
                Ok(other) => {
                    self.lose(
                        index,
                        1,
                        format!("malformed item counts ({})", describe(&other)),
                    )?;
                }
                Err(detail) => self.lose(index, 1, detail)?,
            }
        }

        // Recount every retired partition locally.
        for index in 0..self.cluster.len() {
            if !self.cluster.remotes[index].alive {
                let (start, end) = self.ranges[index];
                self.local_value_counts(start, end, &mut merged)?;
            }
        }
        self.emit(TraceEvent::PassMerged {
            pass: 1,
            workers: merged_workers,
            candidates: 0,
            elapsed_us: micros(started.elapsed()),
        });
        Ok(merged)
    }

    fn count_pairs(&mut self, grid: &PairGrid) -> Result<Counted, CountError> {
        let (cells, step) = (grid.len(), self.pair_window);
        let windows: Vec<(usize, usize)> = (0..cells)
            .step_by(step)
            .map(|start| (start, (start + step).min(cells)))
            .collect();
        let options = self.local;
        self.round(
            2,
            &windows,
            |start, end| DistRequest::CountPairs {
                grid: grid.clone(),
                start: start as u64,
                len: (end - start) as u64,
            },
            |block, from| {
                let (counts, _) = count_pairs_opts(block, grid, PAIR_CELL_BUDGET, options)?;
                Ok(counts[from..].to_vec())
            },
            // The workers' pair arrays are plain per-row increments.
            Some(ScanKernel::Direct),
        )
    }

    fn count(&mut self, pass: usize, candidates: &[Itemset]) -> Result<Counted, CountError> {
        let options = self.local;
        self.round(
            pass,
            &Self::batches(candidates),
            |start, end| DistRequest::CountCandidates {
                pass: pass as u32,
                candidates: candidates[start..end].to_vec(),
            },
            |block, from| Ok(count_candidates_opts(block, &candidates[from..], None, options)?.0),
            self.local.kernel,
        )
    }
}

/// A terse response description for loss details (never the payload —
/// a malformed count vector could be megabytes).
fn describe(response: &DistResponse) -> &'static str {
    match response {
        DistResponse::Ready => "Ready",
        DistResponse::RowsLoaded { .. } => "RowsLoaded",
        DistResponse::ItemCounts { .. } => "ItemCounts of the wrong shape",
        DistResponse::Counts { .. } => "Counts of the wrong length",
        DistResponse::Bye => "Bye",
        DistResponse::Error { .. } => "Error",
    }
}

/// Options of [`mine_distributed`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Number of workers.
    pub workers: usize,
    /// How to start them.
    pub spawn: WorkerSpawn,
    /// Per-response read timeout (`None` waits forever).
    pub read_timeout: Option<Duration>,
    /// Surface a lost worker as [`MinerError::WorkerLost`] instead of
    /// recovering by local recount.
    pub fail_fast: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        let defaults = ClusterOptions::default();
        DistOptions {
            workers: defaults.workers,
            spawn: defaults.spawn,
            read_timeout: defaults.read_timeout,
            fail_fast: false,
        }
    }
}

/// Run the complete Steps 3–5 pipeline with counting distributed across
/// a worker pool. Bit-identical to
/// [`qar_core::Miner::mine_encoded`] on the same data: same frequent
/// itemsets, supports, rules, and interest verdicts.
pub fn mine_distributed(
    backing: Backing<'_>,
    config: &MinerConfig,
    options: &DistOptions,
    sink: Option<&dyn ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<MiningOutput, MinerError> {
    let mut source = DistSource::start(options, backing, config, sink, cancel)?;
    let result = mine_source(&mut source, config, sink, cancel);
    source.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qar_core::frequent::attribute_value_counts;
    use qar_core::source::mine_source_captured;
    use qar_core::Miner;
    use qar_store::Catalog;
    use qar_table::{Table, Value};

    fn people_table() -> Table {
        let schema = Schema::builder()
            .quantitative("Age")
            .categorical("Married")
            .quantitative("NumCars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
            (41, "No", 1),
            (45, "Yes", 3),
            (52, "Yes", 2),
            (58, "No", 0),
            (63, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: 0.2,
            min_confidence: 0.5,
            max_support: 1.0,
            partitioning: qar_core::PartitionSpec::FixedIntervals(3),
            interest: None,
            ..MinerConfig::default()
        }
    }

    fn encoded() -> EncodedTable {
        let table = people_table();
        let (encoders, _) = qar_core::pipeline::build_encoders(&table, &config()).unwrap();
        EncodedTable::encode(&table, encoders).unwrap()
    }

    fn threads_options(workers: usize) -> DistOptions {
        DistOptions {
            workers,
            spawn: WorkerSpawn::Threads(WorkerOptions::default()),
            read_timeout: Some(Duration::from_secs(30)),
            fail_fast: false,
        }
    }

    fn normalized_catalog_bytes(output: &MiningOutput) -> Vec<u8> {
        let mut stats = output.stats.normalized();
        // `mine_encoded` outputs carry no interval stats (partitioning
        // happened before encoding) — pad like the CLI does.
        if stats.intervals_per_attribute.is_empty() {
            stats.intervals_per_attribute = vec![None; output.encoded.schema().len()];
        }
        Catalog::new(
            output.encoded.schema().clone(),
            output.encoded.encoders().to_vec(),
            output.frequent.num_rows,
            output.rules.clone(),
            output.interest.clone(),
            stats,
        )
        .unwrap()
        .encode()
    }

    fn assert_identical(serial: &MiningOutput, dist: &MiningOutput) {
        assert_eq!(serial.frequent.levels, dist.frequent.levels);
        assert_eq!(serial.rules, dist.rules);
        assert_eq!(
            serial.stats.mine.candidates_per_pass,
            dist.stats.mine.candidates_per_pass
        );
        assert_eq!(
            normalized_catalog_bytes(serial),
            normalized_catalog_bytes(dist),
            "normalized .qarcat bytes must be identical"
        );
    }

    #[test]
    fn distributed_matches_serial_across_worker_counts() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        for workers in [1usize, 2, 3, 5] {
            let dist = mine_distributed(
                Backing::Memory(&enc),
                &config(),
                &threads_options(workers),
                None,
                None,
            )
            .unwrap();
            assert_identical(&serial, &dist);
        }
    }

    #[test]
    fn distributed_capture_matches_serial_capture() {
        let enc = encoded();
        let mut serial_source = qar_core::InMemorySource::new(&enc, &config());
        let (serial, serial_counts) =
            mine_source_captured(&mut serial_source, &config(), None, None).unwrap();
        let options = threads_options(3);
        let mut source =
            DistSource::start(&options, Backing::Memory(&enc), &config(), None, None).unwrap();
        let (dist, dist_counts) = mine_source_captured(&mut source, &config(), None, None).unwrap();
        source.shutdown();
        assert_identical(&serial, &dist);
        assert_eq!(
            serial_counts, dist_counts,
            "captured raw tallies are bit-identical across topologies"
        );
    }

    #[test]
    fn more_workers_than_rows_still_exact() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let dist = mine_distributed(
            Backing::Memory(&enc),
            &config(),
            &threads_options(16),
            None,
            None,
        )
        .unwrap();
        assert_identical(&serial, &dist);
    }

    #[test]
    fn distributed_over_chunks_matches_serial() {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let dir = qar_table::chunk::default_spill_dir("dist_chunks");
        let mut store =
            ChunkStore::create(&dir, enc.schema().clone(), enc.encoders().to_vec()).unwrap();
        let table = people_table();
        let mut i = 0;
        while i < table.num_rows() {
            let end = (i + 3).min(table.num_rows());
            let mut part = Table::new(table.schema().clone());
            for r in i..end {
                part.push_row(&table.row(r).to_values()).unwrap();
            }
            store.append_chunk(&part).unwrap();
            i = end;
        }
        let dist = mine_distributed(
            Backing::Chunks(&store),
            &config(),
            &threads_options(2),
            None,
            None,
        )
        .unwrap();
        assert_identical(&serial, &dist);
    }

    #[test]
    fn interest_annotations_survive_distribution() {
        let mut cfg = config();
        cfg.interest = Some(qar_core::InterestConfig {
            level: 1.1,
            mode: qar_core::InterestMode::SupportAndConfidence,
            prune_candidates: true,
        });
        let enc = encoded();
        let serial = Miner::new(cfg.clone()).mine_encoded(&enc).unwrap();
        let dist =
            mine_distributed(Backing::Memory(&enc), &cfg, &threads_options(3), None, None).unwrap();
        assert_identical(&serial, &dist);
        let verdicts = |o: &MiningOutput| -> Vec<bool> {
            o.interest
                .as_ref()
                .unwrap()
                .iter()
                .map(|v| v.interesting)
                .collect()
        };
        assert_eq!(verdicts(&serial), verdicts(&dist));
    }

    /// Partition state of the hand-rolled flaky worker below: schema,
    /// encoders, column-major codes, row count.
    type FlakyPartition = (Schema, Vec<AttributeEncoder>, Vec<Vec<u32>>, usize);

    /// A worker that serves the load phase, pass 1 and the first
    /// `pair_windows` pass-2 windows correctly, then drops its connection
    /// at the next counting request.
    fn spawn_flaky(addr: String, pair_windows: usize) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            let mut partition: Option<FlakyPartition> = None;
            let mut windows_served = 0;
            loop {
                let Ok(Some(request)) = qar_store::dist::read_request(&mut stream) else {
                    return;
                };
                let response = match request {
                    DistRequest::Setup { schema, encoders } => {
                        let n = schema.len();
                        partition = Some((schema, encoders, vec![Vec::new(); n], 0));
                        DistResponse::Ready
                    }
                    DistRequest::Rows { columns } => {
                        let p = partition.as_mut().unwrap();
                        if !columns.is_empty() {
                            p.3 += columns[0].len();
                            for (col, add) in p.2.iter_mut().zip(columns) {
                                col.extend_from_slice(&add);
                            }
                        }
                        DistResponse::RowsLoaded {
                            total_rows: p.3 as u64,
                        }
                    }
                    DistRequest::CountItems => {
                        let p = partition.as_ref().unwrap();
                        let table =
                            EncodedTable::from_parts(p.0.clone(), p.1.clone(), p.2.clone(), p.3);
                        DistResponse::ItemCounts {
                            counts: attribute_value_counts(&table),
                        }
                    }
                    DistRequest::CountPairs { grid, start, len }
                        if windows_served < pair_windows =>
                    {
                        windows_served += 1;
                        let p = partition.as_ref().unwrap();
                        let table =
                            EncodedTable::from_parts(p.0.clone(), p.1.clone(), p.2.clone(), p.3);
                        let (counts, _) =
                            count_pairs_opts(&table, &grid, PAIR_CELL_BUDGET, ScanOptions::new(1))
                                .unwrap();
                        DistResponse::Counts {
                            counts: counts[start as usize..(start + len) as usize].to_vec(),
                        }
                    }
                    // Drop mid-pass.
                    DistRequest::CountPairs { .. } | DistRequest::CountCandidates { .. } => return,
                    DistRequest::Shutdown => {
                        let _ = qar_store::dist::write_response(&mut stream, &DistResponse::Bye);
                        return;
                    }
                };
                if qar_store::dist::write_response(&mut stream, &response).is_err() {
                    return;
                }
            }
        })
    }

    /// A 2-worker cluster with deterministic indices: worker 0 is a real
    /// worker, worker 1 drops its connection after `pair_windows` pass-2
    /// windows.
    fn flaky_cluster(pair_windows: usize) -> (Cluster, Vec<std::thread::JoinHandle<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let good_addr = addr.clone();
        let good = std::thread::spawn(move || {
            let _ = crate::worker::run_worker(&good_addr, &WorkerOptions::default());
        });
        let (good_stream, _) = listener.accept().unwrap();
        let flaky = spawn_flaky(addr, pair_windows);
        let (flaky_stream, _) = listener.accept().unwrap();
        let cluster = Cluster::from_streams(
            vec![good_stream, flaky_stream],
            Some(Duration::from_secs(10)),
        );
        (cluster, vec![good, flaky])
    }

    #[test]
    fn lost_worker_recovers_with_local_recount() {
        lost_worker_recovers_after(0, BATCH_BYTES / 8);
    }

    /// A worker lost between two windows of the pass-2 answer: the
    /// windows it served stay merged, the rest of its partition is
    /// recounted locally.
    #[test]
    fn worker_lost_mid_pair_pass_recovers_the_missing_windows() {
        lost_worker_recovers_after(2, 1);
    }

    fn lost_worker_recovers_after(pair_windows: usize, window_cells: usize) {
        let enc = encoded();
        let serial = Miner::new(config()).mine_encoded(&enc).unwrap();
        let (cluster, threads) = flaky_cluster(pair_windows);
        let sink = qar_trace::CollectingSink::new();
        let mut source = DistSource::new(
            cluster,
            Backing::Memory(&enc),
            &config(),
            Some(&sink),
            None,
            false,
        )
        .unwrap();
        source.pair_window = window_cells;
        let dist = mine_source(&mut source, &config(), Some(&sink), None).unwrap();
        source.shutdown();
        for thread in threads {
            let _ = thread.join();
        }
        assert_identical(&serial, &dist);
        let lost: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WorkerLost { worker, pass, .. } => Some((*worker, *pass)),
                _ => None,
            })
            .collect();
        assert_eq!(lost.len(), 1, "exactly one loss: {lost:?}");
        assert_eq!(lost[0].0, 1, "the flaky worker is index 1");
        assert!(lost[0].1 >= 2, "lost during a candidate pass");
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::WorkerJoined { worker: 1, .. })));
    }

    #[test]
    fn fail_fast_surfaces_worker_lost() {
        let enc = encoded();
        let (cluster, threads) = flaky_cluster(0);
        let mut source = DistSource::new(
            cluster,
            Backing::Memory(&enc),
            &config(),
            None,
            None,
            true, // fail_fast
        )
        .unwrap();
        let result = mine_source(&mut source, &config(), None, None);
        source.shutdown();
        for thread in threads {
            let _ = thread.join();
        }
        match result {
            Err(MinerError::WorkerLost { worker, pass, .. }) => {
                assert_eq!(worker, 1);
                assert!(pass >= 2);
            }
            Err(other) => panic!("expected WorkerLost, got {other}"),
            Ok(_) => panic!("expected WorkerLost, got Ok"),
        }
    }
}
