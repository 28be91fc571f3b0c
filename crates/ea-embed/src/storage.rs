//! Out-of-core candidate-generation storage: a versioned, checksummed
//! on-disk container plus the [`ListStore`] row-access abstraction.
//!
//! The IVF pre-filter and the SQ8 quantized scan (PR 3/PR 4) cut compute and
//! candidate memory, but both still held the full normalised *target
//! embedding table* (and its code panel) in RAM — so the pre-filter stopped
//! working exactly at the corpus sizes it was built for. This module moves
//! the big panels out of core:
//!
//! * **Container** ([`ContainerWriter`] / [`MappedIndex::open`]) — a
//!   little-endian, versioned, per-section-checksummed file holding the
//!   serialized candidate-generation state: IVF centroids, CSR inverted-list
//!   offsets and rows, the SQ8 per-dimension reconstruction grid, the SQ8
//!   code panel, and the normalised f32 row panel. Sections are streamed by
//!   the writer and verified (FNV-1a 64) on open, so truncated or corrupted
//!   files surface a typed [`StorageError`] naming the offending section
//!   instead of a panic or silent wrong scores.
//! * **[`ListStore`]** — the trait both search engines gather rows through.
//!   [`InMemory`] borrows the panels the engines already hold;
//!   [`MappedStore`] reads them from the container through an mmap'd view
//!   (the vendored [`memmap`] shim) or, when mapping is unavailable,
//!   buffered positional reads — only the centroids, CSR offsets and SQ8
//!   grid stay resident.
//! * **[`StoreBacking`]** — the config knob of the two engines that own
//!   segments ([`ShardParams::backing`], [`LsmParams::backing`]): each
//!   segment's panels go to a container searched through the mapped
//!   reader, end to end, selectable via
//!   `EXEA_CANDIDATE_SEARCH={sharded|lsm}-{ivf|ivf-sq8}-mapped`.
//! * **Streaming builds** ([`save_ivf_streaming`] / [`save_sq8_streaming`]
//!   over a [`RowSource`]) — the container is also *writable* out of core:
//!   rows arrive in bounded chunks, get normalised, assigned to centroids
//!   (multi-pass streaming k-means) and SQ8-encoded chunk by chunk, so peak
//!   build staging is `O(chunk · dim)` instead of `O(rows · dim)` — and the
//!   resulting file is **byte-identical** (checksums included) to the
//!   one-shot [`IvfIndex::save`] / [`QuantizedTable::save`] of the same
//!   input (`crates/ea-embed/tests/prop_streaming.rs` pins it).
//!
//! **Cold-path I/O.** The pread fallback does not gather probed rows one
//! `pread(2)` at a time: requested rows are sorted, merged into bounded
//! coalesced runs (one positional read per run, small gaps read through) and
//! decoded from the staging buffer, and the probe loop announces upcoming
//! lists via `posix_fadvise(WILLNEED)` readahead — which is what keeps the
//! no-mmap backend within a small factor of the mapped view instead of ~10×
//! behind it (README's on-disk table).
//!
//! **Bit-identity contract.** Whatever the backend, exact scores come from
//! the same register-blocked [`crate::kernel`] over the same normalised f32
//! rows, and approximate ADC scores from the same integer dot over the same
//! codes — staging mapped rows through a scratch panel does not change any
//! per-row summation order, so a mapped search returns bit-identical
//! `(id, score)` lists to the in-memory backend
//! (`crates/ea-embed/tests/prop_storage.rs` pins ids *and* score bits,
//! `storage_threads.rs` re-pins under `RAYON_NUM_THREADS=8`).
//!
//! [`ShardParams::backing`]: crate::ShardParams::backing
//! [`LsmParams::backing`]: crate::LsmParams::backing

use crate::ann::{self, IvfIndex, IvfListStorage, IvfParams};
use crate::embedding::EmbeddingTable;
use crate::kernel;
use crate::quantized::{self, QuantizedTable, Sq8Params};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic of container version 1 (`EXEA` candidate generation).
const MAGIC: [u8; 8] = *b"EXEACG01";
/// Trailing end-marker; a missing one is the cheapest truncation tell.
const END_MAGIC: [u8; 8] = *b"EXEAEND1";
/// Current container format version.
const VERSION: u32 = 1;
/// Fixed header: magic (8) + version (4) + dim (4) + rows (8).
const HEADER_LEN: u64 = 24;
/// Fixed footer: table offset (8) + table checksum (8) + end magic (8).
const FOOTER_LEN: u64 = 24;
/// Bytes per section-table entry: kind (4) + offset (8) + len (8) + fnv (8).
const ENTRY_LEN: usize = 28;
/// Rows staged per chunk when a mapped backend decodes gathered rows into
/// the scratch panel (bounds per-thread scratch at `STAGE_ROWS * dim` f32).
const STAGE_ROWS: usize = 256;
/// Chunk size for streaming checksum verification and buffered reads.
const IO_CHUNK: usize = 64 * 1024;
/// Byte gap read through when coalescing two requested rows into one
/// positional read — fetching and discarding a small gap costs less than a
/// second syscall plus the seek between them.
const COALESCE_GAP: u64 = 32 * 1024;
/// Upper bound of one coalesced read; bounds the [`StoreScratch`] byte
/// buffer however densely the requested rows cluster.
const COALESCE_MAX: usize = 1024 * 1024;
/// Byte gap bridged when merging requested rows into one
/// `posix_fadvise(WILLNEED)` readahead advisory.
const PREFETCH_GAP: u64 = 256 * 1024;
/// Default rows per chunk of the streaming build path when the caller
/// passes 0 ("choose automatically").
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of the on-disk candidate store: every variant that concerns
/// file contents names the offending section, so a corrupt or truncated
/// container is diagnosable from the error alone.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with the container magic — not a container.
    BadMagic,
    /// The container was written by an unknown format version.
    BadVersion {
        /// The version number found in the header.
        found: u32,
    },
    /// The file ends before the named structure is complete (e.g. the
    /// trailing end-marker is missing after a partial write or truncation).
    Truncated {
        /// Which structure the file ended inside.
        what: &'static str,
    },
    /// A section's stored checksum does not match its bytes.
    BadChecksum {
        /// The section whose checksum failed.
        section: &'static str,
    },
    /// A structural invariant of the named section is violated (overlapping
    /// offsets, duplicate sections, non-monotone CSR offsets, …).
    Corrupt {
        /// The section the invariant belongs to.
        section: &'static str,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A section required by the requested operation is absent.
    SectionMissing {
        /// The missing section.
        section: &'static str,
    },
    /// A section's length disagrees with the header's `rows`/`dim` shape.
    ShapeMismatch {
        /// The section whose shape is wrong.
        section: &'static str,
        /// Expected-vs-found description.
        detail: String,
    },
    /// Any of the above, tagged with the container file it concerns. Every
    /// [`MappedIndex::open`] failure carries this wrapper so that multi-file
    /// deployments (N shard containers) can tell *which* file failed, not
    /// just which section inside it.
    AtPath {
        /// The container file the error concerns.
        path: PathBuf,
        /// The underlying failure.
        source: Box<StorageError>,
    },
}

impl StorageError {
    /// Tags the error with the container file it concerns (idempotent: an
    /// already-tagged error keeps its original path).
    pub fn at_path(self, path: &Path) -> StorageError {
        match self {
            StorageError::AtPath { .. } => self,
            other => StorageError::AtPath {
                path: path.to_path_buf(),
                source: Box::new(other),
            },
        }
    }

    /// The underlying error with any [`StorageError::AtPath`] context
    /// stripped — what section-level matchers should inspect.
    pub fn root(&self) -> &StorageError {
        match self {
            StorageError::AtPath { source, .. } => source.root(),
            other => other,
        }
    }

    /// The container file the error concerns, when known.
    pub fn path(&self) -> Option<&Path> {
        match self {
            StorageError::AtPath { path, .. } => Some(path),
            _ => None,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::BadMagic => write!(f, "not an ExEA candidate container (bad magic)"),
            StorageError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported container version {found} (expected {VERSION})"
                )
            }
            StorageError::Truncated { what } => {
                write!(f, "container truncated inside {what}")
            }
            StorageError::BadChecksum { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            StorageError::Corrupt { section, detail } => {
                write!(f, "corrupt section {section:?}: {detail}")
            }
            StorageError::SectionMissing { section } => {
                write!(f, "container has no {section:?} section")
            }
            StorageError::ShapeMismatch { section, detail } => {
                write!(f, "section {section:?} shape mismatch: {detail}")
            }
            StorageError::AtPath { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::AtPath { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64 — tiny, dependency-free, and plenty for catching
/// torn writes and bit rot (this is an integrity check, not a security one).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// The section kinds of container version 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// IVF k-means centroids: `nlist × dim` f32, row-major.
    Centroids = 1,
    /// CSR inverted-list offsets: `nlist + 1` u32.
    ListOffsets = 2,
    /// Corpus row indexes grouped by inverted list: `rows` u32.
    ListRows = 3,
    /// SQ8 per-dimension reconstruction grid: `dim` f32 offsets then `dim`
    /// f32 scales.
    Sq8Grid = 4,
    /// SQ8 code panel: `rows × dim` u8, row-major.
    Sq8Codes = 5,
    /// The normalised f32 row panel: `rows × dim` f32, row-major. Always
    /// present — the exact re-rank reads survivors' rows from here.
    F32Panel = 6,
}

impl SectionKind {
    fn from_code(code: u32) -> Option<SectionKind> {
        Some(match code {
            1 => SectionKind::Centroids,
            2 => SectionKind::ListOffsets,
            3 => SectionKind::ListRows,
            4 => SectionKind::Sq8Grid,
            5 => SectionKind::Sq8Codes,
            6 => SectionKind::F32Panel,
            _ => return None,
        })
    }

    /// The section's name as used in [`StorageError`] messages.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Centroids => "centroids",
            SectionKind::ListOffsets => "list offsets",
            SectionKind::ListRows => "list rows",
            SectionKind::Sq8Grid => "sq8 grid",
            SectionKind::Sq8Codes => "sq8 codes",
            SectionKind::F32Panel => "f32 panel",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Section {
    kind: SectionKind,
    offset: u64,
    len: u64,
    checksum: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer of one candidate container.
///
/// Sections are written strictly sequentially (`begin_section` → `write_*`
/// → `end_section`), each checksummed incrementally as its bytes stream
/// through, and the section table + end marker land in [`ContainerWriter::finish`]
/// — so a crash mid-write leaves a file the reader rejects as
/// [`StorageError::Truncated`] rather than one it half-trusts.
///
/// A writer that is dropped without a successful [`ContainerWriter::finish`]
/// — an error return, a panic unwind, or simply being abandoned — **removes
/// its file**: an unfinished container is unreadable by construction, and
/// leaving an `O(rows · dim)` torso behind on every failed save was exactly
/// the disk leak the spill guard fixes for temp containers.
///
/// Most callers never touch this directly: [`IvfIndex::save`] and
/// [`QuantizedTable::save`] drive it.
pub struct ContainerWriter {
    out: BufWriter<File>,
    path: PathBuf,
    offset: u64,
    sections: Vec<Section>,
    open: Option<(SectionKind, u64, Fnv)>,
    buf: Vec<u8>,
    sync_on_finish: bool,
    finished: bool,
}

impl ContainerWriter {
    /// Creates `path` (truncating an existing file) and writes the header
    /// for a corpus of `rows` rows of dimension `dim`.
    pub fn create(path: &Path, dim: u32, rows: u64) -> Result<Self, StorageError> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&dim.to_le_bytes())?;
        out.write_all(&rows.to_le_bytes())?;
        Ok(Self {
            out,
            path: path.to_path_buf(),
            offset: HEADER_LEN,
            sections: Vec::new(),
            open: None,
            buf: Vec::new(),
            sync_on_finish: true,
            finished: false,
        })
    }

    /// Whether [`ContainerWriter::finish`] fsyncs the file (default `true`).
    /// Ephemeral spill files that are read back and deleted within the same
    /// process skip the sync — durability would be bought for a file that
    /// never needs to survive a crash.
    pub fn set_sync_on_finish(&mut self, sync: bool) {
        self.sync_on_finish = sync;
    }

    /// Starts a section. Each kind may be written at most once.
    pub fn begin_section(&mut self, kind: SectionKind) -> Result<(), StorageError> {
        assert!(self.open.is_none(), "previous section still open");
        if self.sections.iter().any(|s| s.kind == kind) {
            return Err(StorageError::Corrupt {
                section: kind.name(),
                detail: "section written twice".into(),
            });
        }
        self.open = Some((kind, self.offset, Fnv::new()));
        Ok(())
    }

    /// Appends raw bytes to the open section (streaming; any chunking).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let (_, _, fnv) = self.open.as_mut().expect("no section open");
        fnv.update(bytes);
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends f32 values (little-endian) to the open section.
    pub fn write_f32s(&mut self, values: &[f32]) -> Result<(), StorageError> {
        self.write_le_words(values.iter().map(|v| v.to_le_bytes()))
    }

    /// Appends u32 values (little-endian) to the open section.
    pub fn write_u32s(&mut self, values: &[u32]) -> Result<(), StorageError> {
        self.write_le_words(values.iter().map(|v| v.to_le_bytes()))
    }

    /// Encodes 4-byte little-endian words through the reusable chunk buffer
    /// (one [`ContainerWriter::write_bytes`] call per `IO_CHUNK` of input).
    fn write_le_words(&mut self, words: impl Iterator<Item = [u8; 4]>) -> Result<(), StorageError> {
        self.buf.clear();
        for word in words {
            self.buf.extend_from_slice(&word);
            if self.buf.len() >= IO_CHUNK {
                let buf = std::mem::take(&mut self.buf);
                self.write_bytes(&buf)?;
                self.buf = buf;
                self.buf.clear();
            }
        }
        if !self.buf.is_empty() {
            let buf = std::mem::take(&mut self.buf);
            self.write_bytes(&buf)?;
            self.buf = buf;
        }
        Ok(())
    }

    /// Closes the open section, recording its length and checksum.
    pub fn end_section(&mut self) -> Result<(), StorageError> {
        let (kind, start, fnv) = self.open.take().expect("no section open");
        self.sections.push(Section {
            kind,
            offset: start,
            len: self.offset - start,
            checksum: fnv.finish(),
        });
        Ok(())
    }

    /// Writes the section table and the end marker, then flushes and syncs.
    pub fn finish(mut self) -> Result<(), StorageError> {
        assert!(self.open.is_none(), "section still open at finish");
        let table_offset = self.offset;
        let mut table = Vec::with_capacity(4 + self.sections.len() * ENTRY_LEN);
        table.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            table.extend_from_slice(&(s.kind as u32).to_le_bytes());
            table.extend_from_slice(&s.offset.to_le_bytes());
            table.extend_from_slice(&s.len.to_le_bytes());
            table.extend_from_slice(&s.checksum.to_le_bytes());
        }
        let mut fnv = Fnv::new();
        fnv.update(&table);
        self.out.write_all(&table)?;
        self.out.write_all(&table_offset.to_le_bytes())?;
        self.out.write_all(&fnv.finish().to_le_bytes())?;
        self.out.write_all(&END_MAGIC)?;
        self.out.flush()?;
        if self.sync_on_finish {
            self.out.get_ref().sync_all()?;
        }
        self.finished = true;
        Ok(())
    }
}

impl Drop for ContainerWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

// ---------------------------------------------------------------------------
// Byte source: mmap with pread fallback
// ---------------------------------------------------------------------------

/// Retries an operation until it stops failing with
/// [`io::ErrorKind::Interrupted`] (EINTR): a signal landing mid-syscall is
/// transient by definition and must not surface as a failed container open
/// or read. Every other error passes through untouched.
fn retry_interrupted<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// Drives a positional reader until `buf` is full. Short reads continue at
/// the next offset, interrupted reads (EINTR) retry at the same offset, and
/// a zero-length read is a typed `UnexpectedEof` — callers never see a
/// partial fill or a transient signal error.
fn fill_exact_at(
    mut read_at: impl FnMut(&mut [u8], u64) -> io::Result<usize>,
    mut buf: &mut [u8],
    mut offset: u64,
) -> io::Result<()> {
    while !buf.is_empty() {
        match read_at(buf, offset) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "unexpected end of container",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Positional read compatible across platforms (pread on unix).
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    fill_exact_at(|b, o| file.read_at(b, o), buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    fill_exact_at(|b, o| file.seek_read(b, o), buf, offset)
}

#[cfg(not(any(unix, windows)))]
fn read_exact_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "no positional reads on this platform",
    ))
}

/// Read access to the container bytes: an mmap'd view when the platform
/// grants one, buffered positional reads otherwise. Shared read-only across
/// the rayon pool.
#[derive(Debug)]
enum ByteSource {
    Mapped(memmap::Mmap),
    Pread { file: File, len: u64 },
}

impl ByteSource {
    fn open(file: File, prefer_mmap: bool) -> io::Result<ByteSource> {
        if prefer_mmap {
            if let Ok(map) = memmap::Mmap::map(&file) {
                return Ok(ByteSource::Mapped(map));
            }
        }
        let len = retry_interrupted(|| file.metadata())?.len();
        Ok(ByteSource::Pread { file, len })
    }

    fn len(&self) -> u64 {
        match self {
            ByteSource::Mapped(m) => m.len() as u64,
            ByteSource::Pread { len, .. } => *len,
        }
    }

    fn backend(&self) -> &'static str {
        match self {
            ByteSource::Mapped(_) => "mmap",
            ByteSource::Pread { .. } => "pread",
        }
    }

    /// The zero-copy view of `offset..offset + len`, if mapped.
    fn slice(&self, offset: u64, len: usize) -> Option<&[u8]> {
        match self {
            ByteSource::Mapped(m) => m.get(offset as usize..offset as usize + len),
            ByteSource::Pread { .. } => None,
        }
    }

    /// `posix_fadvise(WILLNEED)` readahead over the requested rows of a
    /// section on the pread backend: ascending neighbours are merged into
    /// runs (gaps up to [`PREFETCH_GAP`] bridged), one advisory per run, so
    /// a whole inverted list usually costs a single call. Purely a hint —
    /// a no-op on the mmap backend (the kernel's fault-ahead covers it) and
    /// on platforms without fadvise; results never depend on it.
    fn prefetch_rows(&self, section_offset: u64, row_bytes: u64, rows: &[u32]) {
        let ByteSource::Pread { file, .. } = self else {
            return;
        };
        if rows.is_empty() || row_bytes == 0 {
            return;
        }
        let gap_rows = (PREFETCH_GAP / row_bytes).max(1);
        let (mut run_start, mut run_end) = (rows[0], rows[0]);
        for &row in &rows[1..] {
            if row >= run_start && u64::from(row) <= u64::from(run_end) + gap_rows {
                run_end = run_end.max(row);
                continue;
            }
            memmap::advise_willneed(
                file,
                section_offset + u64::from(run_start) * row_bytes,
                (u64::from(run_end) - u64::from(run_start) + 1) * row_bytes,
            );
            (run_start, run_end) = (row, row);
        }
        memmap::advise_willneed(
            file,
            section_offset + u64::from(run_start) * row_bytes,
            (u64::from(run_end) - u64::from(run_start) + 1) * row_bytes,
        );
    }

    /// Copies `out.len()` bytes starting at `offset` (either backend).
    fn read_into(&self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        if offset + out.len() as u64 > self.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of container",
            ));
        }
        match self {
            ByteSource::Mapped(m) => {
                let start = offset as usize;
                out.copy_from_slice(&m[start..start + out.len()]);
                Ok(())
            }
            ByteSource::Pread { file, .. } => read_exact_at(file, out, offset),
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Options of [`MappedIndex::open_with`].
#[derive(Debug, Clone)]
pub struct OpenOptions {
    /// Try to mmap the container (falling back to buffered positional reads
    /// when the kernel refuses or the platform has no mmap). `false` forces
    /// the pread backend — useful for benchmarking the two paths.
    pub prefer_mmap: bool,
    /// Verify every section checksum on open (streamed in bounded chunks,
    /// so resident memory stays small even for huge panels). Disable only
    /// for containers this process just wrote.
    pub verify: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        Self {
            prefer_mmap: true,
            verify: true,
        }
    }
}

/// A parsed, validated container: byte source + section table.
#[derive(Debug)]
struct Container {
    source: ByteSource,
    dim: usize,
    rows: usize,
    sections: Vec<Section>,
}

impl Container {
    fn open(path: &Path, options: &OpenOptions) -> Result<Container, StorageError> {
        let file = retry_interrupted(|| File::open(path))?;
        let source = ByteSource::open(file, options.prefer_mmap)?;
        let len = source.len();
        if len < HEADER_LEN + FOOTER_LEN {
            return Err(StorageError::Truncated { what: "header" });
        }

        let mut header = [0u8; HEADER_LEN as usize];
        source.read_into(0, &mut header)?;
        if header[..8] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StorageError::BadVersion { found: version });
        }
        let dim = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let rows = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let rows = usize::try_from(rows).map_err(|_| StorageError::Corrupt {
            section: "header",
            detail: format!("row count {rows} exceeds this platform's address space"),
        })?;

        let mut footer = [0u8; FOOTER_LEN as usize];
        source.read_into(len - FOOTER_LEN, &mut footer)?;
        if footer[16..24] != END_MAGIC {
            return Err(StorageError::Truncated { what: "footer" });
        }
        let table_offset = u64::from_le_bytes(footer[..8].try_into().unwrap());
        let table_checksum = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let table_end = len - FOOTER_LEN;
        if table_offset < HEADER_LEN || table_offset > table_end {
            return Err(StorageError::Corrupt {
                section: "section table",
                detail: format!("table offset {table_offset} outside file"),
            });
        }
        let table_len = (table_end - table_offset) as usize;
        let mut table = vec![0u8; table_len];
        source.read_into(table_offset, &mut table)?;
        let mut fnv = Fnv::new();
        fnv.update(&table);
        if fnv.finish() != table_checksum {
            return Err(StorageError::BadChecksum {
                section: "section table",
            });
        }
        if table_len < 4 {
            return Err(StorageError::Truncated {
                what: "section table",
            });
        }
        let count = u32::from_le_bytes(table[..4].try_into().unwrap()) as usize;
        if table_len != 4 + count * ENTRY_LEN {
            return Err(StorageError::Corrupt {
                section: "section table",
                detail: format!("{count} entries do not fit {table_len} table bytes"),
            });
        }

        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let e = &table[4 + i * ENTRY_LEN..4 + (i + 1) * ENTRY_LEN];
            let code = u32::from_le_bytes(e[..4].try_into().unwrap());
            let kind = SectionKind::from_code(code).ok_or(StorageError::Corrupt {
                section: "section table",
                detail: format!("unknown section kind {code}"),
            })?;
            let offset = u64::from_le_bytes(e[4..12].try_into().unwrap());
            let slen = u64::from_le_bytes(e[12..20].try_into().unwrap());
            let checksum = u64::from_le_bytes(e[20..28].try_into().unwrap());
            if offset < HEADER_LEN
                || offset
                    .checked_add(slen)
                    .is_none_or(|end| end > table_offset)
            {
                return Err(StorageError::Corrupt {
                    section: kind.name(),
                    detail: format!("section bytes {offset}+{slen} outside file"),
                });
            }
            if sections.iter().any(|s: &Section| s.kind == kind) {
                return Err(StorageError::Corrupt {
                    section: kind.name(),
                    detail: "duplicate section".into(),
                });
            }
            sections.push(Section {
                kind,
                offset,
                len: slen,
                checksum,
            });
        }

        let container = Container {
            source,
            dim,
            rows,
            sections,
        };
        if options.verify {
            container.verify_checksums()?;
        }
        Ok(container)
    }

    /// Streams every section through FNV in bounded chunks — resident memory
    /// stays `IO_CHUNK` regardless of panel size.
    fn verify_checksums(&self) -> Result<(), StorageError> {
        let mut buf = vec![0u8; IO_CHUNK];
        for s in &self.sections {
            let mut fnv = Fnv::new();
            let mut off = s.offset;
            let mut remaining = s.len;
            while remaining > 0 {
                let take = remaining.min(IO_CHUNK as u64) as usize;
                self.source.read_into(off, &mut buf[..take])?;
                fnv.update(&buf[..take]);
                off += take as u64;
                remaining -= take as u64;
            }
            if fnv.finish() != s.checksum {
                return Err(StorageError::BadChecksum {
                    section: s.kind.name(),
                });
            }
        }
        Ok(())
    }

    fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    fn expect_len(&self, s: &Section, want: u64) -> Result<(), StorageError> {
        if s.len != want {
            return Err(StorageError::ShapeMismatch {
                section: s.kind.name(),
                detail: format!("expected {want} bytes, found {}", s.len),
            });
        }
        Ok(())
    }

    fn read_f32s(&self, s: &Section) -> Result<Vec<f32>, StorageError> {
        let bytes = self.read_bytes(s)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn read_u32s(&self, s: &Section) -> Result<Vec<u32>, StorageError> {
        let bytes = self.read_bytes(s)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn read_bytes(&self, s: &Section) -> Result<Vec<u8>, StorageError> {
        let mut out = vec![0u8; s.len as usize];
        self.source.read_into(s.offset, &mut out)?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// ListStore
// ---------------------------------------------------------------------------

/// Reusable staging buffers of a [`ListStore`] consumer — one per rayon work
/// block, like the engines' other scratch (the `BfsScratch` pattern). The
/// in-memory backend never touches them; mapped backends decode gathered
/// rows through `panel` (and buffered reads through `bytes`).
#[derive(Debug, Default)]
pub struct StoreScratch {
    bytes: Vec<u8>,
    panel: Vec<f32>,
    /// `(row, original slot)` pairs of a coalesced pread gather, sorted by
    /// row so neighbouring requests merge into single reads.
    pairs: Vec<(u32, u32)>,
    /// Per-chunk kernel scores of a coalesced pread gather, scattered back
    /// to the caller's slot order afterwards.
    scores: Vec<f32>,
}

impl StoreScratch {
    /// Empty scratch; buffers grow to the working-set size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Backend-neutral access to the candidate-generation row panels: the
/// normalised f32 corpus rows every exact score reads, and (optionally) the
/// SQ8 code panel plus its reconstruction grid.
///
/// Implemented by [`InMemory`] (borrowing panels already resident) and
/// [`MappedStore`] (reading them from an on-disk container). The contract
/// that makes backends interchangeable: for the same underlying values,
/// **every method returns bit-identical outputs on every backend** — exact
/// scores are the register-blocked [`crate::kernel`] dot of the same rows,
/// ADC scores the same integer dot — so [`IvfIndex::search`] and
/// [`QuantizedTable::search`] results do not depend on where the bytes live.
pub trait ListStore: Sync {
    /// Number of corpus rows.
    fn rows(&self) -> usize;

    /// Dimension of each row.
    fn dim(&self) -> usize;

    /// The SQ8 per-dimension `(offset, scale)` reconstruction grid, when the
    /// store carries a code panel.
    fn sq8_grid(&self) -> Option<(&[f32], &[f32])>;

    /// Whether the store carries an SQ8 code panel.
    fn has_codes(&self) -> bool {
        self.sq8_grid().is_some()
    }

    /// Exact scores of gathered rows: `out[i] = dot(query, row(rows[i]))`,
    /// bit-identical to [`kernel::scan_gather`] over the in-memory panel.
    fn scan_f32_rows(
        &self,
        query: &[f32],
        rows: &[u32],
        scratch: &mut StoreScratch,
        out: &mut [f32],
    );

    /// Integer ADC scores of gathered rows through the SQ8 codes:
    /// `out[i] = base + step · (Σ_d lut_d · code(rows[i], d))`.
    ///
    /// # Panics
    /// Panics if the store has no code panel ([`ListStore::has_codes`]).
    fn scan_code_rows(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        rows: &[u32],
        scratch: &mut StoreScratch,
        out: &mut [f32],
    );

    /// Integer ADC scores of **all** rows (`out.len() == self.rows()`), the
    /// whole-corpus SQ8 scan. Panics if the store has no code panel.
    fn scan_codes_all(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    );

    /// Hints that the given f32 rows are about to be gathered with
    /// [`ListStore::scan_f32_rows`]: cold backends kick off readahead,
    /// resident (and mmap'd) backends ignore it. Purely advisory — results
    /// never depend on whether, or how much of, the hint was honoured.
    fn prefetch_f32_rows(&self, rows: &[u32]) {
        let _ = rows;
    }

    /// Like [`ListStore::prefetch_f32_rows`], for the SQ8 code rows read by
    /// [`ListStore::scan_code_rows`]. A no-op when the store has no codes.
    fn prefetch_code_rows(&self, rows: &[u32]) {
        let _ = rows;
    }

    /// Heap bytes this store keeps resident (mapped panels do not count —
    /// that is the point).
    fn resident_bytes(&self) -> usize;
}

/// The in-RAM [`ListStore`]: borrows the normalised f32 panel (and, when
/// present, the SQ8 codes + grid) the engines already hold. All scans
/// delegate straight to the kernel/ADC primitives — zero staging.
#[derive(Debug, Clone, Copy)]
pub struct InMemory<'a> {
    panel: &'a [f32],
    rows: usize,
    dim: usize,
    codes: Option<&'a [u8]>,
    grid: Option<(&'a [f32], &'a [f32])>,
}

impl<'a> InMemory<'a> {
    /// A store over the rows of a normalised table (no code panel).
    pub fn from_table(table: &'a EmbeddingTable) -> Self {
        Self {
            panel: table.data(),
            rows: table.rows(),
            dim: table.dim(),
            codes: None,
            grid: None,
        }
    }

    /// A store over a normalised table plus the SQ8 codes quantized from it.
    ///
    /// # Panics
    /// Panics if the quantized table's shape differs from the f32 table's.
    pub fn with_codes(table: &'a EmbeddingTable, quantized: &'a QuantizedTable) -> Self {
        assert_eq!(table.rows(), quantized.rows(), "row count mismatch");
        assert_eq!(table.dim(), quantized.dim(), "dimension mismatch");
        Self {
            codes: Some(quantized.codes()),
            grid: Some(quantized.grid()),
            ..Self::from_table(table)
        }
    }
}

impl ListStore for InMemory<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn sq8_grid(&self) -> Option<(&[f32], &[f32])> {
        self.grid
    }

    fn scan_f32_rows(
        &self,
        query: &[f32],
        rows: &[u32],
        _scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        kernel::scan_gather(query, self.panel, self.dim, rows, out);
    }

    fn scan_code_rows(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        rows: &[u32],
        _scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        let codes = self.codes.expect("in-memory store has no SQ8 codes");
        quantized::adc_scan_gather(codes, self.dim, lut, base, step, rows, out);
    }

    fn scan_codes_all(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        _scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        let codes = self.codes.expect("in-memory store has no SQ8 codes");
        quantized::adc_scan_panel(codes, self.dim, lut, base, step, out);
    }

    fn resident_bytes(&self) -> usize {
        self.panel.len() * 4
            + self.codes.map_or(0, <[u8]>::len)
            + self.grid.map_or(0, |(o, s)| (o.len() + s.len()) * 4)
    }
}

/// The out-of-core [`ListStore`]: panels live in the container file, read
/// through the mmap'd view (zero syscalls per gather) or buffered positional
/// reads. Only the SQ8 grid stays resident; gathered rows are staged through
/// [`StoreScratch`] in bounded chunks, so per-query residency is
/// `O(STAGE_ROWS · dim)` however large the corpus.
#[derive(Debug)]
pub struct MappedStore {
    source: ByteSource,
    rows: usize,
    dim: usize,
    panel_offset: u64,
    codes_offset: Option<u64>,
    grid: Option<(Vec<f32>, Vec<f32>)>,
}

impl MappedStore {
    /// `"mmap"` or `"pread"` — which read backend the container got.
    pub fn backend(&self) -> &'static str {
        self.source.backend()
    }

    /// Decodes row `row` of the f32 panel into `dst` (little-endian).
    fn decode_f32_row(&self, row: u32, dst: &mut [f32], bytes: &mut Vec<u8>) {
        let dim = self.dim;
        let offset = self.panel_offset + row as u64 * dim as u64 * 4;
        match self.source.slice(offset, dim * 4) {
            Some(raw) => decode_f32s(raw, dst),
            None => {
                bytes.resize(dim * 4, 0);
                self.source
                    .read_into(offset, bytes)
                    .unwrap_or_else(|e| panic!("container read failed mid-search: {e}"));
                decode_f32s(bytes, dst);
            }
        }
    }

    /// The code bytes of row `row`, either zero-copy or staged.
    fn code_row<'a>(&'a self, row: u32, bytes: &'a mut Vec<u8>) -> &'a [u8] {
        let offset = self.codes_offset.expect("mapped store has no SQ8 codes")
            + row as u64 * self.dim as u64;
        match self.source.slice(offset, self.dim) {
            Some(raw) => raw,
            None => {
                bytes.resize(self.dim, 0);
                self.source
                    .read_into(offset, bytes)
                    .unwrap_or_else(|e| panic!("container read failed mid-search: {e}"));
                bytes
            }
        }
    }

    /// The pread form of [`ListStore::scan_f32_rows`]: requested rows are
    /// sorted, neighbouring rows merged into coalesced runs (one positional
    /// read per run, gaps up to [`COALESCE_GAP`] read through, runs capped
    /// at [`COALESCE_MAX`] bytes), decoded into the staging panel chunk by
    /// chunk and scanned with the same register-blocked kernel — then the
    /// scores are scattered back to the caller's slot order. Each row's dot
    /// product is an independent accumulator chain, so neither the sort nor
    /// the panel position changes a single bit of any score.
    fn scan_f32_rows_pread(
        &self,
        query: &[f32],
        rows: &[u32],
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        let dim = self.dim;
        let row_bytes = dim * 4;
        let StoreScratch {
            bytes,
            panel,
            pairs,
            scores,
        } = scratch;
        sort_gather_pairs(rows, pairs);
        for chunk in pairs.chunks(STAGE_ROWS) {
            panel.resize(chunk.len() * dim, 0.0);
            scores.resize(chunk.len(), 0.0);
            let mut start = 0usize;
            while start < chunk.len() {
                let end = coalesced_run_end(chunk, start, row_bytes);
                let first = chunk[start].0;
                let span = (chunk[end - 1].0 - first) as usize * row_bytes + row_bytes;
                bytes.resize(span, 0);
                self.source
                    .read_into(
                        self.panel_offset + u64::from(first) * row_bytes as u64,
                        bytes,
                    )
                    .unwrap_or_else(|e| panic!("container read failed mid-search: {e}"));
                for (slot, &(row, _)) in chunk.iter().enumerate().take(end).skip(start) {
                    let rel = (row - first) as usize * row_bytes;
                    decode_f32s(
                        &bytes[rel..rel + row_bytes],
                        &mut panel[slot * dim..(slot + 1) * dim],
                    );
                }
                start = end;
            }
            kernel::scan_block(
                query,
                &panel[..chunk.len() * dim],
                dim,
                &mut scores[..chunk.len()],
            );
            for (&(_, slot), &score) in chunk.iter().zip(scores.iter()) {
                out[slot as usize] = score;
            }
        }
    }

    /// Decodes the contiguous rows `start..start + out.len() / dim` of the
    /// f32 panel into `out` — the raw-row read path LSM compaction streams
    /// sealed segments back through ([`crate::lsm::MutableIndex::compact`]).
    /// Call in bounded chunks; like the search-path gathers, an I/O failure
    /// mid-read panics (the container was validated at open; a failure here
    /// means the file was truncated or the device died underneath us).
    pub(crate) fn read_f32_rows(&self, start: usize, out: &mut [f32]) {
        let dim = self.dim;
        debug_assert_eq!(out.len() % dim.max(1), 0, "whole rows only");
        debug_assert!(start + out.len() / dim.max(1) <= self.rows, "rows in range");
        let offset = self.panel_offset + start as u64 * dim as u64 * 4;
        match self.source.slice(offset, out.len() * 4) {
            Some(raw) => decode_f32s(raw, out),
            None => {
                let mut bytes = vec![0u8; out.len() * 4];
                self.source
                    .read_into(offset, &mut bytes)
                    .unwrap_or_else(|e| panic!("container read failed mid-compaction: {e}"));
                decode_f32s(&bytes, out);
            }
        }
    }

    /// The pread form of [`ListStore::scan_code_rows`]: same sort + coalesce
    /// as the f32 gather, with the integer ADC computed straight off the
    /// staged run bytes (integer accumulation is order-independent per row).
    fn scan_code_rows_pread(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        rows: &[u32],
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        let dim = self.dim;
        let codes_offset = self.codes_offset.expect("mapped store has no SQ8 codes");
        let StoreScratch { bytes, pairs, .. } = scratch;
        sort_gather_pairs(rows, pairs);
        let mut start = 0usize;
        while start < pairs.len() {
            let end = coalesced_run_end(pairs, start, dim);
            let first = pairs[start].0;
            let span = (pairs[end - 1].0 - first) as usize * dim + dim;
            bytes.resize(span, 0);
            self.source
                .read_into(codes_offset + u64::from(first) * dim as u64, bytes)
                .unwrap_or_else(|e| panic!("container read failed mid-search: {e}"));
            for &(row, slot) in &pairs[start..end] {
                let rel = (row - first) as usize * dim;
                out[slot as usize] =
                    base + step * quantized::adc_int(lut, &bytes[rel..rel + dim]) as f32;
            }
            start = end;
        }
    }
}

/// Fills `pairs` with `(row, original slot)` and sorts by row — skipping
/// the sort when the request is already ascending (inverted lists are).
fn sort_gather_pairs(rows: &[u32], pairs: &mut Vec<(u32, u32)>) {
    pairs.clear();
    pairs.extend(
        rows.iter()
            .enumerate()
            .map(|(slot, &row)| (row, slot as u32)),
    );
    if pairs.windows(2).any(|w| w[0].0 > w[1].0) {
        pairs.sort_unstable();
    }
}

/// The end (exclusive) of the coalesced run starting at `start` in
/// row-sorted `pairs`: rows are merged while the byte gap to the previous
/// row stays within [`COALESCE_GAP`] and the total span within
/// [`COALESCE_MAX`]. The first row is always taken, so oversized rows still
/// make progress.
fn coalesced_run_end(pairs: &[(u32, u32)], start: usize, row_bytes: usize) -> usize {
    let first = pairs[start].0;
    let mut prev = first;
    let mut end = start + 1;
    while end < pairs.len() {
        let next = pairs[end].0;
        let gap = u64::from(next).saturating_sub(u64::from(prev) + 1) * row_bytes as u64;
        let span = (next - first) as usize * row_bytes + row_bytes;
        if gap > COALESCE_GAP || span > COALESCE_MAX {
            break;
        }
        prev = next;
        end += 1;
    }
    end
}

impl ListStore for MappedStore {
    fn rows(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn sq8_grid(&self) -> Option<(&[f32], &[f32])> {
        self.grid
            .as_ref()
            .map(|(o, s)| (o.as_slice(), s.as_slice()))
    }

    fn scan_f32_rows(
        &self,
        query: &[f32],
        rows: &[u32],
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        // Stage bounded chunks of gathered rows into a contiguous scratch
        // panel and run the same register-blocked kernel scan the in-memory
        // path runs: per-row summation order is fixed by the kernel's lane
        // assignment, so scores are bit-identical to `kernel::scan_gather`
        // over the resident panel. The pread backend additionally sorts and
        // coalesces the requests (see `scan_f32_rows_pread`) — per-row
        // independence keeps that bit-identical too.
        if matches!(self.source, ByteSource::Pread { .. }) {
            return self.scan_f32_rows_pread(query, rows, scratch, out);
        }
        let dim = self.dim;
        let StoreScratch { bytes, panel, .. } = scratch;
        for (chunk_idx, chunk) in rows.chunks(STAGE_ROWS).enumerate() {
            panel.resize(chunk.len() * dim, 0.0);
            for (slot, &row) in chunk.iter().enumerate() {
                self.decode_f32_row(row, &mut panel[slot * dim..(slot + 1) * dim], bytes);
            }
            let base = chunk_idx * STAGE_ROWS;
            kernel::scan_block(query, panel, dim, &mut out[base..base + chunk.len()]);
        }
    }

    fn scan_code_rows(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        rows: &[u32],
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        if matches!(self.source, ByteSource::Pread { .. }) {
            return self.scan_code_rows_pread(lut, base, step, rows, scratch, out);
        }
        for (i, &row) in rows.iter().enumerate() {
            let codes = self.code_row(row, &mut scratch.bytes);
            out[i] = base + step * quantized::adc_int(lut, codes) as f32;
        }
    }

    fn scan_codes_all(
        &self,
        lut: &[i16],
        base: f32,
        step: f32,
        scratch: &mut StoreScratch,
        out: &mut [f32],
    ) {
        // The whole-corpus scan is a single front-to-back streaming read of
        // the code panel, STAGE_ROWS rows per chunk.
        let dim = self.dim;
        let codes_offset = self.codes_offset.expect("mapped store has no SQ8 codes");
        let mut row = 0usize;
        while row < self.rows {
            let take = STAGE_ROWS.min(self.rows - row);
            let offset = codes_offset + row as u64 * dim as u64;
            let chunk = match self.source.slice(offset, take * dim) {
                Some(raw) => raw,
                None => {
                    scratch.bytes.resize(take * dim, 0);
                    self.source
                        .read_into(offset, &mut scratch.bytes)
                        .unwrap_or_else(|e| panic!("container read failed mid-search: {e}"));
                    &scratch.bytes[..]
                }
            };
            quantized::adc_scan_panel(chunk, dim, lut, base, step, &mut out[row..row + take]);
            row += take;
        }
    }

    fn prefetch_f32_rows(&self, rows: &[u32]) {
        self.source
            .prefetch_rows(self.panel_offset, self.dim as u64 * 4, rows);
    }

    fn prefetch_code_rows(&self, rows: &[u32]) {
        if let Some(offset) = self.codes_offset {
            self.source.prefetch_rows(offset, self.dim as u64, rows);
        }
    }

    fn resident_bytes(&self) -> usize {
        self.grid
            .as_ref()
            .map_or(0, |(o, s)| (o.len() + s.len()) * 4)
    }
}

/// Decodes little-endian f32 bytes into `dst` (a plain load + bitcast on
/// little-endian targets).
fn decode_f32s(bytes: &[u8], dst: &mut [f32]) {
    debug_assert_eq!(bytes.len(), dst.len() * 4);
    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *d = f32::from_le_bytes(c.try_into().unwrap());
    }
}

// ---------------------------------------------------------------------------
// Save entry points
// ---------------------------------------------------------------------------

impl IvfIndex {
    /// Serializes this index — centroids, CSR inverted lists, SQ8 codes +
    /// grid when the index carries them — together with the normalised
    /// `corpus` panel it was built from, into a container at `path`.
    ///
    /// `corpus` must be the same table that was passed to
    /// [`IvfIndex::build`]; shape disagreements are rejected with a typed
    /// error before anything is written.
    pub fn save(&self, corpus: &EmbeddingTable, path: &Path) -> Result<(), StorageError> {
        if self.list_rows.len() != corpus.rows() {
            return Err(StorageError::ShapeMismatch {
                section: "list rows",
                detail: format!(
                    "index files {} rows but corpus has {}",
                    self.list_rows.len(),
                    corpus.rows()
                ),
            });
        }
        if self.nlist() > 0 && self.centroids.dim() != corpus.dim() {
            return Err(StorageError::ShapeMismatch {
                section: "centroids",
                detail: format!(
                    "centroid dim {} but corpus dim {}",
                    self.centroids.dim(),
                    corpus.dim()
                ),
            });
        }
        let mut w = ContainerWriter::create(path, corpus.dim() as u32, corpus.rows() as u64)?;
        w.begin_section(SectionKind::Centroids)?;
        w.write_f32s(self.centroids.data())?;
        w.end_section()?;
        w.begin_section(SectionKind::ListOffsets)?;
        w.write_u32s(&self.list_offsets)?;
        w.end_section()?;
        w.begin_section(SectionKind::ListRows)?;
        w.write_u32s(&self.list_rows)?;
        w.end_section()?;
        if let Some((quantized, _)) = &self.quantized {
            write_sq8_sections(&mut w, quantized)?;
        }
        w.begin_section(SectionKind::F32Panel)?;
        w.write_f32s(corpus.data())?;
        w.end_section()?;
        w.finish()
    }
}

impl QuantizedTable {
    /// Serializes this quantized table — reconstruction grid + code panel —
    /// together with the normalised `corpus` panel it was built from
    /// (required for the exact re-rank), into a container at `path`.
    pub fn save(&self, corpus: &EmbeddingTable, path: &Path) -> Result<(), StorageError> {
        if self.rows() != corpus.rows() || self.dim() != corpus.dim() {
            return Err(StorageError::ShapeMismatch {
                section: "sq8 codes",
                detail: format!(
                    "quantized {}x{} but corpus {}x{}",
                    self.rows(),
                    self.dim(),
                    corpus.rows(),
                    corpus.dim()
                ),
            });
        }
        let mut w = ContainerWriter::create(path, corpus.dim() as u32, corpus.rows() as u64)?;
        write_sq8_sections(&mut w, self)?;
        w.begin_section(SectionKind::F32Panel)?;
        w.write_f32s(corpus.data())?;
        w.end_section()?;
        w.finish()
    }
}

fn write_sq8_sections(
    w: &mut ContainerWriter,
    quantized: &QuantizedTable,
) -> Result<(), StorageError> {
    let (offset, scale) = quantized.grid();
    w.begin_section(SectionKind::Sq8Grid)?;
    w.write_f32s(offset)?;
    w.write_f32s(scale)?;
    w.end_section()?;
    w.begin_section(SectionKind::Sq8Codes)?;
    w.write_bytes(quantized.codes())?;
    w.end_section()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Streaming builds
// ---------------------------------------------------------------------------

/// A source of row-major f32 rows for the streaming container builders and
/// the streaming k-means trainer, pulled in bounded chunks.
///
/// The builders sweep the source **several times** (assignment sweeps, the
/// code-panel sweep, the f32-panel sweep), so implementations must yield
/// bit-identical values on every call — that is what makes the streamed
/// container byte-identical to the one-shot save of the same rows.
pub trait RowSource: Sync {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Dimension of each row.
    fn dim(&self) -> usize;

    /// Writes rows `start..start + out.len() / dim` into `out`, row-major.
    fn fill_rows(&self, start: usize, out: &mut [f32]);

    /// A zero-copy view of rows `start..start + count` when the source is
    /// already resident and contiguous; `None` (the default) makes the
    /// builders stage the chunk through [`RowSource::fill_rows`] instead.
    /// Borrowed chunks keep `peak_staging_bytes` at zero.
    fn borrow_rows(&self, start: usize, count: usize) -> Option<&[f32]> {
        let _ = (start, count);
        None
    }
}

/// [`RowSource`] over an [`EmbeddingTable`] whose rows are used exactly as
/// stored (the caller already normalised them). Chunks are borrowed
/// zero-copy, so streaming builds over resident tables stage nothing.
#[derive(Debug, Clone, Copy)]
pub struct TableRows<'a> {
    table: &'a EmbeddingTable,
}

impl<'a> TableRows<'a> {
    /// Wraps `table` (rows are served as stored — normalise first if the
    /// container is to hold unit rows).
    pub fn new(table: &'a EmbeddingTable) -> Self {
        Self { table }
    }
}

impl RowSource for TableRows<'_> {
    fn rows(&self) -> usize {
        self.table.rows()
    }

    fn dim(&self) -> usize {
        self.table.dim()
    }

    fn fill_rows(&self, start: usize, out: &mut [f32]) {
        let from = start * self.table.dim();
        out.copy_from_slice(&self.table.data()[from..from + out.len()]);
    }

    fn borrow_rows(&self, start: usize, count: usize) -> Option<&[f32]> {
        let dim = self.table.dim();
        Some(&self.table.data()[start * dim..(start + count) * dim])
    }
}

/// [`RowSource`] that gathers rows of a raw table by index and L2-normalises
/// each on the fly — the streaming equivalent of
/// [`EmbeddingTable::gather_normalized`], producing bit-identical rows
/// without ever materialising the gathered table.
#[derive(Debug, Clone, Copy)]
pub struct NormalizedRows<'a> {
    table: &'a EmbeddingTable,
    rows: &'a [usize],
}

impl<'a> NormalizedRows<'a> {
    /// Serves `rows[i]` of `table`, L2-normalised, as row `i`.
    ///
    /// # Panics
    /// Row indexes are bounds-checked lazily: an out-of-range entry panics
    /// when the chunk containing it is pulled.
    pub fn new(table: &'a EmbeddingTable, rows: &'a [usize]) -> Self {
        Self { table, rows }
    }
}

impl RowSource for NormalizedRows<'_> {
    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn dim(&self) -> usize {
        self.table.dim()
    }

    fn fill_rows(&self, start: usize, out: &mut [f32]) {
        let dim = self.table.dim();
        if dim == 0 {
            return;
        }
        for (i, chunk) in out.chunks_exact_mut(dim).enumerate() {
            self.table.normalized_row_into(self.rows[start + i], chunk);
        }
    }
}

/// What a streaming container build did: rows written, full sweeps over the
/// [`RowSource`], and the peak bytes of chunk-scaled staging buffers.
///
/// `peak_staging_bytes` deliberately counts only the buffers that scale
/// with the configured chunk (the staged row panel and the per-chunk code
/// buffer) — it is `0` when every chunk was borrowed zero-copy, and bounded
/// by `O(chunk · dim)` otherwise, independent of corpus row count
/// (`prop_streaming.rs` pins that). `O(rows)` bookkeeping the *finished*
/// index also needs (assignments, CSR lists) and `O(nlist · dim)` centroid
/// state are excluded: bounding the panel-sized staging is what the
/// streaming path is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingStats {
    /// Rows written to the container.
    pub rows: usize,
    /// Full sweeps over the source: k-means seeding/assignment sweeps plus
    /// one per streamed section pass.
    pub passes: usize,
    /// Peak bytes of chunk-scaled staging buffers (see type docs).
    pub peak_staging_bytes: usize,
}

/// Resolves a caller-facing chunk size: `0` means "choose automatically"
/// ([`DEFAULT_CHUNK_ROWS`]), and the result is clamped to `1..=rows` so
/// degenerate inputs cannot stall or over-allocate.
pub(crate) fn resolve_chunk_rows(chunk_rows: usize, rows: usize) -> usize {
    let chunk = if chunk_rows == 0 {
        DEFAULT_CHUNK_ROWS
    } else {
        chunk_rows
    };
    chunk.clamp(1, rows.max(1))
}

/// Chunk staging of the streaming savers: serves a `count × dim` row-major
/// view of source rows, borrowing zero-copy when the source allows and
/// staging through an owned buffer (tracked by [`ChunkStage::panel_bytes`])
/// otherwise.
struct ChunkStage {
    panel: Vec<f32>,
}

impl ChunkStage {
    fn new() -> Self {
        Self { panel: Vec::new() }
    }

    fn view<'a, S: RowSource + ?Sized>(
        &'a mut self,
        source: &'a S,
        start: usize,
        count: usize,
    ) -> &'a [f32] {
        if let Some(view) = source.borrow_rows(start, count) {
            return view;
        }
        self.panel.resize(count * source.dim(), 0.0);
        source.fill_rows(start, &mut self.panel);
        &self.panel
    }

    /// Bytes currently held by the staging buffer (0 on the borrow path).
    fn panel_bytes(&self) -> usize {
        self.panel.len() * 4
    }
}

/// Builds an IVF(-SQ8) candidate container at `path` directly from a
/// [`RowSource`], never materialising the corpus: rows are pulled in
/// `chunk_rows`-row chunks (0 = [`DEFAULT_CHUNK_ROWS`]) for every sweep —
/// streaming k-means training, SQ8 grid fit + encode, and the f32 panel
/// append — so peak staging is `O(chunk · dim)` instead of `O(rows · dim)`.
///
/// The resulting file is **byte-identical, checksums included**, to
/// building [`IvfIndex::build`] on the materialised table and calling
/// [`IvfIndex::save`] with the same `params`
/// (`crates/ea-embed/tests/prop_streaming.rs` pins it).
pub fn save_ivf_streaming<S: RowSource + ?Sized>(
    source: &S,
    params: &IvfParams,
    path: &Path,
    chunk_rows: usize,
) -> Result<StreamingStats, StorageError> {
    save_ivf_streaming_with_sync(source, params, path, chunk_rows, true)
}

/// [`save_ivf_streaming`] with the fsync made optional: a segment's spill
/// container is written, read back and deleted within one process, so it
/// skips the durability cost.
pub(crate) fn save_ivf_streaming_with_sync<S: RowSource + ?Sized>(
    source: &S,
    params: &IvfParams,
    path: &Path,
    chunk_rows: usize,
    sync: bool,
) -> Result<StreamingStats, StorageError> {
    let rows = source.rows();
    let dim = source.dim();
    let chunk_rows = resolve_chunk_rows(chunk_rows, rows);
    // The one-shot build carries no quantized table for an empty corpus even
    // under Sq8 storage, and its save writes no SQ8 sections then — mirror
    // that exactly to stay byte-identical.
    let sq8 = matches!(params.storage, IvfListStorage::Sq8(_)) && rows > 0;
    let mut grid_fit = sq8.then(|| quantized::Sq8GridFit::new(dim));
    // Empty corpora (or a resolved nlist of 0) get the same degenerate index
    // the one-shot build constructs: no centroids, one zero offset, no rows.
    let train = if rows == 0 || params.resolved_nlist(rows) == 0 {
        ann::StreamingTrain::empty(dim)
    } else {
        ann::train_streaming(source, params, chunk_rows, grid_fit.as_mut())
    };
    let (list_offsets, list_rows) =
        ann::csr_from_assignments(&train.assignments, train.centroids.rows());

    let mut w = ContainerWriter::create(path, dim as u32, rows as u64)?;
    w.set_sync_on_finish(sync);
    w.begin_section(SectionKind::Centroids)?;
    w.write_f32s(train.centroids.data())?;
    w.end_section()?;
    w.begin_section(SectionKind::ListOffsets)?;
    w.write_u32s(&list_offsets)?;
    w.end_section()?;
    w.begin_section(SectionKind::ListRows)?;
    w.write_u32s(&list_rows)?;
    w.end_section()?;

    let mut passes = train.passes;
    let mut peak = train.peak_staging_bytes;
    let mut stage = ChunkStage::new();
    if let Some(fit) = grid_fit {
        let (offset, scale) = fit.finish();
        w.begin_section(SectionKind::Sq8Grid)?;
        w.write_f32s(&offset)?;
        w.write_f32s(&scale)?;
        w.end_section()?;
        w.begin_section(SectionKind::Sq8Codes)?;
        let mut codes = Vec::new();
        for start in (0..rows).step_by(chunk_rows) {
            let count = chunk_rows.min(rows - start);
            codes.resize(count * dim, 0u8);
            let view = stage.view(source, start, count);
            for r in 0..count {
                quantized::sq8_encode_row(
                    &offset,
                    &scale,
                    &view[r * dim..(r + 1) * dim],
                    &mut codes[r * dim..(r + 1) * dim],
                );
            }
            peak = peak.max(stage.panel_bytes() + codes.len());
            w.write_bytes(&codes)?;
        }
        w.end_section()?;
        passes += 1;
    }

    w.begin_section(SectionKind::F32Panel)?;
    for start in (0..rows).step_by(chunk_rows) {
        let count = chunk_rows.min(rows - start);
        let view = stage.view(source, start, count);
        w.write_f32s(view)?;
        peak = peak.max(stage.panel_bytes());
    }
    w.end_section()?;
    passes += 1;

    w.finish()?;
    Ok(StreamingStats {
        rows,
        passes,
        peak_staging_bytes: peak,
    })
}

/// Builds a flat SQ8 candidate container (grid + codes + f32 panel, no IVF
/// sections) at `path` directly from a [`RowSource`], in three bounded
/// sweeps: grid fit, encode, panel append. Byte-identical to
/// [`QuantizedTable::build`] + [`QuantizedTable::save`] on the materialised
/// table.
pub fn save_sq8_streaming<S: RowSource + ?Sized>(
    source: &S,
    path: &Path,
    chunk_rows: usize,
) -> Result<StreamingStats, StorageError> {
    let rows = source.rows();
    let dim = source.dim();
    let chunk_rows = resolve_chunk_rows(chunk_rows, rows);
    let mut stage = ChunkStage::new();
    let mut peak = 0usize;

    let mut fit = quantized::Sq8GridFit::new(dim);
    for start in (0..rows).step_by(chunk_rows) {
        let count = chunk_rows.min(rows - start);
        let view = stage.view(source, start, count);
        for r in 0..count {
            fit.update_row(&view[r * dim..(r + 1) * dim]);
        }
        peak = peak.max(stage.panel_bytes());
    }
    let (offset, scale) = fit.finish();

    let mut w = ContainerWriter::create(path, dim as u32, rows as u64)?;
    w.begin_section(SectionKind::Sq8Grid)?;
    w.write_f32s(&offset)?;
    w.write_f32s(&scale)?;
    w.end_section()?;
    w.begin_section(SectionKind::Sq8Codes)?;
    let mut codes = Vec::new();
    for start in (0..rows).step_by(chunk_rows) {
        let count = chunk_rows.min(rows - start);
        codes.resize(count * dim, 0u8);
        let view = stage.view(source, start, count);
        for r in 0..count {
            quantized::sq8_encode_row(
                &offset,
                &scale,
                &view[r * dim..(r + 1) * dim],
                &mut codes[r * dim..(r + 1) * dim],
            );
        }
        peak = peak.max(stage.panel_bytes() + codes.len());
        w.write_bytes(&codes)?;
    }
    w.end_section()?;
    w.begin_section(SectionKind::F32Panel)?;
    for start in (0..rows).step_by(chunk_rows) {
        let count = chunk_rows.min(rows - start);
        let view = stage.view(source, start, count);
        w.write_f32s(view)?;
        peak = peak.max(stage.panel_bytes());
    }
    w.end_section()?;
    w.finish()?;
    Ok(StreamingStats {
        rows,
        passes: 3,
        peak_staging_bytes: peak,
    })
}

// ---------------------------------------------------------------------------
// MappedIndex
// ---------------------------------------------------------------------------

/// A candidate container opened for searching: the small state (centroids,
/// CSR offsets, SQ8 grid) resident, the big panels behind a [`MappedStore`].
///
/// Searches return bit-identical `(row, score)` lists to the in-memory
/// engines the container was saved from.
///
/// # File lifetime
///
/// The open holds the container through an open file handle (and, on the
/// mmap backend, a mapping of it), so on Unix **unlinking the file after a
/// successful open is safe**: the inode stays alive until the index is
/// dropped and reads keep returning the validated bytes
/// (`tests/lsm_threads.rs` pins this on the pread backend — the contract a
/// sealed LSM segment relies on when its spill file is cleaned up early).
/// Opening the *path* again after deletion fails with a typed
/// [`StorageError::Io`] wrapped in [`StorageError::AtPath`], never garbage.
///
/// **Mmap caveat:** what neither backend survives is the file being
/// *modified or truncated in place* while open. The pread backend turns
/// reads past the new end into the mid-search panic below; the mmap backend
/// has no such hook — a fault on a truncated mapping is delivered by the OS
/// as `SIGBUS` and cannot be caught as a typed error. Never rewrite a live
/// container in place; write a new file and swap paths (the rename-free
/// spill-guard discipline every writer in this crate follows).
#[derive(Debug)]
pub struct MappedIndex {
    ivf: Option<IvfIndex>,
    store: MappedStore,
    stored_bytes: u64,
}

impl MappedIndex {
    /// Opens a container with default options (mmap preferred, checksums
    /// verified).
    pub fn open(path: &Path) -> Result<MappedIndex, StorageError> {
        Self::open_with(path, &OpenOptions::default())
    }

    /// Opens a container, validating header, section table, checksums (per
    /// [`OpenOptions::verify`]) and every section's shape against the
    /// header's `rows`/`dim` — corrupt input yields a [`StorageError`]
    /// naming the section, never a panic. Every error is wrapped in
    /// [`StorageError::AtPath`] naming the container file, so callers
    /// juggling many containers (shard sets) can tell which one failed;
    /// match the underlying variant via [`StorageError::root`].
    pub fn open_with(path: &Path, options: &OpenOptions) -> Result<MappedIndex, StorageError> {
        Self::open_impl(path, options).map_err(|e| e.at_path(path))
    }

    fn open_impl(path: &Path, options: &OpenOptions) -> Result<MappedIndex, StorageError> {
        let container = Container::open(path, options)?;
        let (dim, rows) = (container.dim, container.rows);
        let stored_bytes = container.source.len();

        let panel = container.section(SectionKind::F32Panel).copied().ok_or(
            StorageError::SectionMissing {
                section: "f32 panel",
            },
        )?;
        let panel_len = (rows as u64)
            .checked_mul(dim as u64)
            .and_then(|c| c.checked_mul(4))
            .ok_or_else(|| StorageError::Corrupt {
                section: "header",
                detail: format!("{rows} x {dim} overflows"),
            })?;
        container.expect_len(&panel, panel_len)?;

        // IVF sections travel as a trio.
        let ivf = match (
            container.section(SectionKind::Centroids),
            container.section(SectionKind::ListOffsets),
            container.section(SectionKind::ListRows),
        ) {
            (None, None, None) => None,
            (Some(cent), Some(offs), Some(lrows)) => {
                container.expect_len(lrows, rows as u64 * 4)?;
                let list_offsets = container.read_u32s(offs)?;
                let nlist = list_offsets.len().saturating_sub(1);
                let centroid_len = (nlist as u64)
                    .checked_mul(dim as u64)
                    .and_then(|c| c.checked_mul(4))
                    .ok_or_else(|| StorageError::Corrupt {
                        section: "centroids",
                        detail: format!("{nlist} x {dim} overflows"),
                    })?;
                container.expect_len(cent, centroid_len)?;
                let centroids = EmbeddingTable::from_data(nlist, dim, container.read_f32s(cent)?);
                let list_rows = container.read_u32s(lrows)?;
                Some(IvfIndex::from_parts(
                    centroids,
                    list_offsets,
                    list_rows,
                    rows,
                )?)
            }
            _ => {
                let missing = if container.section(SectionKind::Centroids).is_none() {
                    "centroids"
                } else if container.section(SectionKind::ListOffsets).is_none() {
                    "list offsets"
                } else {
                    "list rows"
                };
                return Err(StorageError::SectionMissing { section: missing });
            }
        };

        // SQ8 sections travel as a pair.
        let (codes_offset, grid) = match (
            container.section(SectionKind::Sq8Grid),
            container.section(SectionKind::Sq8Codes),
        ) {
            (None, None) => (None, None),
            (Some(grid), Some(codes)) => {
                container.expect_len(grid, 2 * dim as u64 * 4)?;
                container.expect_len(codes, rows as u64 * dim as u64)?;
                let mut values = container.read_f32s(grid)?;
                let scale = values.split_off(dim);
                (Some(codes.offset), Some((values, scale)))
            }
            (have_grid, _) => {
                return Err(StorageError::SectionMissing {
                    section: if have_grid.is_none() {
                        "sq8 grid"
                    } else {
                        "sq8 codes"
                    },
                });
            }
        };

        Ok(MappedIndex {
            ivf,
            store: MappedStore {
                source: container.source,
                rows,
                dim,
                panel_offset: panel.offset,
                codes_offset,
                grid,
            },
            stored_bytes,
        })
    }

    /// Number of corpus rows in the container.
    pub fn rows(&self) -> usize {
        self.store.rows
    }

    /// Dimension of each row.
    pub fn dim(&self) -> usize {
        self.store.dim
    }

    /// Whether the container carries IVF inverted lists.
    pub fn has_ivf(&self) -> bool {
        self.ivf.is_some()
    }

    /// Whether the container carries an SQ8 code panel.
    pub fn has_codes(&self) -> bool {
        self.store.has_codes()
    }

    /// The loaded IVF quantizer (centroids + CSR lists), if present.
    pub fn ivf(&self) -> Option<&IvfIndex> {
        self.ivf.as_ref()
    }

    /// The mapped row store (usable directly with custom search drivers).
    pub fn store(&self) -> &MappedStore {
        &self.store
    }

    /// Splits the container into its IVF quantizer, its row store and its
    /// file size, for engines that cannot run without IVF state: a
    /// container without IVF sections is
    /// `SectionMissing { section: "centroids" }`.
    pub(crate) fn into_ivf_parts(self) -> Result<(IvfIndex, MappedStore, u64), StorageError> {
        match self.ivf {
            Some(ivf) => Ok((ivf, self.store, self.stored_bytes)),
            None => Err(StorageError::SectionMissing {
                section: "centroids",
            }),
        }
    }

    /// IVF search over the mapped panels: identical semantics (and bit-
    /// identical results) to [`IvfIndex::search`] on the in-memory corpus
    /// the container was saved from. When the container carries SQ8 codes
    /// and `sq8` is `Some`, probed lists are scanned through the codes with
    /// exact re-ranking (IVF-SQ); otherwise the f32 rows are scored
    /// directly.
    ///
    /// # Panics
    /// Panics if the container has no IVF sections ([`MappedIndex::has_ivf`]).
    pub fn search_ivf(
        &self,
        queries: &EmbeddingTable,
        k: usize,
        nprobe: usize,
        sq8: Option<&Sq8Params>,
    ) -> Vec<Vec<(u32, f32)>> {
        let ivf = self
            .ivf
            .as_ref()
            .expect("container has no IVF sections; check MappedIndex::has_ivf");
        ivf.search_store(queries, &self.store, sq8, k, nprobe)
    }

    /// Whole-corpus SQ8 search over the mapped panels: identical semantics
    /// (and bit-identical results) to [`QuantizedTable::search`] on the
    /// in-memory corpus the container was saved from.
    ///
    /// # Panics
    /// Panics if the container has no SQ8 sections ([`MappedIndex::has_codes`]).
    pub fn search_sq8(
        &self,
        queries: &EmbeddingTable,
        k: usize,
        params: &Sq8Params,
    ) -> Vec<Vec<(u32, f32)>> {
        assert!(
            self.has_codes(),
            "container has no SQ8 sections; check MappedIndex::has_codes"
        );
        let cap = k.min(self.rows());
        if cap == 0 {
            return vec![Vec::new(); queries.rows()];
        }
        let rerank = params.resolved_rerank(cap, self.rows());
        let flat = quantized::sq8_topk_flat(queries, &self.store, cap, rerank);
        flat.chunks(cap)
            .map(|chunk| chunk.iter().map(|r| (r.index, r.score)).collect())
            .collect()
    }

    /// Heap bytes kept resident by the open container: centroids + CSR
    /// offsets/rows + SQ8 grid. The panels — the O(rows · dim) part — stay
    /// on disk.
    pub fn resident_bytes(&self) -> usize {
        self.ivf.as_ref().map_or(0, IvfIndex::resident_bytes) + self.store.resident_bytes()
    }

    /// Total bytes of the container file.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// `"mmap"` or `"pread"` — which read backend the container got.
    pub fn backend(&self) -> &'static str {
        self.store.backend()
    }
}

// ---------------------------------------------------------------------------
// Spill backing for segment engines
// ---------------------------------------------------------------------------

/// Where the sharded and LSM engines keep each segment's row panels
/// ([`crate::ShardParams::backing`], [`crate::LsmParams::backing`]):
/// resident, or spilled to an on-disk container and searched through the
/// mapped reader.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreBacking {
    /// Panels stay in RAM (the default; fastest when they fit).
    #[default]
    InMemory,
    /// Panels are written to a container file and searched through
    /// [`MappedStore`]; the spill file is removed when its segment drops.
    /// Results are bit-identical to [`StoreBacking::InMemory`].
    Mapped(MappedOptions),
}

/// Options of [`StoreBacking::Mapped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedOptions {
    /// Directory for the spill container (`std::env::temp_dir()` if `None`).
    pub dir: Option<PathBuf>,
    /// Read the spill through mmap when the platform grants one (`true`,
    /// the default); `false` forces the coalesced-pread backend. Overridden
    /// either way by `EXEA_MAPPED_BACKEND=mmap|pread` when set, so CI and
    /// benches can force the cold path without touching code. Results are
    /// bit-identical across both backends.
    pub prefer_mmap: bool,
}

impl Default for MappedOptions {
    fn default() -> Self {
        Self {
            dir: None,
            prefer_mmap: true,
        }
    }
}

/// The fallible parse of the process-wide backend override:
/// `EXEA_MAPPED_BACKEND=mmap` forces mapped reads (`Ok(Some(true))`),
/// `=pread` the coalesced positional-read path (`Ok(Some(false))`); unset
/// or empty defers to [`MappedOptions::prefer_mmap`] (`Ok(None)`). Any
/// other value is a typed [`crate::EnvOverrideError`] — long-lived processes
/// validate through this at startup so a typo is a clean failure, not a
/// panic mid-search.
pub fn mapped_backend_from_env() -> Result<Option<bool>, crate::EnvOverrideError> {
    match std::env::var("EXEA_MAPPED_BACKEND") {
        Err(_) => Ok(None),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) if v == "mmap" => Ok(Some(true)),
        Ok(v) if v == "pread" => Ok(Some(false)),
        Ok(v) => Err(crate::EnvOverrideError {
            var: "EXEA_MAPPED_BACKEND",
            value: v,
            expected: "\"mmap\" or \"pread\"",
        }),
    }
}

/// The infallible form used inside the search paths (which have no error
/// channel): panics on an unrecognised value — like
/// `EXEA_CANDIDATE_SEARCH`, a typo'd override must not silently benchmark
/// the wrong backend.
fn mapped_backend_override() -> Option<bool> {
    match mapped_backend_from_env() {
        Ok(choice) => choice,
        Err(e) => panic!("{e}"),
    }
}

/// Monotone spill-file counter: names stay unique within a process even
/// when many segments spill concurrently.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Removes the spill container when dropped — including during a panic
/// unwind out of a segment build, so a failed mapped build cannot leave an
/// O(rows · dim) file behind in the temp dir.
#[derive(Debug)]
pub(crate) struct SpillGuard(PathBuf);

impl SpillGuard {
    /// The spill file this guard owns.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Reserves a process-unique spill path under `options.dir` (or the temp
/// dir); the file is removed when the returned guard drops.
pub(crate) fn new_spill(options: &MappedOptions) -> SpillGuard {
    let dir = options.dir.clone().unwrap_or_else(std::env::temp_dir);
    SpillGuard(dir.join(format!(
        "exea-spill-{}-{}.eacg",
        std::process::id(),
        SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
    )))
}

/// The backend a mapped open should use once the `EXEA_MAPPED_BACKEND`
/// process override is folded in.
pub(crate) fn resolved_prefer_mmap(options: &MappedOptions) -> bool {
    mapped_backend_override().unwrap_or(options.prefer_mmap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("exea-storage-unit-{}-{name}", std::process::id()))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut f = Fnv::new();
        assert_eq!(f.finish(), 0xcbf29ce484222325);
        f.update(b"a");
        assert_eq!(f.finish(), 0xaf63dc4c8601ec8c);
        let mut f = Fnv::new();
        f.update(b"foobar");
        assert_eq!(f.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn writer_reader_round_trip_preserves_sections() {
        let path = temp("roundtrip");
        let mut w = ContainerWriter::create(&path, 3, 2).unwrap();
        w.begin_section(SectionKind::F32Panel).unwrap();
        w.write_f32s(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        w.end_section().unwrap();
        w.begin_section(SectionKind::Sq8Grid).unwrap();
        w.write_f32s(&[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        w.end_section().unwrap();
        w.begin_section(SectionKind::Sq8Codes).unwrap();
        w.write_bytes(&[1, 2, 3, 4, 5, 6]).unwrap();
        w.end_section().unwrap();
        w.finish().unwrap();

        for prefer_mmap in [true, false] {
            let c = Container::open(
                &path,
                &OpenOptions {
                    prefer_mmap,
                    verify: true,
                },
            )
            .unwrap();
            assert_eq!((c.dim, c.rows), (3, 2));
            let panel = c.section(SectionKind::F32Panel).unwrap();
            assert_eq!(
                c.read_f32s(panel).unwrap(),
                vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
            );
            let codes = c.section(SectionKind::Sq8Codes).unwrap();
            assert_eq!(c.read_bytes(codes).unwrap(), vec![1, 2, 3, 4, 5, 6]);
            assert!(c.section(SectionKind::Centroids).is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_sections_are_rejected_at_write_time() {
        let path = temp("dup");
        let mut w = ContainerWriter::create(&path, 1, 1).unwrap();
        w.begin_section(SectionKind::F32Panel).unwrap();
        w.write_f32s(&[1.0]).unwrap();
        w.end_section().unwrap();
        assert!(matches!(
            w.begin_section(SectionKind::F32Panel),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_writers_clean_up_their_file() {
        // An error return, a panic, or plain abandonment before `finish`
        // must not leave a torso container behind.
        let path = temp("raii-abandoned");
        {
            let mut w = ContainerWriter::create(&path, 2, 1).unwrap();
            w.begin_section(SectionKind::F32Panel).unwrap();
            w.write_f32s(&[1.0, 2.0]).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "dropped unfinished writer left {path:?}");

        // A finished writer leaves its file alone.
        let path = temp("raii-finished");
        let mut w = ContainerWriter::create(&path, 1, 0).unwrap();
        w.begin_section(SectionKind::F32Panel).unwrap();
        w.end_section().unwrap();
        w.finish().unwrap();
        assert!(path.exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_reads_retry_until_filled() {
        // A reader that yields EINTR on every other call and otherwise
        // produces one byte at a time must still fill the buffer exactly.
        let mut calls = 0u32;
        let mut out = [0u8; 4];
        let result = fill_exact_at(
            |buf, offset| {
                calls += 1;
                if calls % 2 == 1 {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                buf[0] = offset as u8;
                Ok(1)
            },
            &mut out,
            10,
        );
        result.unwrap();
        assert_eq!(out, [10, 11, 12, 13]);
        assert_eq!(calls, 8, "four payload reads interleaved with four EINTRs");
    }

    #[test]
    fn interrupted_reads_still_surface_eof_and_real_errors() {
        let mut out = [0u8; 2];
        let eof = fill_exact_at(|_, _| Ok(0), &mut out, 0);
        assert_eq!(eof.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);

        let denied = fill_exact_at(
            |_, _| Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope")),
            &mut out,
            0,
        );
        assert_eq!(denied.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn retry_interrupted_loops_only_on_eintr() {
        let mut attempts = 0u32;
        let value = retry_interrupted(|| {
            attempts += 1;
            if attempts < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "signal"))
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(value.unwrap(), 3);

        let failed: io::Result<()> =
            retry_interrupted(|| Err(io::Error::new(io::ErrorKind::NotFound, "gone")));
        assert_eq!(failed.unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn gather_pairs_sort_only_when_needed() {
        let mut pairs = Vec::new();
        sort_gather_pairs(&[3, 1, 4, 1], &mut pairs);
        assert_eq!(pairs, vec![(1, 1), (1, 3), (3, 0), (4, 2)]);
        sort_gather_pairs(&[2, 5, 9], &mut pairs);
        assert_eq!(pairs, vec![(2, 0), (5, 1), (9, 2)]);
    }

    #[test]
    fn coalesced_runs_respect_gap_and_span_caps() {
        let row_bytes = 1024usize;
        // Adjacent + small-gap rows merge; a gap beyond COALESCE_GAP splits.
        let far = (COALESCE_GAP / row_bytes as u64) as u32 + 2;
        let pairs: Vec<(u32, u32)> = [0u32, 1, 2, 2 + far].iter().map(|&r| (r, 0)).collect();
        assert_eq!(coalesced_run_end(&pairs, 0, row_bytes), 3);
        assert_eq!(coalesced_run_end(&pairs, 3, row_bytes), 4);
        // The span cap bounds a dense run even with zero gaps.
        let dense: Vec<(u32, u32)> = (0..4096u32).map(|r| (r, 0)).collect();
        let end = coalesced_run_end(&dense, 0, row_bytes);
        assert!(end * row_bytes <= COALESCE_MAX);
        assert!(end > 1);
        // A single oversized row still makes progress.
        assert_eq!(coalesced_run_end(&[(7, 0)], 0, 2 * COALESCE_MAX), 1);
    }

    #[test]
    fn resolved_chunk_rows_are_clamped() {
        assert_eq!(resolve_chunk_rows(0, 100_000), DEFAULT_CHUNK_ROWS);
        assert_eq!(resolve_chunk_rows(0, 10), 10);
        assert_eq!(resolve_chunk_rows(64, 10), 10);
        assert_eq!(resolve_chunk_rows(3, 10), 3);
        assert_eq!(resolve_chunk_rows(5, 0), 1);
        assert_eq!(resolve_chunk_rows(0, 0), 1);
    }

    #[test]
    fn non_container_files_are_rejected() {
        let path = temp("garbage");
        std::fs::write(
            &path,
            b"definitely not a container, but long enough to hold both header and footer",
        )
        .unwrap();
        assert!(matches!(
            Container::open(&path, &OpenOptions::default()),
            Err(StorageError::BadMagic)
        ));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            Container::open(&path, &OpenOptions::default()),
            Err(StorageError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_display_names_the_section() {
        let e = StorageError::BadChecksum {
            section: "sq8 codes",
        };
        assert!(e.to_string().contains("sq8 codes"));
        let e = StorageError::ShapeMismatch {
            section: "centroids",
            detail: "expected 12 bytes, found 8".into(),
        };
        assert!(e.to_string().contains("centroids"));
        assert!(e.to_string().contains("12"));
    }
}
