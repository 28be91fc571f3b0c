//! The segment layer under the sharded and LSM engines.
//!
//! A segment is one immutable IVF engine over a fixed set of rows: the rows
//! plus an [`IvfIndex`] built over them, or an on-disk candidate container
//! served through a [`MappedStore`]. The owning engine's [`StoreBacking`]
//! ([`crate::ShardParams::backing`], [`crate::LsmParams::backing`]) picks
//! which; nothing else in the crate decides where row panels live.
//! Sharding pairs each segment with a shard-local → global row map and a
//! centroid router; the LSM engine pairs each with time-ordered entity ids
//! and a shadow mask. Both fold their per-segment partial lists through
//! [`gather`].

use crate::ann::{IvfIndex, IvfListStorage, IvfParams, ROW_TILE};
use crate::embedding::EmbeddingTable;
use crate::storage::{
    self, ListStore, MappedIndex, MappedStore, OpenOptions, RowSource, SpillGuard, StorageError,
    StoreBacking, TableRows,
};
use crate::topk::{Ranked, TopK};
use rayon::prelude::*;
use std::path::Path;

/// The engine of one segment.
#[derive(Debug)]
pub(crate) enum SegmentStore {
    /// Resident panels: the segment rows plus an [`IvfIndex`] built over
    /// them (which owns the SQ8 codes when the params ask for them).
    Resident {
        table: EmbeddingTable,
        index: IvfIndex,
    },
    /// A candidate container whose IVF sections were checked at open. The
    /// spill guard of a build-time container removes the file on drop;
    /// containers opened from explicit paths have none.
    Mapped {
        ivf: IvfIndex,
        store: MappedStore,
        stored_bytes: u64,
        spill: Option<SpillGuard>,
    },
}

impl SegmentStore {
    /// Builds the engine over `source`'s rows, used as stored: a resident
    /// [`IvfIndex`], or a streamed container behind a spill guard, per
    /// `backing`. On error the writer's RAII guard has already removed any
    /// partial container.
    pub(crate) fn build<S: RowSource + ?Sized>(
        source: &S,
        params: &IvfParams,
        backing: &StoreBacking,
    ) -> Result<SegmentStore, StorageError> {
        match backing {
            StoreBacking::InMemory => {
                let mut data = vec![0.0f32; source.rows() * source.dim()];
                source.fill_rows(0, &mut data);
                let table = EmbeddingTable::from_data(source.rows(), source.dim(), data);
                let index = IvfIndex::build(&table, params);
                Ok(SegmentStore::Resident { table, index })
            }
            StoreBacking::Mapped(options) => {
                let spill = storage::new_spill(options);
                storage::save_ivf_streaming_with_sync(source, params, spill.path(), 0, false)
                    .map_err(|e| e.at_path(spill.path()))?;
                // Freshly written by this process: skip re-hashing.
                let open = OpenOptions {
                    prefer_mmap: storage::resolved_prefer_mmap(options),
                    verify: false,
                };
                let (ivf, store, stored_bytes) =
                    MappedIndex::open_with(spill.path(), &open)?.into_ivf_parts()?;
                Ok(SegmentStore::Mapped {
                    ivf,
                    store,
                    stored_bytes,
                    spill: Some(spill),
                })
            }
        }
    }

    /// Opens a pre-built container; one without IVF sections fails here, as
    /// `SectionMissing { section: "centroids" }` naming the file.
    pub(crate) fn open(path: &Path, options: &OpenOptions) -> Result<SegmentStore, StorageError> {
        let (ivf, store, stored_bytes) = MappedIndex::open_with(path, options)?
            .into_ivf_parts()
            .map_err(|e| e.at_path(path))?;
        Ok(SegmentStore::Mapped {
            ivf,
            store,
            stored_bytes,
            spill: None,
        })
    }

    pub(crate) fn ivf(&self) -> &IvfIndex {
        match self {
            SegmentStore::Resident { index, .. } => index,
            SegmentStore::Mapped { ivf, .. } => ivf,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        match self {
            SegmentStore::Resident { table, .. } => table.rows(),
            SegmentStore::Mapped { store, .. } => store.rows(),
        }
    }

    pub(crate) fn dim(&self) -> usize {
        match self {
            SegmentStore::Resident { table, .. } => table.dim(),
            SegmentStore::Mapped { store, .. } => store.dim(),
        }
    }

    /// Best-first partial top-`cap` over this segment's rows, segment-local
    /// ids, exactly `queries.rows() * cap` entries for `cap > 0` and a
    /// non-empty segment. `params` must be the ones the segment was built
    /// with; `nprobe` resolves against the segment's own list count.
    pub(crate) fn search_flat(
        &self,
        queries: &EmbeddingTable,
        cap: usize,
        params: &IvfParams,
    ) -> Vec<Ranked> {
        let nprobe = params.resolved_nprobe(self.ivf().nlist());
        match self {
            SegmentStore::Resident { table, index } => {
                index.search_flat(queries, table, cap, nprobe)
            }
            SegmentStore::Mapped { ivf, store, .. } => {
                let sq8 = match &params.storage {
                    IvfListStorage::Flat => None,
                    IvfListStorage::Sq8(sq8) => Some(sq8),
                };
                ivf.search_flat_store(queries, store, sq8, cap, nprobe)
            }
        }
    }

    /// Copies the contiguous rows `start..start + out.len() / dim` into
    /// `out`; call in bounded chunks.
    pub(crate) fn read_rows(&self, start: usize, out: &mut [f32]) {
        match self {
            SegmentStore::Resident { table, .. } => TableRows::new(table).fill_rows(start, out),
            SegmentStore::Mapped { store, .. } => store.read_f32_rows(start, out),
        }
    }

    /// Heap bytes kept resident: panels and coarse state when resident,
    /// coarse state and the SQ8 grid when mapped.
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            SegmentStore::Resident { table, index } => {
                table.data().len() * 4 + index.resident_bytes()
            }
            SegmentStore::Mapped { ivf, store, .. } => {
                ivf.resident_bytes() + store.resident_bytes()
            }
        }
    }

    pub(crate) fn stored_bytes(&self) -> u64 {
        match self {
            SegmentStore::Resident { .. } => 0,
            SegmentStore::Mapped { stored_bytes, .. } => *stored_bytes,
        }
    }

    pub(crate) fn backend(&self) -> &'static str {
        match self {
            SegmentStore::Resident { .. } => "resident",
            SegmentStore::Mapped { store, .. } => store.backend(),
        }
    }

    /// The build-time spill file backing this segment, if any.
    pub(crate) fn spill_path(&self) -> Option<&Path> {
        match self {
            SegmentStore::Mapped {
                spill: Some(spill), ..
            } => Some(spill.path()),
            _ => None,
        }
    }
}

/// Per query, folds the best-first partial lists `partials(q)` yields (in
/// that order) through one [`TopK`] of `cap`, over fixed query tiles
/// concatenated in query order: `n_q * cap` entries. `rank_cmp` is a strict
/// total order, so the kept set is a pure function of the candidate
/// multiset — bit-identical to one selection over the union of partials,
/// whatever the segment boundaries or thread count.
pub(crate) fn gather<'a, I>(
    n_q: usize,
    cap: usize,
    partials: impl Fn(usize) -> I + Sync,
) -> Vec<Ranked>
where
    I: Iterator<Item = &'a [Ranked]>,
{
    let tiles: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();
    tiles
        .par_iter()
        .map(|&start| {
            let end = (start + ROW_TILE).min(n_q);
            let mut out = Vec::with_capacity((end - start) * cap);
            for q in start..end {
                let mut select = TopK::new(cap);
                for list in partials(q) {
                    select.merge(list);
                }
                let merged = select.into_sorted();
                debug_assert_eq!(merged.len(), cap, "partials must fill every selection");
                out.extend(merged);
            }
            out
        })
        .collect::<Vec<_>>()
        .concat()
}
